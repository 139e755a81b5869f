package hw

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// refReadBytes and refWriteBytes are the byte-at-a-time bulk primitives the
// word-wide ones replaced, kept as the reference of the differential test.
func refReadBytes(m *Memory, pfn PFN, off uint32, dst []byte) {
	f := m.frame(pfn)
	for i := range dst {
		b := off + uint32(i)
		w := atomic.LoadUint32(&f[b>>2])
		dst[i] = byte(w >> ((b & 3) * 8))
	}
}

func refWriteBytes(m *Memory, pfn PFN, off uint32, src []byte) {
	f := m.frame(pfn)
	for i := range src {
		b := off + uint32(i)
		w := b >> 2
		shift := (b & 3) * 8
		for {
			old := atomic.LoadUint32(&f[w])
			new := old&^(0xff<<shift) | uint32(src[i])<<shift
			if atomic.CompareAndSwapUint32(&f[w], old, new) {
				break
			}
		}
	}
}

// bulkGrid is every (off, len) worth distinguishing: all head alignments
// against all tail alignments for short ranges at the start, middle and end
// of the page, plus empty, sub-word, one-short-of-full and full-page ranges.
func bulkGrid() [][2]int {
	var grid [][2]int
	for _, base := range []int{0, 4, 2044, PageSize - 24} {
		for head := 0; head < 4; head++ {
			for n := 0; n <= 19; n++ {
				if off := base + head; off+n <= PageSize {
					grid = append(grid, [2]int{off, n})
				}
			}
		}
	}
	for head := 0; head < 4; head++ {
		for tail := 0; tail < 4; tail++ {
			grid = append(grid, [2]int{head, PageSize - head - tail})
		}
	}
	for off := PageSize - 4; off <= PageSize; off++ {
		grid = append(grid, [2]int{off, PageSize - off})
	}
	return grid
}

func TestBulkBytesMatchByteReference(t *testing.T) {
	m := NewMemory(2)
	got, _ := m.Alloc()
	want, _ := m.Alloc()
	src := make([]byte, PageSize)
	for i := range src {
		src[i] = byte(i*7 + i>>8 + 1)
	}
	page := func(pfn PFN) []byte {
		out := make([]byte, PageSize)
		refReadBytes(m, pfn, 0, out)
		return out
	}
	for _, g := range bulkGrid() {
		off, n := uint32(g[0]), g[1]
		// Both frames start from the same non-trivial background, so a write
		// that clobbers a neighbour of the range shows.
		for w := uint32(0); w < WordsPerPage; w++ {
			bg := 0xA5A5A5A5 ^ w*0x01010101
			m.StoreWord(got, w, bg)
			m.StoreWord(want, w, bg)
		}
		m.WriteBytes(got, off, src[:n])
		refWriteBytes(m, want, off, src[:n])
		if !bytes.Equal(page(got), page(want)) {
			t.Fatalf("WriteBytes(off=%d, len=%d) differs from the byte-at-a-time reference", off, n)
		}
		a, b := make([]byte, n+2), make([]byte, n+2) // guard byte either side
		a[0], a[n+1], b[0], b[n+1] = 0xEE, 0xEE, 0xEE, 0xEE
		m.ReadBytes(got, off, a[1:n+1])
		refReadBytes(m, got, off, b[1:n+1])
		if !bytes.Equal(a, b) {
			t.Fatalf("ReadBytes(off=%d, len=%d) differs from the byte-at-a-time reference", off, n)
		}
	}
}

// FillFrame is WriteBytes at offset 0 for a frame nobody else can name yet:
// every length's bytes land where WriteBytes puts them and the bytes past
// the range keep their value.
func TestBulkFillFrameMatchesWriteBytes(t *testing.T) {
	m := NewMemory(2)
	got, _ := m.Alloc()
	want, _ := m.Alloc()
	src := make([]byte, PageSize)
	for i := range src {
		src[i] = byte(i*7 + i>>8 + 1)
	}
	lens := []int{PageSize / 2, PageSize/2 + 3}
	for n := 0; n <= 19; n++ {
		lens = append(lens, n, PageSize-n)
	}
	a, b := make([]byte, PageSize), make([]byte, PageSize)
	for _, n := range lens {
		for w := uint32(0); w < WordsPerPage; w++ {
			bg := 0xA5A5A5A5 ^ w*0x01010101
			m.StoreWord(got, w, bg)
			m.StoreWord(want, w, bg)
		}
		m.FillFrame(got, src[:n])
		m.WriteBytes(want, 0, src[:n])
		m.ReadBytes(got, 0, a)
		m.ReadBytes(want, 0, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("FillFrame(len=%d) differs from WriteBytes at offset 0", n)
		}
	}
}

// The bytes of an edge word that lie outside an unaligned WriteBytes range
// belong to someone else. A concurrent writer that owns them (and updates
// them with a word CAS, as a user-level lock or counter would) must never
// lose an update to the bulk write — which is why the head and tail merge
// with CAS instead of load-modify-store.
func TestWriteBytesEdgesKeepConcurrentNeighbours(t *testing.T) {
	m := NewMemory(1)
	pfn, _ := m.Alloc()
	const rounds = 20000
	// The bulk range [5, 18) covers bytes 1..3 of word 1, all of words 2 and
	// 3, and bytes 0..1 of word 4. Byte 0 of word 1 and bytes 2..3 of word
	// 4 are the neighbours' counters.
	bump := func(word uint32, shift uint, n int) {
		for i := 0; i < n; i++ {
			for {
				old := m.LoadWord(pfn, word)
				field := (old>>shift + 1) & 0xff
				if m.CASWord(pfn, word, old, old&^(0xff<<shift)|field<<shift) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); bump(1, 0, rounds) }()
	go func() { defer wg.Done(); bump(4, 16, rounds) }()
	go func() {
		defer wg.Done()
		buf := make([]byte, 13)
		for i := 0; i < rounds; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			m.WriteBytes(pfn, 5, buf)
		}
	}()
	wg.Wait()
	if got := m.LoadWord(pfn, 1) & 0xff; got != rounds&0xff {
		t.Errorf("head neighbour counted %d, want %d: an update was lost to the bulk write", got, rounds&0xff)
	}
	if got := m.LoadWord(pfn, 4) >> 16 & 0xff; got != rounds&0xff {
		t.Errorf("tail neighbour counted %d, want %d: an update was lost to the bulk write", got, rounds&0xff)
	}
	want := make([]byte, 13)
	for j := range want {
		want[j] = byte(rounds - 1 + j)
	}
	got := make([]byte, 13)
	m.ReadBytes(pfn, 5, got)
	if !bytes.Equal(got, want) {
		t.Errorf("bulk range holds %v, want the last write %v", got, want)
	}
}

// CopyFrame reads a live source: every word of the copy must be a value the
// source word actually held (here the writer's monotone sequence, so it is
// bounded by what was stored before and after the copy). The copy itself is
// private — no mapping names it until the caller stores its PFN into a PTE
// — which the test models with an atomic pointer standing in for that PTE:
// a reader that translates through it must see the finished copy, with no
// other ordering between it and the copier's plain stores (-race checks
// exactly that). The RWMutex stands in for the shootdown that precedes a
// free: unmapping waits for readers to leave.
func TestCopyFrameUnderConcurrentSourceWriter(t *testing.T) {
	m := NewMemory(8)
	src, _ := m.Alloc()
	var stop atomic.Bool
	var stored atomic.Uint32 // highest sequence number fully stored
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint32(1); !stop.Load(); seq++ {
			for w := uint32(0); w < WordsPerPage; w++ {
				m.StoreWord(src, w, seq)
			}
			stored.Store(seq)
			runtime.Gosched()
		}
	}()

	type mapping struct {
		pfn  PFN
		want []uint32
	}
	var pte atomic.Pointer[mapping]
	var tlb sync.RWMutex
	go func() { // a reader on another CPU
		defer wg.Done()
		for !stop.Load() {
			tlb.RLock()
			if mp := pte.Load(); mp != nil {
				for w, want := range mp.want {
					if got := m.LoadWord(mp.pfn, uint32(w)); got != want {
						t.Errorf("published copy word %d reads %d, copier wrote %d", w, got, want)
						stop.Store(true)
						break
					}
				}
			}
			tlb.RUnlock()
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for i := 0; i < 200 && !stop.Load(); i++ {
		lo := stored.Load()
		cp, err := m.CopyFrame(src)
		if err != nil {
			t.Fatal(err)
		}
		hi := stored.Load() + 1 // the writer may be one sequence into its next sweep
		want := make([]uint32, WordsPerPage)
		for w := range want {
			want[w] = m.LoadWord(cp, uint32(w))
			if want[w] < lo || want[w] > hi {
				t.Fatalf("copy %d word %d = %d, source only held %d..%d during the copy", i, w, want[w], lo, hi)
			}
		}
		pte.Store(&mapping{cp, want}) // publish
		runtime.Gosched()
		tlb.Lock() // shoot down, then free
		pte.Store(nil)
		tlb.Unlock()
		m.DecRef(cp)
	}
}
