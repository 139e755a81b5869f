package hw

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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

// packPage is page's packed form by a byte-at-a-time scan: the lines that
// hold a non-zero byte, in order, and their mask.
func packPage(page []byte) (uint64, []byte) {
	var lines uint64
	var packed []byte
	for i := 0; i < PageSize; i += LineSize {
		l := page[i : i+LineSize]
		if !bytes.Equal(l, make([]byte, LineSize)) {
			lines |= 1 << (i / LineSize)
			packed = append(packed, l...)
		}
	}
	return lines, packed
}

// unpackPage is the page a packed form holds.
func unpackPage(lines uint64, packed []byte) []byte {
	page := make([]byte, PageSize)
	for i := 0; i < PageSize/LineSize; i++ {
		if lines&(1<<i) != 0 {
			copy(page[i*LineSize:], packed[:LineSize])
			packed = packed[LineSize:]
		}
	}
	return page
}

// FillFrame is WriteBytes of a whole page for a frame nobody else can name
// yet: for every length n, the page whose first n bytes are src and the
// rest zero, packed, fills a frame of background bytes to what WriteBytes
// of the whole page leaves.
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
	page := make([]byte, PageSize)
	for _, n := range lens {
		for w := uint32(0); w < WordsPerPage; w++ {
			bg := 0xA5A5A5A5 ^ w*0x01010101
			m.StoreWord(got, w, bg)
			m.StoreWord(want, w, bg)
		}
		clear(page)
		copy(page, src[:n])
		lines, packed := packPage(page)
		m.FillFrame(got, lines, packed)
		m.WriteBytes(want, 0, page)
		m.ReadBytes(got, 0, a)
		m.ReadBytes(want, 0, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("FillFrame of a page of %d source bytes differs from WriteBytes of the page", n)
		}
	}
}

// frameShapes are the pages the packed-form tests put through a frame: all
// zero, one word, every other line, and dense.
func frameShapes() []struct {
	name string
	src  []byte
} {
	shapes := []struct {
		name string
		src  []byte
	}{
		{"all zero", make([]byte, PageSize)},
		{"one word", make([]byte, PageSize)},
		{"alternating lines", make([]byte, PageSize)},
		{"dense", make([]byte, PageSize)},
	}
	binary.LittleEndian.PutUint32(shapes[1].src[4*700:], 0xdeadbeef)
	for i := range shapes[2].src {
		if i/LineSize%2 == 0 {
			shapes[2].src[i] = byte(i%251 + 1)
		}
	}
	for i := range shapes[3].src {
		shapes[3].src[i] = byte(i*7 + i>>8 + 1)
	}
	return shapes
}

// nonZeroLines is the mask of the lines of page that hold a non-zero byte.
func nonZeroLines(page []byte) uint64 {
	var lm uint64
	for i, c := range page {
		if c != 0 {
			lm |= 1 << (i / LineSize)
		}
	}
	return lm
}

// FillFrame writes and marks only the lines the result can differ in. On a
// fresh frame the map afterwards is exactly the lines of the page that
// hold a non-zero byte, for every prefix length of an all-zero page, one
// word, every other line and a dense page (the rest of the page zero). On
// a frame some lines of which are already written (one of them back to
// zero), those lines stay marked and hold the page's bytes, zeros
// included: the page is whole. -short takes every seventh length and the
// whole page, which still meets every offset in a line and in a word.
func TestBulkFillFrameMarksOnlyWrittenLines(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	var lens []int
	for n := 0; n < PageSize; n += step {
		lens = append(lens, n)
	}
	lens = append(lens, PageSize)
	// The written frame: lines 0, 3 and 63 hold 0xEE bytes, line 10 a word
	// stored back to zero.
	before, lines := make([]byte, PageSize), []int{0, 3, 63}
	for _, line := range lines {
		for i := line * LineSize; i < (line+1)*LineSize; i++ {
			before[i] = 0xEE
		}
	}
	const written = 1<<0 | 1<<3 | 1<<10 | 1<<63

	m := NewMemory(1)
	got, want := make([]byte, PageSize), make([]byte, PageSize)
	for _, shape := range frameShapes() {
		for _, fresh := range []bool{true, false} {
			for _, n := range lens {
				pfn, err := m.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				clear(want)
				copy(want, shape.src[:n])
				wantLines := nonZeroLines(want)
				if !fresh {
					for _, line := range lines {
						m.WriteBytes(pfn, uint32(line*LineSize), before[line*LineSize:(line+1)*LineSize])
					}
					m.StoreWord(pfn, 10<<lineWordsShift, 1)
					m.StoreWord(pfn, 10<<lineWordsShift, 0)
					wantLines |= written
				}
				mask, packed := packPage(want)
				m.FillFrame(pfn, mask, packed)
				m.ReadBytes(pfn, 0, got)
				if lm := m.lines[pfn].Load(); lm != wantLines {
					t.Fatalf("%s, fresh %v, FillFrame(len=%d): line map %#x, want %#x", shape.name, fresh, n, lm, wantLines)
				}
				if !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Fatalf("%s, fresh %v, FillFrame(len=%d): byte %d = %#x, want %#x", shape.name, fresh, n, i, got[i], want[i])
				}
				m.DecRef(pfn)
			}
		}
	}
}

// ReadFrame then FillFrame into a fresh frame reproduces every byte, over
// random frames of each shape: all zero, one word, alternating lines,
// dense, and with marked lines written back to zero. ReadFrame's mask is
// exactly the non-zero lines, its packed bytes are ReadBytes's lines, in
// order, appended after what the destination held, and the fresh frame's
// map is that mask and no more. WriteFrame of the same form over a frame
// of background bytes leaves the same page, marked at the mask and at the
// lines the background marked.
func TestBulkFrameLinesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1988))
	m := NewMemory(3)
	page, got := make([]byte, PageSize), make([]byte, PageSize)
	prefix, shapes := []byte("kept"), frameShapes()
	for round := 0; round < 200; round++ {
		src, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		shape := shapes[round%len(shapes)].src
		m.WriteBytes(src, 0, shape)
		for k := rng.Intn(8); k > 0; k-- { // random words, some of them zero
			v := rng.Uint32()
			if rng.Intn(3) == 0 {
				v = 0
			}
			m.StoreWord(src, uint32(rng.Intn(WordsPerPage)), v)
		}
		if round%5 == 4 { // a marked line written back to zero
			line := rng.Intn(64)
			m.WriteBytes(src, uint32(line*LineSize), make([]byte, LineSize))
		}
		m.ReadBytes(src, 0, page)
		wantLines, wantPacked := packPage(page)

		lines, out := m.ReadFrame(src, append([]byte(nil), prefix...))
		if lines != wantLines || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], wantPacked) {
			t.Fatalf("round %d: ReadFrame = mask %#x, %d bytes; want mask %#x, %d bytes after the prefix", round, lines, len(out), wantLines, len(prefix)+len(wantPacked))
		}
		packed := out[len(prefix):]

		fresh, _ := m.Alloc()
		m.FillFrame(fresh, lines, packed)
		m.ReadBytes(fresh, 0, got)
		if !bytes.Equal(got, page) {
			t.Fatalf("round %d: FillFrame of ReadFrame's form does not reproduce the frame", round)
		}
		if lm := m.lines[fresh].Load(); lm != lines {
			t.Fatalf("round %d: the fresh frame's map is %#x, the non-zero lines %#x", round, lm, lines)
		}
		m.DecRef(fresh)

		over, _ := m.Alloc()
		bg := make([]byte, PageSize)
		rng.Read(bg[:rng.Intn(PageSize)])
		m.WriteBytes(over, 0, bg)
		bgLines := m.lines[over].Load()
		m.WriteFrame(over, lines, packed)
		m.ReadBytes(over, 0, got)
		if !bytes.Equal(got, page) {
			t.Fatalf("round %d: WriteFrame over background bytes does not reproduce the frame", round)
		}
		if lm := m.lines[over].Load(); lm != lines|bgLines {
			t.Fatalf("round %d: WriteFrame left map %#x, want the mask %#x and the background's %#x", round, lm, lines, bgLines)
		}
		m.DecRef(over)
		m.DecRef(src)
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
