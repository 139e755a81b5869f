package hw

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// heldBytes is the storage pfn holds: its line table, if it has one, and
// every line minted in it.
func heldBytes(m *Memory, pfn PFN) int {
	t := m.meta(pfn).data.Load()
	if t == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*t))
	for i := range t {
		if t[i].Load() != nil {
			n += LineSize
		}
	}
	return n
}

// TestLineStorageFootprint: a frame holds the lines written to it. 1 000
// frames written one word each hold at most 640 bytes of storage apiece —
// a 512-byte table and one 64-byte line — and a frame never written holds
// none, whether a CPU's refill batch took it into a cache or it never left
// the pool.
func TestLineStorageFootprint(t *testing.T) {
	const (
		n       = 1000
		ceiling = 640
	)
	for spare.Get() != nil {
	}
	m := NewMemory(n + 2*refillBatch)
	m.AttachCaches(1)
	written := map[PFN]bool{}
	for i := range n {
		pfn, err := m.AllocOn(0)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		m.StoreWord(pfn, uint32(i*7)%WordsPerPage, uint32(i+1))
		written[pfn] = true
	}
	held := 0
	for pfn := range written {
		held += heldBytes(m, pfn)
	}
	if per := held / n; per > ceiling {
		t.Errorf("%d frames written one word each hold %d bytes of storage apiece, want <= %d", n, per, ceiling)
	}
	if m.CachedFrames() == 0 {
		t.Fatal("no frame left in the cache: the test does not reach a batch-taken frame")
	}
	for pfn := PFN(0); int(pfn) < m.pool.fresh; pfn++ {
		if !written[pfn] {
			if b := heldBytes(m, pfn); b != 0 {
				t.Errorf("frame %d, never written, holds %d bytes of storage", pfn, b)
			}
		}
	}
}

// TestWordAccessAllocs: word access allocates nothing but the storage of a
// line's first mark. A load allocates nothing, whether the frame has no
// table, the line was never minted or it is marked; nor does a store to a
// marked line, or a store by a frame's next owner to a line its last one
// wrote, since a dying frame keeps its lines.
func TestWordAccessAllocs(t *testing.T) {
	m := NewMemory(4)
	m.AttachCaches(1)
	bare, err := m.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	pfn, err := m.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	m.StoreWord(pfn, 5, 1)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"load, no table", func() { m.LoadWord(bare, 9) }},
		{"load, line never minted", func() { m.LoadWord(pfn, WordsPerPage-1) }},
		{"load, marked line", func() { m.LoadWord(pfn, 5) }},
		{"store, marked line", func() { m.StoreWord(pfn, 6, 2) }},
		{"store after regrant", func() {
			p, err := m.AllocOn(0)
			if err != nil {
				t.Fatal(err)
			}
			m.StoreWord(p, 7, 3)
			m.DecRefOn(p, 0)
		}},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocations a run, want 0", c.name, n)
		}
	}
}

// TestFirstStoreStormRace: the first stores into a frame race to mint its
// table and lines. Each round, writers released together store, CAS and
// add into one line of a never-written frame and into a line of their own
// of the same frame; a table or line minted twice would drop what was
// stored into the copy that lost, so every word must read what was stored,
// and every marked line must exist.
func TestFirstStoreStormRace(t *testing.T) {
	const (
		writers = 4
		rounds  = 2000
	)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for spare.Get() != nil {
			}
			m := NewMemory(rounds)
			for r := range rounds {
				pfn, err := m.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				var ready atomic.Int32
				var wg sync.WaitGroup
				for g := range uint32(writers) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for ready.Add(1); ready.Load() < writers; {
							runtime.Gosched()
						}
						own := (g + 1) * lineWords // the first word of line g+1
						m.AddWord(pfn, 0, 1)
						m.StoreWord(pfn, 1+g, g+1)
						if !m.CASWord(pfn, own, 0, g+1) {
							t.Errorf("round %d: writer %d's CAS found its fresh line's word non-zero", r, g)
						}
						m.AddWord(pfn, own+1, g+1)
					}()
				}
				wg.Wait()
				want := uint64(1)
				if got := m.LoadWord(pfn, 0); got != writers {
					t.Fatalf("round %d: the shared word reads %d after %d adds", r, got, writers)
				}
				for g := range uint32(writers) {
					own := (g + 1) * lineWords
					want |= wordLine(own)
					for _, w := range [][2]uint32{{1 + g, g + 1}, {own, g + 1}, {own + 1, g + 1}} {
						if got := m.LoadWord(pfn, w[0]); got != w[1] {
							t.Fatalf("round %d: writer %d's word %d reads %d, want %d", r, g, w[0], got, w[1])
						}
					}
				}
				if lm := m.Lines(pfn); lm != want {
					t.Fatalf("round %d: line map %#x, want %#x", r, lm, want)
				}
				if bad := unmintedMarks(m, pfn); bad != 0 {
					t.Fatalf("round %d: lines %#x marked with no storage", r, bad)
				}
			}
		})
	}
}
