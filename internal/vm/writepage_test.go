package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
)

// fillThenWrite is what restore did before WritePage existed — resolve the
// page as a fault would, then store the whole page into whatever frame came
// back — and is the reference WritePage is held to.
func fillThenWrite(r *Region, idx int, page []byte, cpu int, acct *hw.FrameAcct) (int, error) {
	pfn, _, _, lazyPages, err := r.FillAccounted(idx, r.Type != RText, cpu, acct)
	if err != nil {
		return lazyPages, err
	}
	r.mem.WriteBytes(pfn, 0, page)
	return lazyPages, nil
}

// packPage is page's packed form, as ReadPage gives it: the lines holding a
// non-zero byte, in order, and their mask.
func packPage(page []byte) (uint64, []byte) {
	var lines uint64
	var packed []byte
	for i := 0; i < hw.PageSize; i += hw.LineSize {
		if l := page[i : i+hw.LineSize]; !bytes.Equal(l, make([]byte, hw.LineSize)) {
			lines |= 1 << (i / hw.LineSize)
			packed = append(packed, l...)
		}
	}
	return lines, packed
}

// readPage is page idx of r whole, and whether it is resident.
func readPage(r *Region, idx int) ([]byte, bool) {
	lines, packed, ok := r.ReadPage(idx, nil)
	page := make([]byte, hw.PageSize)
	for i := 0; i < hw.PageSize/hw.LineSize; i++ {
		if lines&(1<<i) != 0 {
			copy(page[i*hw.LineSize:], packed[:hw.LineSize])
			packed = packed[hw.LineSize:]
		}
	}
	return page, ok
}

// wpWorld is one side of the differential: the region written, the regions
// that may alias its frames, and the account the write is charged to.
type wpWorld struct {
	m       *hw.Memory
	acct    *hw.FrameAcct
	target  *Region
	others  []*Region
	idx     int
	pattern []byte // what fill() left in every resident page
}

const wpPages = 6

// fill makes pages idxs of r resident and sole-owned, each holding pattern.
func (w *wpWorld) fill(t *testing.T, r *Region, idxs ...int) {
	t.Helper()
	for _, idx := range idxs {
		pfn, _, _, _, err := r.FillAccounted(idx, r.Type != RText, 0, w.acct)
		if err != nil {
			t.Fatal(err)
		}
		w.m.WriteBytes(pfn, 0, w.pattern)
	}
}

// wpStates is every slot state WritePage distinguishes (and the failures it
// can meet), each built the same way on both sides of the differential.
var wpStates = []struct {
	name  string
	build func(t *testing.T, w *wpWorld)
}{
	{"absent", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 0, 3)
	}},
	{"resident sole-owned", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2, 3)
	}},
	{"sole-owned again after the alias left", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.target.Dup().Detach() // writable bits cleared, refs back to one
	}},
	{"COW-aliased, written through the source", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2, 4)
		w.others = []*Region{w.target.Dup()}
	}},
	{"COW-aliased, written through the copy", func(t *testing.T, w *wpWorld) {
		src := NewRegion(w.m, RData, wpPages)
		w.fill(t, src, 1, 2, 4)
		w.target, w.others = src.Dup(), []*Region{src}
	}},
	{"untouched lazy clone", func(t *testing.T, w *wpWorld) {
		src := NewRegion(w.m, RData, wpPages)
		w.fill(t, src, 0, 2, 5)
		w.target, w.others = src.DupLazy(), []*Region{src}
	}},
	{"untouched lazy clone, page absent in the source", func(t *testing.T, w *wpWorld) {
		src := NewRegion(w.m, RData, wpPages)
		w.fill(t, src, 0, 5)
		w.target, w.others = src.DupLazy(), []*Region{src}
	}},
	{"source of two untouched lazy clones", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.others = []*Region{w.target.DupLazy(), w.target.DupLazy()}
	}},
	{"text, absent", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RText, wpPages)
		w.fill(t, w.target, 0)
	}},
	{"text, resident and shared", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RText, wpPages)
		w.fill(t, w.target, 0, 2)
		w.others = []*Region{w.target.Dup()}
	}},
	{"tracking armed, absent", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1)
		w.target.TrackDirty()
	}},
	{"tracking armed, resident", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.target.TrackDirty()
	}},
	{"tracking armed, COW-aliased", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.others = []*Region{w.target.Dup()}
		w.target.TrackDirty()
	}},
	{"quota exhausted, absent", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 0, 1)
		w.acct.SetQuota(2)
	}},
	{"quota exhausted, COW-aliased", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.others = []*Region{w.target.Dup()}
		w.acct.SetQuota(2)
	}},
	{"quota exhausted, resident", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 1, 2)
		w.acct.SetQuota(2)
	}},
	{"memory exhausted, absent", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.fill(t, w.target, 0, 1)
		hog := NewRegion(w.m, RData, w.m.Capacity())
		for i := 0; w.m.InUse() < w.m.Capacity(); i++ {
			w.fill(t, hog, i)
		}
		w.others = []*Region{hog}
	}},
	{"page outside the region", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.idx = wpPages
	}},
	{"negative page", func(t *testing.T, w *wpWorld) {
		w.target = NewRegion(w.m, RData, wpPages)
		w.idx = -1
	}},
}

// observe renders everything a caller of WritePage can see afterwards.
func (w *wpWorld) observe(lazyPages int, err error) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "lazyPages=%d err=%v\n", lazyPages, err)
	fmt.Fprintf(&b, "acct used=%d charges=%d uncharges=%d quotaHits=%d\n",
		w.acct.Used(), w.acct.Charges.Load(), w.acct.Uncharges.Load(), w.acct.QuotaHits.Load())
	fmt.Fprintf(&b, "mem inUse=%d allocs=%d frees=%d fastFills=%d slowFills=%d\n",
		w.m.InUse(), w.m.Allocs.Load(), w.m.Frees.Load(), w.m.FastFills.Load(), w.m.SlowFills.Load())
	for ri, r := range append([]*Region{w.target}, w.others...) {
		if r.Pages() > wpPages {
			continue // the memory hog
		}
		fmt.Fprintf(&b, "region %d: resident=%d lazy=%v everWritable=%v", ri, r.Resident(), r.Lazy(), r.EverWritable())
		if r.Tracking() {
			fmt.Fprintf(&b, " dirty=%v", r.TakeDirty())
		}
		b.WriteByte('\n')
		for idx := 0; idx < r.Pages(); idx++ {
			buf, ok := readPage(r, idx)
			if !ok {
				continue
			}
			pfn := r.Frame(idx)
			writable := r.table.Load().slots[idx].Load()&pteWritable != 0
			fmt.Fprintf(&b, "  page %d: ref=%d owned=%v writable=%v bytes=%x\n",
				idx, w.m.Ref(pfn), w.m.OwnerOf(pfn) == w.acct, writable, buf)
		}
	}
	return b.String()
}

// WritePage against the fill-then-write pair it replaced, over every slot
// state and every shape of page: the same bytes read back through every
// region that could alias the page, the same residency, frame refcounts,
// ownership, writable and dirty bits, account charges, deferred-walk count
// and error. A page is whole, so each shape is the page its data begins
// (the rest zero) or the first page of it: the reference writes that page,
// WritePage takes its packed form.
func TestWritePageMatchesFillThenWrite(t *testing.T) {
	rnd := rand.New(rand.NewSource(1988))
	random := func(n int) []byte {
		p := make([]byte, n)
		rnd.Read(p)
		return p
	}
	datas := []struct {
		name string
		data []byte
	}{
		{"whole page", random(hw.PageSize)},
		{"zero page", make([]byte, hw.PageSize)},
		{"short, unaligned", random(1 + rnd.Intn(hw.PageSize-1) | 1)},
		{"short, aligned", random(4 * (1 + rnd.Intn(hw.WordsPerPage-1)))},
		{"empty", nil},
		{"longer than a page", random(hw.PageSize + 5)},
	}
	pattern := random(hw.PageSize)
	run := func(t *testing.T, build func(*testing.T, *wpWorld), write func(w *wpWorld) (int, error)) string {
		w := &wpWorld{m: mem(32), acct: &hw.FrameAcct{}, idx: 2, pattern: pattern}
		w.m.AttachCaches(1)
		build(t, w)
		return w.observe(write(w))
	}
	for _, st := range wpStates {
		for _, d := range datas {
			t.Run(st.name+"/"+d.name, func(t *testing.T) {
				page := make([]byte, hw.PageSize)
				copy(page, d.data)
				lines, packed := packPage(page)
				got := run(t, st.build, func(w *wpWorld) (int, error) {
					return w.target.WritePage(w.idx, lines, packed, 0, w.acct)
				})
				want := run(t, st.build, func(w *wpWorld) (int, error) {
					return fillThenWrite(w.target, w.idx, page, 0, w.acct)
				})
				if got != want {
					t.Errorf("WritePage left\n%s\nfill-then-write left\n%s", got, want)
				}
			})
		}
	}
}

// WritePage in place touches only the page's lines and the lines the frame
// marked: a resident, sole-owned page with two lines written (one of them
// in the new page, one not) takes a page of three lines and is marked at
// those four, no more, where a whole-page WriteBytes would mark all 64. The
// line outside the new page reads zero, and the page reads back whole.
func TestWritePageInPlaceMarksOnlyMaskLines(t *testing.T) {
	m := mem(4)
	r := NewRegion(m, RData, 1)
	pfn, _, _, err := r.Fill(0, true)
	if err != nil {
		t.Fatal(err)
	}
	m.StoreWord(pfn, 5<<4, 0xaaaa)  // line 5, in the new page
	m.StoreWord(pfn, 40<<4, 0xbbbb) // line 40, not
	page := make([]byte, hw.PageSize)
	for _, line := range []int{5, 6, 63} {
		copy(page[line*hw.LineSize:], bytes.Repeat([]byte{byte(line)}, hw.LineSize))
	}
	lines, packed := packPage(page)
	if _, err := r.WritePage(0, lines, packed, 0, nil); err != nil {
		t.Fatal(err)
	}
	if r.Frame(0) != pfn {
		t.Fatal("WritePage replaced a sole-owned resident frame instead of writing it in place")
	}
	if got, want := m.Lines(pfn), uint64(1<<5|1<<6|1<<40|1<<63); got != want {
		t.Errorf("line map after the in-place write = %#x, want %#x", got, want)
	}
	if got, _ := readPage(r, 0); !bytes.Equal(got, page) {
		t.Error("the page does not read back as written")
	}
}

// WritePage publishes a page it had to allocate only once the frame is
// full: a reader on another CPU that finds the page present finds all of
// it. Writers take the even pages — the first half absent, the second half
// aliasing a copy-on-write partner's frames, so both new-frame cases run,
// and every later generation goes in place — while faulters store through
// the odd pages and readers sweep the whole region by ReadPage and by
// Frame+LoadWord. Every word of an even page names its page and a
// generation; zero would be a frame published before it was filled, and a
// page holding the partner's generation and a writer's at once would be a
// write into a frame the partner still maps.
func TestWritePageStormRace(t *testing.T) {
	const (
		pages   = 32
		writers = 2
		gens    = 6
		oldGen  = 0x8000
	)
	pageOf := func(page, gen int) []byte {
		p := make([]byte, hw.PageSize)
		for i := 0; i < hw.PageSize; i += 4 {
			p[i], p[i+1], p[i+2], p[i+3] = byte(gen), byte(gen>>8), byte(page), byte(page>>8)
		}
		return p
	}
	check := func(t *testing.T, page int, words []uint32) {
		old := 0
		for i, w := range words {
			if int(w>>16) != page || w&0xffff == 0 || (w&0xffff > gens && w&0xffff != oldGen) {
				t.Errorf("page %d word %d reads %#x: not a value any writer stored there", page, i, w)
				return
			}
			if w&0xffff == oldGen {
				old++
			}
		}
		if old != 0 && old != len(words) {
			t.Errorf("page %d mixes the partner's contents with a writer's (%d of %d words old)", page, old, len(words))
		}
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := hw.NewMemory(4 * pages)
			m.AttachCaches(writers + 2)
			acct := &hw.FrameAcct{}
			partner := NewRegion(m, RData, pages)
			for pg := pages / 2; pg < pages; pg += 2 {
				lines, packed := packPage(pageOf(pg, oldGen))
				if _, err := partner.WritePage(pg, lines, packed, 0, acct); err != nil {
					t.Fatal(err)
				}
			}
			r := partner.Dup()

			var stop atomic.Bool
			var bg, wr sync.WaitGroup
			bg.Add(3)
			go func() { // reader: whole pages
				defer bg.Done()
				words := make([]uint32, hw.WordsPerPage)
				for !stop.Load() {
					for pg := 0; pg < pages; pg += 2 {
						buf, ok := readPage(r, pg)
						if !ok {
							continue
						}
						for i := range words {
							words[i] = uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 | uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24
						}
						check(t, pg, words)
					}
					runtime.Gosched()
				}
			}()
			go func() { // reader: word loads through the translation
				defer bg.Done()
				words := make([]uint32, hw.WordsPerPage)
				for !stop.Load() {
					for pg := 0; pg < pages; pg += 2 {
						pfn := r.Frame(pg)
						if pfn == hw.NoPFN {
							continue
						}
						for i := range words {
							words[i] = m.LoadWord(pfn, uint32(i))
						}
						check(t, pg, words)
					}
					runtime.Gosched()
				}
			}()
			go func() { // faulter: stores through the odd pages
				defer bg.Done()
				for i := 0; !stop.Load(); i++ {
					pg := 1 + 2*(i%(pages/2))
					pfn, writable, _, _, err := r.FillAccounted(pg, true, writers, acct)
					if err != nil || !writable {
						t.Errorf("store fault on page %d = (writable=%v, %v)", pg, writable, err)
						return
					}
					m.StoreWord(pfn, uint32(i%hw.WordsPerPage), uint32(i))
					runtime.Gosched()
				}
			}()
			for w := 0; w < writers; w++ {
				wr.Add(1)
				go func(w int) {
					defer wr.Done()
					for gen := 1; gen <= gens; gen++ {
						for pg := 2 * w; pg < pages; pg += 2 * writers {
							lines, packed := packPage(pageOf(pg, gen))
							if _, err := r.WritePage(pg, lines, packed, w, acct); err != nil {
								t.Errorf("WritePage(%d) generation %d: %v", pg, gen, err)
								return
							}
						}
						runtime.Gosched()
					}
				}(w)
			}
			wr.Wait()
			stop.Store(true)
			bg.Wait()

			for pg := 0; pg < pages; pg += 2 {
				if buf, ok := readPage(r, pg); !ok || !bytes.Equal(buf, pageOf(pg, gens)) {
					t.Errorf("page %d does not hold its last generation", pg)
				}
				if pfn := r.Frame(pg); m.Ref(pfn) != 1 {
					t.Errorf("page %d frame ref = %d after WritePage, want a sole owner", pg, m.Ref(pfn))
				}
				if buf, ok := readPage(partner, pg); pg >= pages/2 && (!ok || !bytes.Equal(buf, pageOf(pg, oldGen))) {
					t.Errorf("partner's page %d changed under the copy's WritePage", pg)
				}
			}
			if got, want := m.Copies.Load(), int64(0); got != want {
				t.Errorf("%d frame copies, want %d: a whole-page write over an alias needs no copy", got, want)
			}
			r.Detach()
			partner.Detach()
			if m.InUse() != 0 || acct.Used() != 0 {
				t.Errorf("after detach: %d frames in use, %d charged", m.InUse(), acct.Used())
			}
		})
	}
}
