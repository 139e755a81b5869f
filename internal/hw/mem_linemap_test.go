package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pageWords is a frame's words as one value, so a frame compares in one go.
type pageWords [WordsPerPage]uint32

// wordAt reads word w of pfn straight from its line table, zero where the
// frame has no table or the line no storage.
func wordAt(m *Memory, pfn PFN, w uint32) uint32 {
	t := m.meta(pfn).data.Load()
	if t == nil {
		return 0
	}
	l := t[w>>lineWordsShift].Load()
	if l == nil {
		return 0
	}
	return atomic.LoadUint32(&l[w&(lineWords-1)])
}

// frameWords is every word of pfn by wordAt.
func frameWords(m *Memory, pfn PFN) (f pageWords) {
	for w := range f {
		f[w] = wordAt(m, pfn, uint32(w))
	}
	return f
}

// unmintedMarks is the lines pfn's map marks that have no storage: the
// stronger line-map invariant says none.
func unmintedMarks(m *Memory, pfn PFN) uint64 {
	md := m.meta(pfn)
	lm := md.lines.Load()
	t := md.data.Load()
	var bad uint64
	for i := range PageSize / LineSize {
		if lm&(1<<i) != 0 && (t == nil || t[i].Load() == nil) {
			bad |= 1 << i
		}
	}
	return bad
}

// refFrameZero is the full scan FrameZero was before the line map: all
// 1 024 words, whatever the map says.
func refFrameZero(m *Memory, pfn PFN) bool {
	return frameWords(m, pfn) == pageWords{}
}

// The line map against a memory without one: the reference keeps a plain
// 4 KiB array per frame (as words, bytes little-endian in them, so a frame
// compares in one go), clears all of it on free and copies all of it on
// copy. After every step every line a live frame marks has storage, the
// frame reads equal to its reference, all 1 024 words, and FrameZero says
// what that scan found; every frame just granted or freed is all zero by
// refFrameZero, with an empty map.
func TestLineMapMatchesFullClear(t *testing.T) {
	const capacity = 8
	steps := 6000
	if testing.Short() {
		steps = 100 // sequential: the race detector has nothing to see
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory(capacity)
		m.AttachCaches(2)
		var ref [capacity]pageWords
		var refs [capacity]int
		var live []PFN
		granted := func(pfn PFN, step int, by string) {
			t.Helper()
			if refs[pfn] != 0 {
				t.Fatalf("seed %d step %d: %s granted live frame %d", seed, step, by, pfn)
			}
			refs[pfn] = 1
			live = append(live, pfn)
		}
		setBytes := func(pfn PFN, off int, src []byte) {
			for i, b := range src {
				w, shift := &ref[pfn][(off+i)>>2], uint((off+i)&3)*8
				*w = *w&^(0xff<<shift) | uint32(b)<<shift
			}
		}
		// Values are zero a quarter of the time, so written frames go back to
		// all zero often enough for FrameZero to have both answers.
		value := func() uint32 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return rng.Uint32()
		}
		// Ranges favour short ones near a line boundary: the head and tail
		// that mark a line they barely touch.
		span := func() (off, n int) {
			switch rng.Intn(4) {
			case 0:
				off = rng.Intn(PageSize + 1)
				n = rng.Intn(PageSize - off + 1)
			case 1:
				return 0, rng.Intn(PageSize + 1)
			default:
				off = rng.Intn(PageSize/64)*64 + 60 + rng.Intn(8) - 4
				n = rng.Intn(min(140, PageSize-off) + 1)
			}
			return off, n
		}
		buf := make([]byte, PageSize)
		for step := 0; step < steps; step++ {
			cpu := rng.Intn(3) - 1
			op := rng.Intn(12)
			if len(live) == 0 {
				op = 0
			}
			var pfn PFN
			if len(live) > 0 {
				pfn = live[rng.Intn(len(live))]
			}
			desc := ""
			switch op {
			case 0, 1:
				desc = "AllocOn"
				got, err := m.AllocOn(cpu)
				if err != nil {
					if len(live) != capacity {
						t.Fatalf("seed %d step %d: AllocOn: %v with %d of %d frames live", seed, step, err, len(live), capacity)
					}
					break
				}
				if lm := m.meta(got).lines.Load(); lm != 0 || !refFrameZero(m, got) {
					t.Fatalf("seed %d step %d: frame %d granted with line map %#x and full-scan zero = %v", seed, step, got, lm, refFrameZero(m, got))
				}
				granted(got, step, desc)
			case 2:
				desc = "StoreWord"
				w, v := uint32(rng.Intn(WordsPerPage)), value()
				m.StoreWord(pfn, w, v)
				ref[pfn][w] = v
			case 3:
				desc = "CASWord"
				w, v := uint32(rng.Intn(WordsPerPage)), value()
				old := ref[pfn][w]
				if rng.Intn(4) == 0 {
					old++ // a CAS that must fail and change nothing
				}
				if got, want := m.CASWord(pfn, w, old, v), old == ref[pfn][w]; got != want {
					t.Fatalf("seed %d step %d: CASWord = %v, want %v", seed, step, got, want)
				} else if got {
					ref[pfn][w] = v
				}
			case 4:
				desc = "AddWord"
				w, v := uint32(rng.Intn(WordsPerPage)), value()
				ref[pfn][w] += v
				if got, want := m.AddWord(pfn, w, v), ref[pfn][w]; got != want {
					t.Fatalf("seed %d step %d: AddWord = %#x, want %#x", seed, step, got, want)
				}
			case 5, 6:
				off, n := span()
				desc = fmt.Sprintf("WriteBytes(off=%d, len=%d)", off, n)
				rng.Read(buf[:n])
				if rng.Intn(4) == 0 {
					clear(buf[:n])
				}
				m.WriteBytes(pfn, uint32(off), buf[:n])
				setBytes(pfn, off, buf[:n])
			case 7:
				desc = "FillFrame"
				rng.Read(buf)
				// Random bytes leave no line zero, and a packed page holds
				// only non-zero lines: zero a random subset, sometimes all.
				if rng.Intn(4) == 0 {
					clear(buf)
				} else {
					for i := 0; i < PageSize; i += LineSize {
						if rng.Intn(2) == 0 {
							clear(buf[i : i+LineSize])
						}
					}
				}
				lines, packed := packPage(buf)
				m.FillFrame(pfn, lines, packed)
				setBytes(pfn, 0, buf)
			case 8:
				desc = "CopyFrameOn"
				got, err := m.CopyFrameOn(pfn, cpu)
				if err != nil {
					break
				}
				granted(got, step, desc)
				ref[got] = ref[pfn]
			case 9:
				desc = "IncRef"
				m.IncRef(pfn)
				refs[pfn]++
			default:
				desc = "DecRefOn"
				refs[pfn]--
				if got := m.DecRefOn(pfn, cpu); int(got) != refs[pfn] {
					t.Fatalf("seed %d step %d: DecRefOn = %d, want %d", seed, step, got, refs[pfn])
				}
				if refs[pfn] == 0 {
					ref[pfn] = pageWords{}
					for i, p := range live {
						if p == pfn {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					if lm := m.meta(pfn).lines.Load(); lm != 0 || !refFrameZero(m, pfn) {
						t.Fatalf("seed %d step %d: freed frame %d has line map %#x and full-scan zero = %v", seed, step, pfn, lm, refFrameZero(m, pfn))
					}
				}
			}
			for _, p := range live {
				if bad := unmintedMarks(m, p); bad != 0 {
					t.Fatalf("seed %d step %d, after %s on frame %d: frame %d marks lines %#x that have no storage", seed, step, desc, pfn, p, bad)
				}
				// One comparison a frame (nothing else is running).
				if got := frameWords(m, p); got != ref[p] {
					w := 0
					for got[w] == ref[p][w] {
						w++
					}
					t.Fatalf("seed %d step %d, after %s on frame %d: frame %d word %d reads %#x, reference holds %#x",
						seed, step, desc, pfn, p, w, got[w], ref[p][w])
				}
				if got, want := m.FrameZero(p), ref[p] == (pageWords{}); got != want {
					t.Fatalf("seed %d step %d, after %s on frame %d: FrameZero(%d) = %v, the full scan says %v (line map %#x)",
						seed, step, desc, pfn, p, got, want, m.meta(p).lines.Load())
				}
			}
		}
	}
}

// The order of mark and store is invisible to one goroutine; this is the
// test that holds it. Four writers store rising sequence numbers into the
// published frames, each into its own words of every line and mostly into
// lines nobody has written yet, since the frames are recycled as fast as
// they fill. A copier reads a frame, copies it and requires of every word
// of the copy the value it had already read or a later one: a word stored
// before its line is marked is missing from a copy snapshotted in between.
// A recycler allocates, requires all zero by the full scan, publishes,
// unpublishes behind the RWMutex that stands in for the shootdown (as in
// TestCopyFrameUnderConcurrentSourceWriter) and frees: a mark lost to a
// racing mark, or a map emptied after its frame was given away, leaves a
// line the free does not clear. Copies and recycled frames come from the
// same pool, so each side is granted what the other just freed.
func TestLineMapStormRace(t *testing.T) {
	const (
		writers = 4
		slots   = 3
	)
	rounds := 8000
	if testing.Short() {
		rounds = 1000
	}
	type mapping struct {
		pfn PFN
		gen int
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := NewMemory(slots + 2)
			var pte [slots]atomic.Pointer[mapping]
			var tlb sync.RWMutex
			var stop atomic.Bool
			var wg sync.WaitGroup
			fail := func(format string, args ...any) {
				if !stop.Swap(true) {
					t.Errorf(format, args...)
				}
			}

			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var wrote [slots]int // generation this writer last swept
					var le [4]byte
					for seq := uint32(1); !stop.Load(); {
						for i := range pte {
							tlb.RLock()
							mp := pte[i].Load()
							if mp == nil || wrote[i] == mp.gen {
								tlb.RUnlock()
								continue
							}
							wrote[i] = mp.gen
							// One word of each line, starting a quarter of the
							// way round from the next writer.
							for n := 0; n < 64; n, seq = n+1, seq+1 {
								line := (n + g*16) % 64
								w := uint32(line<<lineWordsShift + 4*(n%4) + g)
								switch n % 3 {
								case 0:
									m.StoreWord(mp.pfn, w, seq)
								case 1:
									if !m.CASWord(mp.pfn, w, m.LoadWord(mp.pfn, w), seq) {
										fail("writer %d lost a CAS on a word only it writes", g)
									}
								case 2:
									binary.LittleEndian.PutUint32(le[:], seq)
									m.WriteBytes(mp.pfn, 4*w, le[:])
								}
							}
							tlb.RUnlock()
						}
						runtime.Gosched()
					}
				}(g)
			}

			wg.Add(1)
			go func() { // the copier
				defer wg.Done()
				var before [WordsPerPage]uint32
				for i := 0; !stop.Load(); i = (i + 1) % slots {
					tlb.RLock()
					if mp := pte[i].Load(); mp != nil {
						for w := range before {
							before[w] = m.LoadWord(mp.pfn, uint32(w))
						}
						cp, err := m.CopyFrameOn(mp.pfn, -1)
						if err != nil {
							fail("CopyFrame: %v", err)
						} else {
							for w, v := range before {
								if got := m.LoadWord(cp, uint32(w)); got < v {
									fail("copy of frame %d word %d reads %d, the source already read %d before the copy began", mp.pfn, w, got, v)
									break
								}
							}
							m.DecRefs([]PFN{cp})
						}
					}
					tlb.RUnlock()
					runtime.Gosched()
				}
			}()

			// The recycler, on the test's goroutine.
			for r := 0; r < rounds+slots && !stop.Load(); r++ {
				i := r % slots
				if old := pte[i].Load(); old != nil {
					tlb.Lock() // shoot down, then free
					pte[i].Store(nil)
					tlb.Unlock()
					m.DecRefs([]PFN{old.pfn})
				}
				if r >= rounds {
					continue // the last lap only drains
				}
				pfn, err := m.Alloc()
				if err != nil {
					fail("Alloc: %v", err)
					break
				}
				if !refFrameZero(m, pfn) {
					fail("round %d: frame %d granted with a non-zero word", r, pfn)
					break
				}
				pte[i].Store(&mapping{pfn, r + 1})
				runtime.Gosched()
			}
			stop.Store(true)
			wg.Wait()
			if got := m.InUse(); got != 0 && !t.Failed() {
				t.Errorf("InUse = %d after the storm, want 0", got)
			}
		})
	}
}

// ReadFrame against ReadBytes of the whole page over the line-map states a
// frame passes through: never written, one line, several runs (the first
// and last line among them), a line written back to zero, every line, and
// freed and granted again. The destination holds garbage before each read,
// which ReadFrame must append after and leave alone, and its packed form
// must unpack to ReadBytes's page with a mask of exactly the non-zero lines.
func TestReadFrameMatchesReadBytes(t *testing.T) {
	m := NewMemory(2)
	m.AttachCaches(1)
	pfn, err := m.AllocOn(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	garbage := bytes.Repeat([]byte{0xa5}, 13)
	check := func(state string) {
		t.Helper()
		m.ReadBytes(pfn, 0, want)
		lines, out := m.ReadFrame(pfn, append(make([]byte, 0, 2*PageSize), garbage...))
		if !bytes.Equal(out[:len(garbage)], garbage) {
			t.Errorf("%s: ReadFrame wrote over what the destination held", state)
		}
		if wantLines := nonZeroLines(want); lines != wantLines {
			t.Errorf("%s (line map %#x): ReadFrame mask %#x, non-zero lines %#x", state, m.meta(pfn).lines.Load(), lines, wantLines)
		}
		if got := unpackPage(lines, out[len(garbage):]); !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Errorf("%s (line map %#x): ReadFrame byte %d = %#x, ReadBytes %#x", state, m.meta(pfn).lines.Load(), i, got[i], want[i])
		}
	}
	check("never written")
	m.StoreWord(pfn, 17<<lineWordsShift+3, 0xdeadbeef)
	check("one line")
	rng := rand.New(rand.NewSource(1988))
	page := make([]byte, PageSize)
	rng.Read(page)
	for _, span := range [][2]int{{0, 64}, {64*5 - 3, 140}, {64 * 30, 64}, {64*40 + 60, 8}, {PageSize - 1, 1}} {
		m.WriteBytes(pfn, uint32(span[0]), page[span[0]:span[0]+span[1]])
	}
	check("several runs")
	m.WriteBytes(pfn, 64*30, make([]byte, 64))
	check("several runs, one written back to zero")
	m.WriteBytes(pfn, 0, page)
	check("every line")
	m.DecRefOn(pfn, 0)
	if again, err := m.AllocOn(0); err != nil || again != pfn {
		t.Fatalf("AllocOn after the free = %d, %v; want frame %d back from the cache", again, err, pfn)
	}
	check("granted again")
	m.AddWord(pfn, WordsPerPage-1, 7)
	check("granted again, last line written")
}

// ReadFrame while writers mark and store lines nobody has written yet. Each
// round grants a frame, and writers fill it a line at a time, each line by
// one writer, in a random line order, while a reader reads it over and
// over, appending to a buffer of garbage, and unpacks what it appended:
// every word of every copy must hold its value before the round (zero) or
// the round's. Once the writers are done a
// copy must hold every value. The RWMutex stands in for the shootdown that
// precedes the free, as in TestLineMapStormRace.
func TestReadFrameStormRace(t *testing.T) {
	const writers = 3
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	value := func(round, w int) uint32 { return 1<<31 | uint32(round*WordsPerPage+w) }
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			type mapping struct {
				pfn   PFN
				round int
			}
			m := NewMemory(2)
			var pte atomic.Pointer[mapping]
			var tlb sync.RWMutex
			var stop atomic.Bool
			var reads atomic.Int64
			fail := func(format string, args ...any) {
				if !stop.Swap(true) {
					t.Errorf(format, args...)
				}
			}
			// words checks a copy: each word is its round's value, or zero
			// while zero is allowed.
			words := func(buf []byte, round int, zeroOK bool) {
				for w := 0; w < WordsPerPage; w++ {
					if got, v := binary.LittleEndian.Uint32(buf[4*w:]), value(round, w); got != v && (got != 0 || !zeroOK) {
						fail("round %d word %d reads %#x, want %#x or, before its store, 0 (allowed: %v)", round, w, got, v, zeroOK)
						return
					}
				}
			}

			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() { // the reader
				defer rwg.Done()
				garbage := bytes.Repeat([]byte{0xff}, 8)
				buf := make([]byte, 0, PageSize+len(garbage))
				for !stop.Load() {
					tlb.RLock()
					if mp := pte.Load(); mp != nil {
						lines, out := m.ReadFrame(mp.pfn, append(buf[:0], garbage...))
						words(unpackPage(lines, out[len(garbage):]), mp.round, true)
						reads.Add(1)
					}
					tlb.RUnlock()
					runtime.Gosched()
				}
			}()

			rng := rand.New(rand.NewSource(int64(procs)))
			for r := 0; r < rounds && !stop.Load(); r++ {
				pfn, err := m.Alloc()
				if err != nil {
					fail("Alloc: %v", err)
					break
				}
				pte.Store(&mapping{pfn, r})
				order := rng.Perm(64)
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var le [4]byte
						for k := g; k < len(order); k += writers {
							for i := 0; i < 1<<lineWordsShift; i++ {
								w := uint32(order[k]<<lineWordsShift + i)
								switch i % 3 {
								case 0:
									m.StoreWord(pfn, w, value(r, int(w)))
								case 1:
									if !m.CASWord(pfn, w, 0, value(r, int(w))) {
										fail("writer %d lost a CAS on a word only it writes", g)
									}
								case 2:
									binary.LittleEndian.PutUint32(le[:], value(r, int(w)))
									m.WriteBytes(pfn, 4*w, le[:])
								}
							}
							runtime.Gosched()
						}
					}(g)
				}
				wg.Wait()
				words(unpackPage(m.ReadFrame(pfn, nil)), r, false)
				tlb.Lock() // shoot down, then free
				pte.Store(nil)
				tlb.Unlock()
				m.DecRefs([]PFN{pfn})
			}
			stop.Store(true)
			rwg.Wait()
			if reads.Load() == 0 && !t.Failed() {
				t.Error("the reader never copied a published frame")
			}
		})
	}
}
