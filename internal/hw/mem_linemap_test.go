package hw

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// refFrameZero is the full scan FrameZero was before the line map: all
// 1 024 words, whatever the map says.
func refFrameZero(m *Memory, pfn PFN) bool {
	f := m.frame(pfn)
	for i := range f {
		if atomic.LoadUint32(&f[i]) != 0 {
			return false
		}
	}
	return true
}

// The line map against a memory without one: the reference keeps a plain
// 4 KiB array per frame (as words, bytes little-endian in them, so a frame
// compares in one go), clears all of it on free and copies all of it on
// copy. After every step every live frame reads equal to its reference,
// all 1 024 words, and FrameZero says what that scan found; every frame
// just granted or freed is all zero by refFrameZero, with an empty map.
func TestLineMapMatchesFullClear(t *testing.T) {
	const (
		capacity = 8
		steps    = 6000
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory(capacity)
		m.AttachCaches(2)
		var ref [capacity]frameArray
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
				if lm := m.lines[got].Load(); lm != 0 || !refFrameZero(m, got) {
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
				_, n := span()
				desc = fmt.Sprintf("FillFrame(len=%d)", n)
				rng.Read(buf[:n])
				m.FillFrame(pfn, buf[:n])
				setBytes(pfn, 0, buf[:n])
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
					ref[pfn] = frameArray{}
					for i, p := range live {
						if p == pfn {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
					if lm := m.lines[pfn].Load(); lm != 0 || !refFrameZero(m, pfn) {
						t.Fatalf("seed %d step %d: freed frame %d has line map %#x and full-scan zero = %v", seed, step, pfn, lm, refFrameZero(m, pfn))
					}
				}
			}
			for _, p := range live {
				// Plain loads (nothing else is running), one comparison a frame.
				if got := m.frames[p].Load(); *got != ref[p] {
					w := 0
					for got[w] == ref[p][w] {
						w++
					}
					t.Fatalf("seed %d step %d, after %s on frame %d: frame %d word %d reads %#x, reference holds %#x",
						seed, step, desc, pfn, p, w, got[w], ref[p][w])
				}
				if got, want := m.FrameZero(p), ref[p] == (frameArray{}); got != want {
					t.Fatalf("seed %d step %d, after %s on frame %d: FrameZero(%d) = %v, the full scan says %v (line map %#x)",
						seed, step, desc, pfn, p, got, want, m.lines[p].Load())
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
						cp, err := m.CopyFrame(mp.pfn)
						if err != nil {
							fail("CopyFrame: %v", err)
						} else {
							for w, v := range before {
								if got := m.LoadWord(cp, uint32(w)); got < v {
									fail("copy of frame %d word %d reads %d, the source already read %d before the copy began", mp.pfn, w, got, v)
									break
								}
							}
							m.DecRef(cp)
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
					m.DecRef(old.pfn)
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
