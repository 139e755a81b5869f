package hw

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDryPoolStormRace hammers a memory smaller than its CPUs' caches can
// hold from eight CPUs at once, so the pool is dry much of the time and
// frames move by refills, drains and scavenges of other caches, while a
// ninth goroutine keeps draining the caches and giving the pool's free
// storage back to spare. The reservation counter must guarantee progress
// and exact conservation: every frame ends in the pool's free list, never
// used, or in a cache. Every frame held is written, and every grant must
// read all zero, whichever table its first write minted it from.
func TestDryPoolStormRace(t *testing.T) {
	const (
		ncpu   = 8
		frames = 96 // six refill batches for eight caches
		iters  = 300
	)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := NewMemory(frames)
			m.AttachCaches(ncpu)
			var done atomic.Bool
			released := make(chan struct{})
			go func() {
				defer close(released)
				for !done.Load() {
					m.ReclaimCaches() // so the pool has frames to release
					m.ReleaseFree()
					runtime.Gosched()
				}
			}()
			var wg sync.WaitGroup
			for cpu := 0; cpu < ncpu; cpu++ {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(cpu)))
					var held []PFN
					for i := 0; i < iters; i++ {
						if i%16 == 0 {
							runtime.Gosched() // let the releaser in at GOMAXPROCS=1
						}
						for _, p := range held {
							m.StoreWord(p, uint32(rng.Intn(WordsPerPage)), uint32(i+1))
						}
						if len(held) < 8 {
							if pfn, err := m.AllocOn(cpu); err == nil {
								if !refFrameZero(m, pfn) {
									t.Errorf("CPU %d was granted frame %d holding a non-zero word", cpu, pfn)
								}
								held = append(held, pfn)
								continue
							}
						}
						if len(held) > 0 {
							m.DecRefOn(held[len(held)-1], cpu)
							held = held[:len(held)-1]
						}
					}
					for _, p := range held {
						m.DecRefOn(p, cpu)
					}
				}(cpu)
			}
			wg.Wait()
			done.Store(true)
			<-released
			if m.InUse() != 0 {
				t.Fatalf("InUse = %d after all frees", m.InUse())
			}
			if a, f := m.Allocs.Load(), m.Frees.Load(); a != f {
				t.Fatalf("allocs(%d) != frees(%d)", a, f)
			}
			pooled := len(m.pool.free) + frames - m.pool.fresh
			if total := pooled + m.CachedFrames(); total != frames {
				t.Fatalf("pool free+fresh+cached = %d, want %d", total, frames)
			}
			m.ReleaseFree()
			for _, pfn := range m.pool.free {
				if m.meta(pfn).data.Load() != nil {
					t.Fatalf("frame %d on the pool's free list keeps its storage after ReleaseFree", pfn)
				}
			}
		})
	}
}

// TestReleasedStorageIsReused: the line tables of the frames one memory
// frees and releases are what the next memory's first writes get, all
// zero, and a frame still held keeps its table and what was written to it.
// One P and no collection keep every table put into spare within reach of
// a Get.
func TestReleasedStorageIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for spare.Get() != nil {
	}
	const n = 64
	a := NewMemory(n)
	var pfns []PFN
	for i := range n {
		pfn, err := a.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		a.StoreWord(pfn, uint32(i*16), uint32(i+1))
		pfns = append(pfns, pfn)
	}
	kept, keptTab := pfns[0], a.meta(pfns[0]).data.Load()
	freed := map[*lineTable]bool{}
	for _, p := range pfns[1:] {
		freed[a.meta(p).data.Load()] = true
		a.DecRefs([]PFN{p})
	}
	a.ReleaseFree()
	if a.meta(kept).data.Load() != keptTab || a.LoadWord(kept, 0) != 1 {
		t.Fatalf("held frame %d lost its storage or its word across ReleaseFree", kept)
	}
	b := NewMemory(n - 1)
	for range n - 1 {
		pfn, err := b.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if b.meta(pfn).data.Load() != nil {
			t.Fatalf("frame %d of the second memory has storage before its first write", pfn)
		}
		b.StoreWord(pfn, 0, 0)
		f := b.meta(pfn).data.Load()
		if !freed[f] {
			t.Fatalf("frame %d of the second memory got storage the first did not release", pfn)
		}
		delete(freed, f)
		if !refFrameZero(b, pfn) {
			t.Fatalf("frame %d of the second memory reads non-zero", pfn)
		}
	}
}

// TestReclaimCachesReturnsWhatItMoved: ReclaimCaches reports exactly the
// frames it took out of the caches, every one of them lands in the pool,
// and no cache keeps a frame.
func TestReclaimCachesReturnsWhatItMoved(t *testing.T) {
	m := NewMemory(128)
	m.AttachCaches(4)
	var frames []PFN
	for i := 0; i < 20; i++ {
		pfn, err := m.AllocOn(3)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		frames = append(frames, pfn)
	}
	for _, p := range frames {
		m.DecRefOn(p, 3)
	}
	cached, pooled := m.CachedFrames(), len(m.pool.free)
	moved := m.ReclaimCaches()
	if moved == 0 || moved != cached {
		t.Fatalf("reclaim moved %d frames; the caches held %d", moved, cached)
	}
	if n := m.CachedFrames(); n != 0 {
		t.Fatalf("%d frames still cached after the reclaim", n)
	}
	if got := len(m.pool.free); got != pooled+moved {
		t.Fatalf("pool holds %d recycled frames, want %d + %d", got, pooled, moved)
	}
	if got := m.ReclaimedFrames.Load(); got != int64(moved) {
		t.Fatalf("ReclaimedFrames = %d, want %d", got, moved)
	}
}
