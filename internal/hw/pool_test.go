package hw

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestDryPoolStormRace hammers a memory smaller than its CPUs' caches can
// hold from eight CPUs at once, so the pool is dry most of the time and
// frames move by refills, drains and scavenges of other caches. The
// reservation counter must guarantee progress and exact conservation:
// every frame ends in the pool's free list, never used, or in a cache.
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
			var wg sync.WaitGroup
			for cpu := 0; cpu < ncpu; cpu++ {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					var held []PFN
					for i := 0; i < iters; i++ {
						if len(held) < 8 {
							if pfn, err := m.AllocOn(cpu); err == nil {
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
		})
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
