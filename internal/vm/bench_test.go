package vm

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
)

// BenchmarkFaultPathParallel is the fault path's host cost under
// contention: every goroutine plays one CPU (its own id, its own frame
// cache) and, per op, allocates and frees a frame charged to one shared
// account and takes a resident fault on one shared region. Run it at
// -cpu 1,2,4: the parallel-to-serial ns/op ratio is what the CPUs pay for
// writing each other's cache lines — the shared reservations (the frame
// count, the account's use) and anything else the path stores to.
// Exported API only, so it also runs against an older tree.
func BenchmarkFaultPathParallel(b *testing.B) {
	const pages = 64
	ncpu := runtime.GOMAXPROCS(0)
	m := hw.NewMemory(pages + 64*ncpu)
	m.AttachCaches(ncpu)
	acct := &hw.FrameAcct{}
	r := NewRegion(m, RData, pages)
	for i := 0; i < pages; i++ {
		if _, _, _, _, err := r.FillAccounted(i, true, 0, acct); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cpu := int(next.Add(1) - 1)
		idx := cpu * 7
		for pb.Next() {
			pfn, err := m.AllocFor(cpu, acct)
			if err != nil {
				b.Error(err)
				return
			}
			m.DecRefOn(pfn, cpu)
			if _, _, res, _, err := r.FillAccounted(idx%pages, true, cpu, acct); err != nil || res != FillCached {
				b.Errorf("resident fault: %v, %v", res, err)
				return
			}
			idx++
		}
	})
}
