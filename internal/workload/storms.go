package workload

import (
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/uspin"
)

// The storm drivers measure the de-serialized MP hot paths in isolation:
// each hammers exactly one substrate (frame allocator, process creation,
// trace ring, dispatcher) from a configurable number of processors, so the
// scaling benchmarks can show throughput holding up as NCPU grows. All but
// ResidentFaultStorm are deliberately free of share groups — the point is
// the contention on the machine-wide structures underneath; the resident
// storm is the exception, hammering the sharing protocol's own hot path.

// FaultStorm hammers the frame allocator: `workers` forked (fully private)
// processes each demand-fault pagesEach fresh pages through a bounded
// mmap/touch/munmap window. Every touch allocates a zero frame and every
// unmap frees a batch, so concurrent workers exercise the per-CPU frame
// caches in both directions. Ops = pages faulted.
func FaultStorm(cfg kernel.Config, workers, pagesEach int) Metrics {
	const window = 128 // pages per mapping; bounds resident memory per worker
	total := int64(workers * pagesEach)
	return runMeasured(cfg, total, func(c *kernel.Context, s *session) {
		s.start()
		for w := 0; w < workers; w++ {
			_, err := c.Fork("faulter", func(cc *kernel.Context) {
				left := pagesEach
				for left > 0 {
					n := window
					if n > left {
						n = left
					}
					va, err := cc.Mmap(n)
					if err != nil {
						panic(err)
					}
					for i := 0; i < n; i++ {
						cc.Store32(va+hw.VAddr(i*pageSize), uint32(i))
					}
					left -= n
					if err := cc.Munmap(va); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				panic(err)
			}
		}
		for w := 0; w < workers; w++ {
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
		}
		s.stop()
	})
}

// ResidentFaultStorm hammers the paper's §6.2 hot path in its purest form:
// the fault that finds its page already resident with the right permission.
// The creator maps a shared window far larger than the 64-entry TLB and
// touches every page resident, then `members` share-group siblings each
// perform touchesEach strided stores across the window. Every store misses
// the TLB (the working set is 8x the TLB) and re-enters the fault handler,
// which must find the pregion, find the cached frame, and return — no
// allocation, no copy. Throughput here is bounded purely by the fault
// path's synchronization. Ops = touches.
func ResidentFaultStorm(cfg kernel.Config, members, touchesEach int) Metrics {
	const window = 512 // pages; 8x the TLB, so resident touches still fault
	var rlocks, wlocks, sleeps, fast, slow, hits int64
	total := int64(members * touchesEach)
	m := runMeasured(cfg, total, func(c *kernel.Context, s *session) {
		va, err := c.Mmap(window)
		if err != nil {
			panic(err)
		}
		for i := 0; i < window; i++ {
			c.Store32(va+hw.VAddr(i*pageSize), uint32(i))
		}
		gate := uspin.Barrier{VA: dataBase, N: uint32(members) + 1}
		gate.Init(c)
		for mIdx := 0; mIdx < members; mIdx++ {
			c.Sproc("refaulter", func(cc *kernel.Context, arg int64) {
				gate.Enter(cc) // storm start
				p := int(arg) * 67
				for i := 0; i < touchesEach; i++ {
					p = (p + 67) % window // coprime stride: spreads the window
					cc.Store32(va+hw.VAddr(p*pageSize), uint32(i))
				}
				gate.Enter(cc) // storm done
			}, proc.PRSALL, int64(mIdx))
		}
		s.start()
		gate.Enter(c) // release the storm
		gate.Enter(c) // wait for every member
		s.stop()
		if sa := kernel.GroupOf(c.P); sa != nil {
			rlocks = sa.Acc.RLocks.Load()
			wlocks = sa.Acc.WLocks.Load()
			sleeps = sa.Acc.RSleeps.Load() + sa.Acc.WSleeps.Load()
			hits = sa.CacheHits.Load()
		}
		fast = c.S.Machine.Mem.FastFills.Load()
		slow = c.S.Machine.Mem.SlowFills.Load()
		for mIdx := 0; mIdx < members; mIdx++ {
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
		}
	})
	m.RLocks, m.WLocks, m.LockSleeps = rlocks, wlocks, sleeps
	m.FastFills, m.SlowFills, m.CacheHits = fast, slow, hits
	return m
}

// CreateStorm hammers process creation and teardown: `creators` forked
// processes each fork-and-wait perCreator no-op children. Creation
// allocates an image's worth of frames and exit frees them, all four
// per-CPU substrates light up at once. Ops = processes created.
func CreateStorm(cfg kernel.Config, creators, perCreator int) Metrics {
	total := int64(creators * perCreator)
	return runMeasured(cfg, total, func(c *kernel.Context, s *session) {
		s.start()
		for w := 0; w < creators; w++ {
			_, err := c.Fork("creator", func(cc *kernel.Context) {
				for i := 0; i < perCreator; i++ {
					if _, err := cc.Fork("noop", func(*kernel.Context) {}); err != nil {
						panic(err)
					}
					if _, _, err := cc.Wait(); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				panic(err)
			}
		}
		for w := 0; w < creators; w++ {
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
		}
		s.stop()
	})
}

// TraceStorm hammers the trace ring directly: `writers` concurrent
// recorders each append eventsEach events, writer w recording as CPU
// w%NCPU so the shards split the load exactly as the kernel's per-CPU
// instrumentation does. It bypasses the simulated kernel — the metric is
// the ring's own concurrency, host wall clock per recorded event.
// Ops = events recorded.
func TraceStorm(cfg kernel.Config, writers, eventsEach int) Metrics {
	if cfg.NCPU == 0 {
		cfg.NCPU = 4
	}
	size := cfg.TraceEvents
	if size == 0 {
		size = 4096
	}
	r := trace.NewMP(size, cfg.NCPU)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cpu := int32(w % cfg.NCPU)
			for i := 0; i < eventsEach; i++ {
				r.Record(trace.EvSyscall, int32(w), cpu, uint64(i), 0)
			}
		}(w)
	}
	wg.Wait()
	return Metrics{
		Wall: time.Since(t0),
		Ops:  int64(writers * eventsEach),
	}
}

// DispatchStorm hammers the dispatcher: `procs` independent processes each
// pass the preemption point yieldsEach times with their slices forced
// empty, so every pass rotates the CPU to a queued process. With procs
// twice NCPU the run queues never drain and every yield is a full
// enqueue-pick-dispatch cycle. Ops = yields.
func DispatchStorm(cfg kernel.Config, procs, yieldsEach int) Metrics {
	total := int64(procs * yieldsEach)
	s := newSession(cfg)
	var wg sync.WaitGroup
	s.start()
	for i := 0; i < procs; i++ {
		wg.Add(1)
		s.Sys.Start("yielder", func(cc *kernel.Context) {
			defer wg.Done()
			for n := 0; n < yieldsEach; n++ {
				cc.P.SliceLeft.Store(0)
				cc.S.Sched.Yield(cc.P)
			}
		})
	}
	wg.Wait()
	s.Sys.WaitIdle()
	s.stop()
	return s.metrics(total)
}
