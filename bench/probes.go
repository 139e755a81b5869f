package main

import (
	"sync"
	"time"

	irix "repro"
	"repro/internal/ckpt"
	"repro/internal/hw"
	"repro/internal/klock"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Probes time one public function of one layer in isolation, from outside:
// the host cost of the building blocks the workloads' host time is made of.
// Each probe runs probeBatches batches and reports host time per call for
// each batch; the metric is the median batch.

const probeBatches = 7

// batches runs fn (n calls, returns the time they took) probeBatches times
// after one discarded batch, and returns host ns per call for each.
func batches(n int, fn func(n int) time.Duration) []float64 {
	fn(n)
	out := make([]float64, probeBatches)
	for i := range out {
		out[i] = float64(fn(n)) / float64(n)
	}
	return out
}

// loop times n calls of fn.
func loop(fn func()) func(int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
}

// inProcess times n calls of fn made by a simulated process on a fresh
// standard machine; boot and teardown stay outside the clock.
func inProcess(setup func(c *irix.Ctx), fn func(c *irix.Ctx)) func(int) time.Duration {
	return func(n int) time.Duration {
		var d time.Duration
		sys := irix.New(machineConfig())
		sys.Start("probe", func(c *irix.Ctx) {
			if setup != nil {
				setup(c)
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn(c)
			}
			d = time.Since(t0)
		})
		sys.WaitIdle()
		return d
	}
}

// idleThread stands in for a process on uncontended lock paths, where the
// lock never sleeps.
type idleThread struct{}

func (idleThread) Block(string) {}
func (idleThread) Unblock()     {}

func scaled(n int, scale float64) int {
	n = int(float64(n) * scale)
	if n < 4 {
		n = 4
	}
	return n
}

// runProbes returns the per-batch samples of every probe metric.
func runProbes(scale float64) map[string][]float64 {
	out := map[string][]float64{}

	// sched: two processes on one CPU, each forcing its slice empty and
	// yielding — every yield is a full simulated context switch.
	out["sched.yield_ns"] = batches(scaled(20000, scale), func(n int) time.Duration {
		cfg := machineConfig()
		cfg.NCPU = 1
		sys := irix.New(cfg)
		t0 := time.Now()
		for i := 0; i < 2; i++ {
			sys.Start("yielder", func(c *irix.Ctx) {
				for k := 0; k < n/2; k++ {
					c.P.SliceLeft.Store(0)
					c.S.Sched.Yield(c.P)
				}
			})
		}
		sys.WaitIdle()
		return time.Since(t0)
	})

	// hw: the frame allocator through a per-CPU cache.
	mem := hw.NewMemory(4096)
	mem.AttachCaches(4)
	out["hw.alloc_free_ns"] = batches(scaled(200000, scale), loop(func() {
		pfn, _ := mem.AllocOn(0)
		mem.DecRefOn(pfn, 0)
	}))
	src, _ := mem.AllocOn(0)
	out["hw.copy_frame_ns"] = batches(scaled(8000, scale), loop(func() {
		pfn, _ := mem.CopyFrameOn(src, 0)
		mem.DecRefOn(pfn, 0)
	}))

	// vm: lookup in a 1000-entry pregion index, the two fill paths, and a
	// lazy clone that exits untouched.
	list := make([]*vm.PRegion, 0, 1000)
	for i := 0; i < 1000; i++ {
		list = vm.Insert(list, &vm.PRegion{Reg: vm.NewRegion(mem, vm.RShm, 1), Base: hw.VAddr(0x1000_0000 + i*2*hw.PageSize)})
	}
	i := 0
	out["vm.find_1k_ns"] = batches(scaled(500000, scale), loop(func() {
		i = (i + 389) % 1000
		vm.Find(list, hw.VAddr(0x1000_0000+i*2*hw.PageSize))
	}))
	out["vm.fill_zero_ns"] = batches(scaled(2048, scale), func(n int) time.Duration {
		reg := vm.NewRegion(mem, vm.RShm, n)
		t0 := time.Now()
		for pg := 0; pg < n; pg++ {
			reg.FillOn(pg, true, 0)
		}
		d := time.Since(t0)
		reg.Detach()
		return d
	})
	res := vm.NewRegion(mem, vm.RShm, 64)
	for pg := 0; pg < 64; pg++ {
		res.FillOn(pg, true, 0)
	}
	out["vm.fill_resident_ns"] = batches(scaled(1000000, scale), loop(func() {
		i = (i + 7) & 63
		res.FillOn(i, true, 0)
	}))
	out["vm.duplazy_drop_ns"] = batches(scaled(40000, scale), loop(func() {
		res.DupLazy().Detach()
	}))
	res.Detach()

	// klock: the share block's lock, uncontended, read side and update side.
	var mr klock.MRLock
	out["klock.mr_rlock_ns"] = batches(scaled(1000000, scale), loop(func() {
		mr.RUnlockOn(mr.RLockOn(idleThread{}, 1))
	}))
	out["klock.mr_wlock_ns"] = batches(scaled(400000, scale), loop(func() {
		mr.Lock(idleThread{})
		mr.Unlock()
	}))

	// kernel: the null gateway crossing, a Stats() snapshot, and a boot.
	out["kernel.getpid_ns"] = batches(scaled(200000, scale), inProcess(nil, func(c *irix.Ctx) { c.Getpid() }))
	idle := irix.New(machineConfig())
	out["kernel.stats_ns"] = batches(scaled(20000, scale), loop(func() { idle.Stats() }))
	boot := batches(scaled(200, scale), loop(func() {
		sys := irix.New(machineConfig())
		sys.Start("empty", func(*irix.Ctx) {})
		sys.WaitIdle()
	}))
	for k := range boot {
		boot[k] /= 1e3 // reported in µs
	}
	out["kernel.boot_us"] = boot

	// ipc and fs: one 4 KiB write+read through a pipe, one open+close.
	var rd, wr int
	out["ipc.pipe_rw_4k_ns"] = batches(scaled(800, scale), inProcess(
		func(c *irix.Ctx) { rd, wr, _ = c.Pipe() },
		func(c *irix.Ctx) {
			c.Write(wr, irix.DataBase, 4096)
			c.Read(rd, irix.DataBase+8192, 4096)
		}))
	out["fs.open_close_ns"] = batches(scaled(40000, scale), inProcess(
		func(c *irix.Ctx) { c.Creat("/probe", 0o644) },
		func(c *irix.Ctx) {
			fd, _ := c.Open("/probe", irix.ORead, 0)
			c.Close(fd)
		}))

	// ckpt: encode and decode of a real image (a driver and two members
	// with 128 resident pages each), per KiB of encoded image.
	img := probeImage()
	if img == nil {
		return out // no image: the ckpt and trace probes are missing, which the run reports
	}
	enc := img.Encode()
	kib := float64(len(enc)) / 1024
	perKiB := func(s []float64) []float64 {
		for k := range s {
			s[k] /= kib
		}
		return s
	}
	out["ckpt.encode_ns_per_kb"] = perKiB(batches(scaled(16, scale), loop(func() { img.Encode() })))
	out["ckpt.decode_ns_per_kb"] = perKiB(batches(scaled(16, scale), loop(func() { ckpt.Decode(enc) })))

	// trace: one event into an enabled ring, from four recorders at once as
	// four CPUs would.
	ring := trace.NewMP(traceRingEvents, 4)
	out["trace.record_ns"] = batches(scaled(200000, scale), func(n int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for cpu := int32(0); cpu < 4; cpu++ {
			wg.Add(1)
			go func(cpu int32) {
				defer wg.Done()
				for k := 0; k < n/4; k++ {
					ring.Record(trace.EvSyscall, cpu, cpu, uint64(k), 0)
				}
			}(cpu)
		}
		wg.Wait()
		return time.Since(t0)
	})
	return out
}

// probeImage checkpoints a small quiescent group.
func probeImage() *irix.CkptImage {
	var img *irix.CkptImage
	sys := irix.New(machineConfig())
	sys.Start("probe-ckpt", func(c *irix.Ctx) {
		const members, pages = 2, 128
		base, _ := c.Mmap(members * pages)
		pids := make([]int, members)
		for m := range pids {
			pids[m], _ = c.Sproc("holder", func(cc *irix.Ctx, arg int64) {
				cc.Blockproc(0) // parked until every stack is carved
				for pg := 0; pg < pages; pg++ {
					cc.Store32(base+irix.VAddr((int(arg)*pages+pg)*irix.PageSize), uint32(arg)<<16|uint32(pg)|1)
				}
				cc.Add32(irix.DataBase, 1)
				cc.Blockproc(0)
			}, irix.PRSALL, int64(m))
		}
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for {
			if v, _ := c.Load32(irix.DataBase); v == members {
				break
			}
			c.Getpid()
		}
		img, _, _ = c.Ckpt(irix.CkptOpts{Passes: 1})
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for range pids {
			c.Wait()
		}
	})
	sys.WaitIdle()
	return img
}
