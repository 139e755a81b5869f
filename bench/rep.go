package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	irix "repro"
	"repro/internal/core"
	"repro/internal/kernel"
)

// machineConfig is the standard experiment machine every workload boots.
func machineConfig() irix.Config {
	return irix.Config{NCPU: 4, MemFrames: 16384, TimeSlice: 2000}
}

// traceRingEvents is the kernel event ring's per-CPU capacity in a traced
// rep. The ring carries no timestamps, so its events are only counted.
const traceRingEvents = 4096

// counts is a flat snapshot of every counter the per-layer metrics read.
// Keys are private to this file and derive(); all values are cumulative, so
// a measured section is end minus begin.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) sub(o counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// snapSystem reads one system's counters from outside: Stats(), the
// per-CPU odometers, and the machine's shootdown count.
func snapSystem(s *kernel.System) counts {
	st := s.Stats()
	c := counts{
		"dispatches": float64(st.Dispatches), "preemptions": float64(st.Preemptions),
		"steals":       float64(st.Steals),
		"frame_allocs": float64(st.FrameAllocs), "frame_copies": float64(st.FrameCopies),
		"frame_cache_hits": float64(st.CacheHits),
		"fast_fills":       float64(st.FastFills), "slow_fills": float64(st.SlowFills),
		"lazy_dups": float64(st.LazyDups), "lazy_breaks": float64(st.LazyBreaks),
		"lazy_drops": float64(st.LazyDrops), "lazy_break_pages": float64(st.LazyBreakPages),
		"restarts": float64(st.SyscallRestarts),
		"blocks":   float64(st.ProcBlocks), "wakes": float64(st.ProcWakes),
		"banked_wakes": float64(st.BankedWakes), "spin_to_blocks": float64(st.SpinToBlocks),
		"poll_sleeps": float64(st.PollSleeps), "transitions": float64(st.ReadyTransitions),
		"poller_wakes": float64(st.ReadyPollerWakes),
		"ckpt_pre":     float64(st.CkptPrePages), "ckpt_stw": float64(st.CkptSTWPages),
		"ckpt_stw_cyc": float64(st.CkptSTWCycles), "ckpt_bytes": float64(st.CkptImageBytes),
		"ring_events": float64(st.TraceEvents), "ring_dropped": float64(st.TraceDropped),
		"shootdowns": float64(s.Machine.ShootdownOps.Load()),
	}
	for _, sc := range st.Syscalls {
		c["sys."+sc.Name+".count"] = float64(sc.Count)
		c["sys."+sc.Name+".simcyc"] = float64(sc.SimCyc)
		c["sys.count"] += float64(sc.Count)
		c["sys.simcyc"] += float64(sc.SimCyc)
	}
	for i, cpu := range s.Machine.CPUs {
		cyc := float64(cpu.Cycles.Load())
		c[fmt.Sprintf("cpu.%d", i)] = cyc
		c["cycles"] += cyc
		c["faults"] += float64(cpu.Faults.Load())
	}
	return c
}

// snapGroup reads a share block's own counters. Stats() drops a group's
// counts once it is torn down, so the lead process reads them while it is
// still a member.
func snapGroup(sa *core.ShAddr) counts {
	if sa == nil {
		return counts{}
	}
	return counts{
		"rlocks": float64(sa.Acc.RLocks.Load()), "wlocks": float64(sa.Acc.WLocks.Load()),
		"lock_sleeps":  float64(sa.Acc.RSleeps.Load() + sa.Acc.WSleeps.Load()),
		"syncs":        float64(sa.Syncs.Load()),
		"vmcache_hits": float64(sa.CacheHits.Load()), "vmcache_misses": float64(sa.CacheMisses.Load()),
	}
}

func snapGo() counts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counts{"go_alloc": float64(m.TotalAlloc), "go_gc": float64(m.NumGC)}
}

// rep is one repetition of a workload: a fresh System, one measured
// section, and what came out of it.
type rep struct {
	in any     // the workload's generated inputs
	tr *tracer // nil when untraced
	hs *shard  // harness phases, traced reps only

	sys atomic.Pointer[kernel.System] // what the watchdog dumps

	t0     time.Time
	c0     counts
	wallNs int64
	delta  counts // measured-section deltas, plus whole nested systems
	waitNs atomic.Int64

	ops        int64 // ops attempted in the measured section
	failed     atomic.Int64
	updaterCyc int64              // attr_sync: the updater's own cycles
	extra      map[string]float64 // workload-specific per-rep values (create_churn's per-kind cycles)

	mu    sync.Mutex
	fails []string // first few failure messages
}

func (r *rep) config() irix.Config {
	cfg := machineConfig()
	if r.tr != nil {
		cfg.TraceEvents = traceRingEvents
	}
	return cfg
}

// boot starts a fresh system for this rep and records it for the watchdog.
func (r *rep) boot(cfg irix.Config) *irix.System {
	defer r.phase("bench.boot")()
	s := irix.New(cfg)
	r.sys.Store(s.System)
	return s
}

// phase opens a harness span; the returned func closes it. Harness phases
// run one at a time (boot, then the lead process's populate and run, then
// stats and verify), so they share one shard without a lock.
func (r *rep) phase(name string) func() {
	if r.hs == nil {
		return func() {}
	}
	r.hs.begin(name, lBench, 0, 0)
	return func() { r.hs.end(0) }
}

// begin opens the measured section. The lead process calls it when set-up
// is done; the clock is read last so the snapshots stay outside.
func (r *rep) begin(c *irix.Ctx) {
	r.c0 = snapAll(c)
	r.t0 = time.Now()
}

// end closes the measured section; the clock is read first.
func (r *rep) end(c *irix.Ctx) {
	r.wallNs = int64(time.Since(r.t0))
	d := snapAll(c).sub(r.c0)
	d.add(r.delta)
	r.delta = d
}

// snapAll is the lead process's view: its system, its share block, and the
// Go runtime.
func snapAll(c *irix.Ctx) counts {
	snap := snapSystem(c.S)
	snap.add(snapGroup(kernel.GroupOf(c.P)))
	snap.add(snapGo())
	return snap
}

// addSystem folds a whole nested system (ckpt_restore's second machine,
// booted and drained inside one op) into the measured section.
func (r *rep) addSystem(s *irix.System) {
	if r.delta == nil {
		r.delta = counts{}
	}
	r.delta.add(snapSystem(s.System))
}

// fail counts n failed ops and keeps the first few reasons.
func (r *rep) fail(n int64, format string, args ...any) {
	r.failed.Add(n)
	r.mu.Lock()
	if len(r.fails) < 8 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check fails every op of the rep when a conservation law does not hold.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(r.ops, format, args...)
	}
}

// idle is the end-of-rep audit every workload shares: nothing left running,
// no frame still referenced, and the lazy-clone ledger balanced.
func (r *rep) idle(s *irix.System) {
	st := s.Stats()
	r.check(s.NProcs() == 0, "%d processes left after idle", s.NProcs())
	r.check(st.FramesInUse == 0, "%d frames still in use after idle", st.FramesInUse)
	r.check(st.LazyDups == st.LazyBreaks+st.LazyDrops,
		"lazy clones: %d dups != %d breaks + %d drops", st.LazyDups, st.LazyBreaks, st.LazyDrops)
}

// values turns the rep's raw deltas into one sample of every end-to-end
// and counter metric. Span and probe metrics are added by their own code.
func (r *rep) values() map[string]float64 {
	d := r.delta
	ops := float64(r.ops)
	per := func(key string) float64 { return ratio(d[key], ops) }
	v := map[string]float64{
		"host_us_per_op": ratio(float64(r.wallNs)/1e3, ops),
		"simcyc_per_op":  per("cycles"),
		"fail_share":     ratio(float64(r.failed.Load()), ops),

		"sched.dispatches_per_op":     per("dispatches"),
		"sched.preemptions_per_op":    per("preemptions"),
		"sched.steal_ratio":           ratio(d["steals"], d["dispatches"]),
		"sched.wait_host_us_per_op":   ratio(float64(r.waitNs.Load())/1e3, ops),
		"hw.faults_per_op":            per("faults"),
		"hw.frame_allocs_per_op":      per("frame_allocs"),
		"hw.frame_cache_hit_ratio":    ratio(d["frame_cache_hits"], d["frame_allocs"]),
		"hw.frame_copies_per_op":      per("frame_copies"),
		"hw.shootdowns_per_op":        per("shootdowns"),
		"vm.fast_fill_ratio":          ratio(d["fast_fills"], d["fast_fills"]+d["slow_fills"]),
		"vm.slow_fills_per_op":        per("slow_fills"),
		"vm.lazy_drop_ratio":          ratio(d["lazy_drops"], d["lazy_dups"]),
		"vm.lazy_break_pages_per_op":  per("lazy_break_pages"),
		"klock.acc_rlocks_per_op":     per("rlocks"),
		"klock.acc_wlocks_per_op":     per("wlocks"),
		"klock.acc_sleeps_per_op":     per("lock_sleeps"),
		"core.vmcache_hit_ratio":      ratio(d["vmcache_hits"], d["vmcache_hits"]+d["vmcache_misses"]),
		"core.syncs_per_op":           per("syncs"),
		"core.updater_simcyc_per_op":  ratio(float64(r.updaterCyc), ops),
		"kernel.syscalls_per_op":      per("sys.count"),
		"kernel.sys_simcyc_share":     ratio(d["sys.simcyc"], d["cycles"]),
		"kernel.restarts_per_op":      per("restarts"),
		"ipc.poll_sleeps_per_op":      per("poll_sleeps"),
		"ipc.transitions_per_op":      per("transitions"),
		"ipc.poller_wake_ratio":       ratio(d["poller_wakes"], d["transitions"]),
		"proc.blocks_per_op":          per("blocks"),
		"proc.banked_wake_ratio":      ratio(d["banked_wakes"], d["banked_wakes"]+d["wakes"]),
		"uspin.spin_to_blocks_per_op": per("spin_to_blocks"),
		"ckpt.pre_pages_per_op":       per("ckpt_pre"),
		"ckpt.stw_pages_per_op":       per("ckpt_stw"),
		"ckpt.stw_simcyc_per_op":      per("ckpt_stw_cyc"),
		"ckpt.image_kb_per_op":        per("ckpt_bytes") / 1024,
		"go.alloc_kb_per_op":          per("go_alloc") / 1024,
		"go.gc_per_rep":               d["go_gc"],
		"sim.host_ns_per_kcyc":        ratio(float64(r.wallNs), d["cycles"]/1000),
		"trace.ring_events_per_op":    ratio(d["ring_events"]+d["ring_dropped"], ops),
		"trace.ring_drop_ratio":       ratio(d["ring_dropped"], d["ring_events"]+d["ring_dropped"]),
	}
	var max, sum float64
	ncpu := 0
	for i := 0; ; i++ {
		cyc, ok := d[fmt.Sprintf("cpu.%d", i)]
		if !ok {
			break
		}
		ncpu++
		sum += cyc
		if cyc > max {
			max = cyc
		}
	}
	v["hw.cpu_cycle_imbalance"] = ratio(max, ratio(sum, float64(ncpu)))
	for metric, sys := range gatewayCalls {
		v["kernel.sys."+metric+".simcyc_per_call"] = ratio(d["sys."+sys+".simcyc"], d["sys."+sys+".count"])
	}
	for _, k := range createKinds {
		v["proc.create."+k+".simcyc_per_op"] = 0 // create_churn overwrites these
	}
	for k, x := range r.extra {
		v[k] = x
	}
	return v
}

// gatewayCalls maps the metric's call name to the gateway's descriptor name.
var gatewayCalls = map[string]string{
	"poll": "poll", "read": "read", "write": "write", "accept": "netaccept",
	"fork": "fork", "sproc": "sproc", "wait": "wait", "umask": "umask",
	"mmap": "mmap", "munmap": "munmap", "ckpt": "ckpt", "restore": "restore",
}
