package main

import "sort"

// workload is one closed-loop load at a fixed input size. gen makes the
// inputs from the seed (the kernel sees only what gen returns); run boots a
// fresh System, drives one measured section and audits it.
type workload struct {
	name string
	why  string
	ops  func(scale float64) int64 // configured ops per rep
	gen  func(seed uint64, scale float64) any
	run  func(r *rep)
	// simBound and hostBound are the shares by which simcyc_per_op and
	// host_us_per_op may worsen in -compare: about three times the spread of
	// ten runs' medians on a 2-core host. Simulated work that does not depend
	// on host scheduling repeats almost exactly and is held to 0.5 %.
	simBound  float64
	hostBound float64
}

var workloads = []*workload{
	{name: "serve_poll", ops: serveOps, gen: serveGen, run: serveRun, simBound: 0.03, hostBound: 0.25,
		why: "ipc streams, readiness wake-ups, the shared fd table and sleep/wake dispatch do the work; almost no faults or creations"},
	{name: "create_churn", ops: createOps, gen: createGen, run: createRun, simBound: 0.005, hostBound: 0.10,
		why: "proc/vm duplication, hw frames and core stack carving do the work; write side of the share block's update lock; no streams"},
	{name: "vm_fault_mix", ops: faultOps, gen: faultGen, run: faultRun, simBound: 0.01, hostBound: 0.15,
		why: "vm fill paths, the MRLock read side, core.ResolveShared and the TLB do the work beside map/unmap/shrink writers; no ipc, fs or ckpt"},
	{name: "attr_sync", ops: attrOps, gen: attrGen, run: attrRun, simBound: 0.10, hostBound: 0.25,
		why: "gateway entry check, core deferred sync and spinning under CPU oversubscription (5 runnable on 4 CPUs) do the work"},
	{name: "ckpt_restore", ops: ckptOps, gen: ckptGen, run: ckptRun, simBound: 0.005, hostBound: 0.25,
		why: "only user of internal/ckpt, vm dirty tracking, the freeze gate and restore's respawn; two boots per op"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one row of the metric catalogue. Meter says which clock or
// counter the number comes from: "sim" (simulated cycles), "host" (host
// time or memory), or "count" (events counted by the simulator).
type metricDef struct {
	name  string
	unit  string
	meter string
	kind  string  // "e2e", "counter", "span" or "probe"
	bound float64 // e2e only: share of the baseline median it may worsen by
}

// endToEnd lists the metrics a user of the system would see. fail_share is
// reported in every run but is 0 on a healthy tree, so BENCHMARK.json
// carries it as the attempted/failed pair instead of as a bounded metric;
// updater_simcyc_per_op exists on attr_sync only and is declared there as
// core.updater_simcyc_per_op.
//
// The bounds here are BENCHMARK.json's: one per metric, so each is the
// loosest any workload needs (attr_sync sets both meters').
var endToEnd = []metricDef{
	{"setup_s", "s", "host", "e2e", 0.25},
	{"host_us_per_op", "us/op", "host", "e2e", 0.25},
	{"simcyc_per_op", "simcyc/op", "sim", "e2e", 0.15},
	{"peak_rss_mb", "MiB", "host", "e2e", 0.25},
}

// boundFor is the bound the in-repo -compare applies: the catalogue's,
// except that the two per-op meters are held per workload.
func boundFor(metric string, w *workload) float64 {
	switch metric {
	case "simcyc_per_op":
		return w.simBound
	case "host_us_per_op":
		return w.hostBound
	case "updater_simcyc_per_op":
		return 0.005
	}
	for _, m := range endToEnd {
		if m.name == metric {
			return m.bound
		}
	}
	return 0 // fail_share: any increase is a regression
}

var createKinds = []string{"fork", "sproc", "sproc_nvm", "thread"}

// perLayer is every per-layer metric, by layer. Counters come from every
// rep; span metrics from traced reps; probes from the probe phase.
var perLayer = func() []metricDef {
	counter := func(name, unit, meter string) metricDef { return metricDef{name, unit, meter, "counter", 0} }
	probe := func(name, unit string) metricDef { return metricDef{name, unit, "host", "probe", 0} }
	defs := []metricDef{
		counter("sched.dispatches_per_op", "count/op", "count"),
		counter("sched.preemptions_per_op", "count/op", "count"),
		counter("sched.steal_ratio", "ratio", "count"),
		counter("sched.wait_host_us_per_op", "us/op", "host"),
		probe("sched.yield_ns", "ns"),

		counter("hw.faults_per_op", "count/op", "count"),
		counter("hw.frame_allocs_per_op", "count/op", "count"),
		counter("hw.frame_cache_hit_ratio", "ratio", "count"),
		counter("hw.frame_copies_per_op", "count/op", "count"),
		counter("hw.shootdowns_per_op", "count/op", "count"),
		counter("hw.cpu_cycle_imbalance", "ratio", "sim"),
		probe("hw.alloc_free_ns", "ns"),
		probe("hw.copy_frame_ns", "ns"),

		counter("vm.fast_fill_ratio", "ratio", "count"),
		counter("vm.slow_fills_per_op", "count/op", "count"),
		counter("vm.lazy_drop_ratio", "ratio", "count"),
		counter("vm.lazy_break_pages_per_op", "count/op", "count"),
		probe("vm.find_1k_ns", "ns"),
		probe("vm.fill_zero_ns", "ns"),
		probe("vm.fill_resident_ns", "ns"),
		probe("vm.duplazy_drop_ns", "ns"),

		counter("klock.acc_rlocks_per_op", "count/op", "count"),
		counter("klock.acc_wlocks_per_op", "count/op", "count"),
		counter("klock.acc_sleeps_per_op", "count/op", "count"),
		probe("klock.mr_rlock_ns", "ns"),
		probe("klock.mr_wlock_ns", "ns"),

		counter("core.vmcache_hit_ratio", "ratio", "count"),
		counter("core.syncs_per_op", "count/op", "count"),
		counter("core.updater_simcyc_per_op", "simcyc/op", "sim"),

		counter("kernel.syscalls_per_op", "count/op", "count"),
		counter("kernel.sys_simcyc_share", "ratio", "sim"),
		counter("kernel.restarts_per_op", "count/op", "count"),
		probe("kernel.getpid_ns", "ns"),
		probe("kernel.stats_ns", "ns"),
		probe("kernel.boot_us", "us"),

		counter("ipc.poll_sleeps_per_op", "count/op", "count"),
		counter("ipc.transitions_per_op", "count/op", "count"),
		counter("ipc.poller_wake_ratio", "ratio", "count"),
		probe("ipc.pipe_rw_4k_ns", "ns"),
		probe("fs.open_close_ns", "ns"),

		counter("proc.blocks_per_op", "count/op", "count"),
		counter("proc.banked_wake_ratio", "ratio", "count"),
		counter("uspin.spin_to_blocks_per_op", "count/op", "count"),

		counter("ckpt.pre_pages_per_op", "count/op", "count"),
		counter("ckpt.stw_pages_per_op", "count/op", "count"),
		counter("ckpt.stw_simcyc_per_op", "simcyc/op", "sim"),
		counter("ckpt.image_kb_per_op", "KiB/op", "count"),
		probe("ckpt.encode_ns_per_kb", "ns/KiB"),
		probe("ckpt.decode_ns_per_kb", "ns/KiB"),

		probe("trace.record_ns", "ns"),
		{"trace.ring_events_per_op", "count/op", "count", "span", 0},
		{"trace.ring_drop_ratio", "ratio", "count", "span", 0},
		{"trace.overhead_ratio", "ratio", "host", "span", 0},
		counter("go.alloc_kb_per_op", "KiB/op", "host"),
		counter("go.gc_per_rep", "count", "host"),
		counter("sim.host_ns_per_kcyc", "ns/kcyc", "host"),

		{"bench.unattributed_host_us_per_op", "us/op", "host", "span", 0},
	}
	calls := make([]string, 0, len(gatewayCalls))
	for c := range gatewayCalls {
		calls = append(calls, c)
	}
	sort.Strings(calls)
	for _, c := range calls {
		defs = append(defs, counter("kernel.sys."+c+".simcyc_per_call", "simcyc/call", "sim"))
	}
	for _, k := range createKinds {
		defs = append(defs, counter("proc.create."+k+".simcyc_per_op", "simcyc/op", "sim"))
	}
	for _, l := range spanLayers {
		defs = append(defs,
			metricDef{l + ".span_host_us_per_op", "us/op", "host", "span", 0},
			metricDef{l + ".span_simcyc_per_op", "simcyc/op", "sim", "span", 0},
			metricDef{l + ".span_calls_per_op", "count/op", "count", "span", 0})
	}
	return defs
}()
