// Command benchtab regenerates the paper's evaluation tables (DESIGN.md
// E1..E10, recorded in EXPERIMENTS.md) by running the workload drivers at
// fixed parameters and printing one table per experiment. Pass -quick for
// a fast smoke run with smaller parameters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vm"
	"repro/internal/workload"
)

var (
	quick   = flag.Bool("quick", false, "smaller parameters for a fast run")
	jsonOut = flag.Bool("json", false, "also write BENCH_<runstamp>.json with per-row numbers")
	work    = flag.String("work", "", "run only the named experiment (e1c, prefork, serve, creation, vm, syscall, ipc, sync, pool, sched, pregion, fairshare, ckpt, ablations); empty = all")
)

func cfg() kernel.Config { return workload.DefaultConfig() }

func n(full, small int) int {
	if *quick {
		return small
	}
	return full
}

// benchResult is one table row in machine-readable form; -json collects
// every row and writes the set as a snapshot keyed by the run timestamp.
type benchResult struct {
	Experiment     string  `json:"experiment"`
	Name           string  `json:"name"`
	SimCyclesPerOp float64 `json:"simcyc_per_op"`
	NsPerOp        float64 `json:"ns_per_op"`
	WallNs         int64   `json:"wall_ns"`
	Ops            int64   `json:"ops"`
	Shootdowns     int64   `json:"shootdowns"`
	Faults         int64   `json:"faults"`

	// S7 serving rows only.
	P50Simcyc int64 `json:"p50_simcyc,omitempty"`
	P99Simcyc int64 `json:"p99_simcyc,omitempty"`

	// S8 fair-share rows only.
	ShareErr      float64 `json:"share_err,omitempty"`
	QuotaReclaims int64   `json:"quota_reclaims,omitempty"`

	// S10 checkpoint rows only.
	STWPages   int64 `json:"stw_pages,omitempty"`
	STWSimcyc  int64 `json:"stw_simcyc,omitempty"`
	PrePages   int64 `json:"pre_pages,omitempty"`
	ImageBytes int64 `json:"image_bytes,omitempty"`
}

var (
	curExperiment string
	results       []benchResult
)

func table(title string, cols string) {
	curExperiment = title
	fmt.Printf("\n%s\n", title)
	for range title {
		fmt.Print("─")
	}
	fmt.Printf("\n%s\n", cols)
}

func row(name string, m workload.Metrics, extra string) {
	fmt.Printf("  %-22s %10.0f %12v %8d %8d%s\n",
		name, m.CyclesPerOp(), m.Wall.Round(time.Microsecond), m.Shootdowns, m.Faults, extra)
	nsPerOp := 0.0
	if m.Ops > 0 {
		nsPerOp = float64(m.Wall.Nanoseconds()) / float64(m.Ops)
	}
	results = append(results, benchResult{
		Experiment:     curExperiment,
		Name:           name,
		SimCyclesPerOp: m.CyclesPerOp(),
		NsPerOp:        nsPerOp,
		WallNs:         m.Wall.Nanoseconds(),
		Ops:            m.Ops,
		Shootdowns:     m.Shootdowns,
		Faults:         m.Faults,
	})
}

func writeJSON() error {
	stamp := time.Now().UTC().Format("20060102T150405")
	path := fmt.Sprintf("BENCH_%s.json", stamp)
	snap := struct {
		Runstamp string        `json:"runstamp"`
		Quick    bool          `json:"quick"`
		Results  []benchResult `json:"results"`
	}{Runstamp: stamp, Quick: *quick, Results: results}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d rows)\n", path, len(results))
	return nil
}

// experiments maps -work names to experiment groups; the zero name runs
// everything in the canonical order.
var experiments = []struct {
	name string
	run  func()
}{
	{"creation", func() { e1e4(); e1c() }},
	{"e1c", e1c},
	{"prefork", prefork},
	{"vm", func() { e2(); e8() }},
	{"syscall", func() { e3(); s2() }},
	{"ipc", e5},
	{"sync", func() { e6(); s5() }},
	{"pool", e7},
	{"sched", func() { e10(); scaling(); s4() }},
	{"pregion", s6pregion},
	{"serve", s7},
	{"fairshare", s8},
	{"ckpt", s10},
	{"ablations", ablations},
}

func main() {
	flag.Parse()
	fmt.Println("share groups reproduction — experiment tables (simulated MIPS R2000 multiprocessor, 4 CPUs)")

	if *work != "" {
		for _, e := range experiments {
			if e.name == *work {
				e.run()
				if *jsonOut {
					if err := writeJSON(); err != nil {
						fmt.Fprintln(os.Stderr, "benchtab:", err)
						os.Exit(1)
					}
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchtab: unknown -work %q\n", *work)
		os.Exit(2)
	}

	e1e4()
	e1c()
	prefork()
	e2()
	e3()
	s2()
	e8()
	e5()
	e6()
	e7()
	e10()
	s5()
	scaling()
	s4()
	s6pregion()
	s7()
	s8()
	s10()
	ablations()

	if *jsonOut {
		if err := writeJSON(); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
}

// scaling — MP hot-path scaling of the de-serialized substrate: each storm
// hammers one machine-wide structure (frame allocator, creation path, trace
// ring, dispatcher) with the total operation count fixed and split across
// NCPU, so flat-or-falling simcyc/op as CPUs grow is the per-CPU sharding
// paying off.
func scaling() {
	ops := n(4096, 512)
	table("S1 — MP hot-path scaling (fixed total work split across 1..8 CPUs)",
		"  storm/ncpu               simcyc/op         wall  shootdn   faults")
	for _, ncpu := range []int{1, 2, 4, 8} {
		c := cfg()
		c.NCPU = ncpu
		row(fmt.Sprintf("fault-storm, ncpu=%d", ncpu),
			workload.FaultStorm(c, ncpu, ops/ncpu), "")
	}
	creations := n(512, 64)
	for _, ncpu := range []int{1, 2, 4, 8} {
		c := cfg()
		c.NCPU = ncpu
		row(fmt.Sprintf("create-storm, ncpu=%d", ncpu),
			workload.CreateStorm(c, ncpu, creations/ncpu), "")
	}
	events := n(1<<16, 1<<13)
	for _, ncpu := range []int{1, 2, 4, 8} {
		c := cfg()
		c.NCPU = ncpu
		c.TraceEvents = 4096
		row(fmt.Sprintf("trace-storm, ncpu=%d", ncpu),
			workload.TraceStorm(c, ncpu, events/ncpu), "")
	}
	yields := n(8192, 1024)
	for _, ncpu := range []int{1, 2, 4, 8} {
		c := cfg()
		c.NCPU = ncpu
		procs := 2 * ncpu
		row(fmt.Sprintf("dispatch-storm, ncpu=%d", ncpu),
			workload.DispatchStorm(c, procs, yields/procs), "")
	}
	fmt.Println("  shape: simcyc/op flat or falling as NCPU grows — per-CPU frame caches,")
	fmt.Println("  trace shards, and run queues keep the hot paths off the global locks")
}

// s4 — resident-fault scaling: share-group members re-faulting pages that
// are already resident (TLB misses into the fault handler, no allocation).
// The total touch count is fixed and split across NCPU members, so
// simcyc/op flat-or-falling as CPUs grow means the resident-fault path is
// actually concurrent; rising means it is serializing on a lock.
func s4() {
	touches := n(16384, 2048)
	table("S4 — resident-fault storm (fixed total touches split across 1..8 members/CPUs)",
		"  members/ncpu             simcyc/op         wall  shootdn   faults")
	for _, ncpu := range []int{1, 2, 4, 8} {
		c := cfg()
		c.NCPU = ncpu
		m := workload.ResidentFaultStorm(c, ncpu, touches/ncpu)
		row(fmt.Sprintf("resident-fault, ncpu=%d", ncpu), m,
			fmt.Sprintf("  fast-fills=%d slow=%d cache-hits=%d sleeps=%d", m.FastFills, m.SlowFills, m.CacheHits, m.LockSleeps))
	}
	fmt.Println("  shape: simcyc/op flat as NCPU grows — the resident fault takes no lock at all;")
	fmt.Println("  the pregion cache skips the list scan and the PTE read is one atomic load")
}

// linearFind is the pre-index pregion lookup: walk the whole list. It lives
// here (not in internal/vm) purely as the measured baseline.
func linearFind(list []*vm.PRegion, va hw.VAddr) *vm.PRegion {
	for _, pr := range list {
		if pr.Contains(va) {
			return pr
		}
	}
	return nil
}

// s6pregion — the pregion interval index: ordered binary-search lookup
// versus the linear scan it replaced, at 1k/10k/100k attached regions.
func s6pregion() {
	table("S6c — pregion lookup: ordered interval index vs linear scan (host ns/lookup)",
		"  regions                  linear-ns     index-ns    speedup")
	lookups := n(200_000, 20_000)
	for _, nreg := range []int{1_000, 10_000, 100_000} {
		mem := hw.NewMemory(64)
		list := make([]*vm.PRegion, 0, nreg)
		for i := 0; i < nreg; i++ {
			// Two-page spacing leaves a hole after every region so misses
			// are exercised too.
			base := hw.VAddr(uint32(i) * 2 * hw.PageSize)
			list = vm.Insert(list, &vm.PRegion{Reg: vm.NewRegion(mem, vm.RData, 1), Base: base})
		}
		span := uint32(nreg) * 2 * hw.PageSize
		probe := func(find func([]*vm.PRegion, hw.VAddr) *vm.PRegion) float64 {
			va := hw.VAddr(0)
			t0 := time.Now()
			for i := 0; i < lookups; i++ {
				find(list, va)
				// Coprime stride walks the whole span, hits and holes alike.
				va = hw.VAddr((uint32(va) + 9973*hw.PageSize) % span)
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(lookups)
		}
		linNs := probe(linearFind)
		idxNs := probe(vm.Find)
		fmt.Printf("  %-22d %11.1f %12.1f %9.1fx\n", nreg, linNs, idxNs, linNs/idxNs)
		results = append(results, benchResult{
			Experiment: curExperiment,
			Name:       fmt.Sprintf("index lookup, %d regions", nreg),
			NsPerOp:    idxNs,
			Ops:        int64(lookups),
		})
		results = append(results, benchResult{
			Experiment: curExperiment,
			Name:       fmt.Sprintf("linear lookup, %d regions", nreg),
			NsPerOp:    linNs,
			Ops:        int64(lookups),
		})
	}
	fmt.Println("  shape: index ns/lookup near-flat in the region count (log n); the linear")
	fmt.Println("  scan grows ~100x from 1k to 100k regions")
}

// rowServe is row() for S7 serving runs: the extra column is the
// request→response latency distribution in simulated cycles, plus the
// readiness-layer counters behind it.
func rowServe(name string, m workload.ServeMetrics) {
	row(name, m.Metrics, fmt.Sprintf("  p50=%d p99=%d poll-sleeps=%d transitions=%d",
		m.P50, m.P99, m.PollSleeps, m.Transitions))
	results[len(results)-1].P50Simcyc = m.P50
	results[len(results)-1].P99Simcyc = m.P99
}

// s7 — the C10k serving experiment (EXPERIMENTS S7): how many share-group
// members does it take to hold N concurrent client connections open and
// answer them all? The poll-driven organization multiplexes the whole load
// through a fixed small pool whose size is independent of the connection
// count; the blocking organization holds one member *per connection* by
// construction, so its member count is its connection count and the 10k
// load would need a 10000-member group.
func s7() {
	conns := n(10000, 1000)
	table(fmt.Sprintf("S7 — C10k serving: %d concurrent connections, poll pool vs blocking thread-per-connection", conns),
		"  organization             simcyc/op         wall  shootdn   faults")
	for _, members := range []int{2, 4, 8} {
		m := workload.Serve(cfg(), workload.ServePoll,
			workload.ServeConfig{Conns: conns, Members: members, Clients: 4})
		rowServe(fmt.Sprintf("poll, %d members", members), m)
	}
	c8 := cfg()
	c8.NCPU = 8
	m := workload.Serve(c8, workload.ServePoll,
		workload.ServeConfig{Conns: conns, Members: 8, Clients: 4})
	rowServe("poll, 8 members/8cpu", m)

	bconns := n(512, 128)
	m = workload.Serve(cfg(), workload.ServeBlocking,
		workload.ServeConfig{Conns: bconns, Members: bconns, Clients: 4})
	rowServe(fmt.Sprintf("blocking, %d members", bconns), m)
	fmt.Printf("  shape: an 8-member group answers all %d connections through poll(2); the\n", conns)
	fmt.Printf("  blocking organization needs members = connections (%d here) just to hold\n", bconns)
	fmt.Println("  them open, so member count scales with load instead of staying fixed")
}

// fracs renders delivered/entitled fractions as percentages.
func fracs(fs []float64) string {
	out := ""
	for i, f := range fs {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%.1f%%", 100*f)
	}
	return out
}

// s8 — fair-share scheduling and group resource limits (DESIGN.md §15):
// three share groups with CPU entitlements 4:2:1 on a 3x-overcommitted
// machine, against the share-blind dispatcher as baseline; then the frame
// quota leg, a group streaming pages far above its cap, degrading through
// its own zero-page reclaim instead of dying with ENOMEM.
func s8() {
	c := cfg()
	horizon := int64(n(6_000_000, 1_500_000))
	fc := workload.FairShareConfig{Shares: []int32{4, 2, 1}, Members: c.NCPU, Horizon: horizon}
	table("S8 — fair-share delivery under 3x overcommit (3 groups, shares 4:2:1, 4 burners each)",
		"  run                      simcyc/op         wall  shootdn   faults")

	fc.Fair = false
	blind := workload.FairShare(c, fc)
	row("share-blind", blind.Metrics,
		fmt.Sprintf("  delivered=%s err=%.3f", fracs(blind.DeliveredFrac()), blind.MaxShareError()))
	results[len(results)-1].ShareErr = blind.MaxShareError()

	fc.Fair = true
	fair := workload.FairShare(c, fc)
	row("fair 4:2:1", fair.Metrics,
		fmt.Sprintf("  delivered=%s err=%.3f", fracs(fair.DeliveredFrac()), fair.MaxShareError()))
	results[len(results)-1].ShareErr = fair.MaxShareError()
	ent := fair.EntitledFrac()
	del := fair.DeliveredFrac()
	for g, u := range fair.Usage {
		fmt.Printf("    group %d: shares=%d entitled=%5.1f%% delivered=%5.1f%% band=%d ops=%d\n",
			g, u.CPUShares, 100*ent[g], 100*del[g], u.Band, fair.GroupOps[g])
	}
	fmt.Printf("  aggregate: fair=%d ops vs blind=%d ops (ratio %.3f)\n",
		fair.Ops, blind.Ops, float64(fair.Ops)/float64(blind.Ops))

	qm := workload.FairShare(c, workload.FairShareConfig{
		Shares: []int32{2, 1}, Members: 2, Horizon: horizon / 3,
		Fair: true, QuotaGroup: 1, QuotaFrames: 32, QuotaPages: 96,
	})
	u := qm.Usage[1]
	row("frame-quota group", qm.Metrics,
		fmt.Sprintf("  used=%d/%d hits=%d reclaims=%d rezeroed=%d", u.FramesUsed, u.FrameQuota, u.QuotaHits, u.QuotaReclaims, u.ReclaimedZeros))
	results[len(results)-1].QuotaReclaims = u.QuotaReclaims
	fmt.Println("  shape: delivered CPU tracks the 4:2:1 entitlement within a few points while")
	fmt.Println("  aggregate throughput matches the share-blind run; the quota-capped group")
	fmt.Println("  stays at its cap by reclaiming its own zero pages — degradation, not ENOMEM")
}

// s10 — live checkpoint (DESIGN.md §17): checkpoint a churning group once
// per row, varying the pre-copy pass budget. The image is the same size
// every time; what moves is where the copying happens — inside the
// stop-the-world window with no passes, overlapped with execution as
// passes are added — so the stopped delta shrinks monotonically toward
// zero while the live page count grows by the re-dirtied tail. The driver
// time-slices the group on one simulated CPU, so the rows are the same on
// every host.
func s10() {
	members := 4
	pagesEach := n(64, 16)
	table(fmt.Sprintf("S10 — checkpoint STW delta vs pre-copy passes (%d dirtiers on one CPU, %d-page set, decaying churn)",
		members, members*pagesEach),
		"  run                      stw-pages   stw-simcyc    pre-pages    image-KB")
	for _, p := range []int{0, 1, 2, 4, 8} {
		info, err := workload.CkptPrecopy(cfg(), members, pagesEach, p)
		if err != nil {
			fmt.Printf("  passes=%-2d  error: %v\n", p, err)
			continue
		}
		name := fmt.Sprintf("passes=%d", p)
		if info.Passes != p {
			name = fmt.Sprintf("passes=%d (ran %d)", p, info.Passes)
		}
		fmt.Printf("  %-22s %10d %12d %12d %11d\n",
			name, info.STWPages, info.STWCycles, info.PrePages, info.ImageBytes/1024)
		results = append(results, benchResult{
			Experiment: curExperiment,
			Name:       name,
			Ops:        int64(info.PrePages + info.STWPages),
			STWPages:   int64(info.STWPages),
			STWSimcyc:  info.STWCycles,
			PrePages:   int64(info.PrePages),
			ImageBytes: int64(info.ImageBytes),
		})
	}
	fmt.Println("  shape: the naive snapshot pays the whole resident set inside the window; each")
	fmt.Println("  pre-copy pass moves the earlier (larger) share of the copying into live")
	fmt.Println("  execution, leaving only the still-cooling dirty tail for the stop")
}

// ablations — DESIGN.md §6: the rejected designs, measured.
func ablations() {
	pages := n(512, 64)
	table("A1 — shared read lock vs exclusive lock on the pregion list (4 faulting members)",
		"  variant                  simcyc/op         wall  shootdn   faults")
	m := workload.FaultScaling(cfg(), 4, pages/4)
	row("shared read lock", m, fmt.Sprintf("  lock: %d concurrent scans, %d exclusive, %d sleeps", m.RLocks, m.WLocks, m.LockSleeps))
	exc := cfg()
	exc.ExclusiveVMLock = true
	m = workload.FaultScaling(exc, 4, pages/4)
	row("exclusive lock", m, fmt.Sprintf("  lock: %d concurrent scans, %d exclusive, %d sleeps", m.RLocks, m.WLocks, m.LockSleeps))
	fmt.Println("  shape: the shared lock admits every fault concurrently; the exclusive variant")
	fmt.Println("  serializes all of them (every scan is an exclusive acquisition)")

	rt := n(300, 30)
	table("A2 — deferred vs eager attribute synchronization (4 members)",
		"  variant                  simcyc/op         wall  shootdn   faults")
	m = workload.AttrSync(cfg(), 4, rt)
	row("deferred (p_flag bits)", m, fmt.Sprintf("  updater-cyc/op=%.0f syncs=%d", m.UpdaterPerOp(), m.Syncs))
	eg := cfg()
	eg.EagerAttrSync = true
	m = workload.AttrSync(eg, 4, rt)
	row("eager push", m, fmt.Sprintf("  updater-cyc/op=%.0f syncs=%d", m.UpdaterPerOp(), m.Syncs))
	fmt.Println("  shape: eager pushing moves the whole propagation onto the updater's critical")
	fmt.Println("  path; the deferred design leaves the updater with a near-constant cost")
}

// E1/E4 — creation cost.
func e1e4() {
	iters := n(400, 50)
	table("E1/E4 — process creation (create+join, 32 dirty pages)",
		"  primitive                simcyc/op         wall  shootdn   faults")
	for _, kind := range []workload.CreateKind{
		workload.CreateFork, workload.CreateSprocNVM,
		workload.CreateSproc, workload.CreateThread,
	} {
		row(string(kind), workload.Creation(cfg(), kind, 32, iters), "")
	}
	fmt.Println("  paper: sproc() slightly cheaper than fork() (§7); Mach threads ~10x fork's rate (§3)")

	table("E1b — fork vs sproc vs image size (the gap scales with what fork must copy)",
		"  image                    simcyc/op         wall  shootdn   faults")
	for _, dp := range []int{16, 64, 256} {
		c := cfg()
		c.DataPages = dp
		f := workload.Creation(c, workload.CreateFork, 0, iters/2)
		sp := workload.Creation(c, workload.CreateSproc, 0, iters/2)
		row(fmt.Sprintf("fork,  data=%dp", dp), f, "")
		row(fmt.Sprintf("sproc, data=%dp", dp), sp,
			fmt.Sprintf("  fork/sproc=%.2f", f.CyclesPerOp()/sp.CyclesPerOp()))
	}
}

// e1c — O(1) member creation (DESIGN.md §16): fork cost versus image size,
// lazy duplication against the eager spawn-time walk it replaced
// (Config.EagerDup). The children never touch their image, so the lazy
// rows charge only the per-region clone — flat in the page count — while
// the eager rows walk every slot at spawn and grow linearly.
func e1c() {
	iters := n(200, 30)
	table("E1c — lazy vs eager fork across image size (create+join, untouched children)",
		"  image                    simcyc/op         wall  shootdn   faults")
	for _, dp := range []int{4, 64, 1024, 4096} {
		c := cfg()
		c.DataPages = dp
		lz := workload.Creation(c, workload.CreateFork, dp, iters)
		c.EagerDup = true
		eg := workload.Creation(c, workload.CreateFork, dp, iters)
		row(fmt.Sprintf("lazy,  data=%dp", dp), lz, "")
		row(fmt.Sprintf("eager, data=%dp", dp), eg,
			fmt.Sprintf("  eager/lazy=%.2f", eg.CyclesPerOp()/lz.CyclesPerOp()))
	}
	fmt.Println("  shape: lazy simcyc/op flat from 4p to 4096p (the clone copies region headers,")
	fmt.Println("  not page tables); eager grows linearly with the image and the untouched child")
	fmt.Println("  paid for a walk it never used")
}

// rowPrefork is row() for prefork pool runs: latency distribution plus the
// lazy-creation counters the churn exercises.
func rowPrefork(name string, m workload.PreforkMetrics) {
	row(name, m.Metrics, fmt.Sprintf("  p50=%d p99=%d creations=%d lazydups=%d breaks=%d drops=%d",
		m.P50, m.P99, m.Creations, m.LazyDups, m.LazyBreaks, m.LazyDrops))
	results[len(results)-1].P50Simcyc = m.P50
	results[len(results)-1].P99Simcyc = m.P99
}

// prefork — process-pool churn against the serving workload: the master
// holds a fixed pool of COW-imaged workers, each exiting after a fixed
// request count (max-requests-per-child), so the run's creation rate is
// conns/lifespan regardless of pool size. O(1) creation is what makes the
// organization viable: each generation is one lazy duplication, not an
// image walk.
func prefork() {
	conns := n(2048, 256)
	table(fmt.Sprintf("E1c-prefork — prefork serving pool, %d connections, worker lifespan 8 requests", conns),
		"  pool                     simcyc/op         wall  shootdn   faults")
	for _, workers := range []int{2, 4, 8} {
		m := workload.Prefork(cfg(), workload.PreforkConfig{
			Conns: conns, Workers: workers, Lifespan: 8, Clients: 4,
		})
		rowPrefork(fmt.Sprintf("prefork, %d workers", workers), m)
	}
	m := workload.Prefork(cfg(), workload.PreforkConfig{
		Conns: conns, Workers: 4, Lifespan: 64, Clients: 4,
	})
	rowPrefork("prefork, lifespan 64", m)
	fmt.Println("  shape: simcyc/op near-flat in pool size, and the longer lifespan amortizes the")
	fmt.Println("  (already O(1)) creation cost further; drops+breaks == lazydups every run")
}

// E2 — VM synchronization.
func e2() {
	pages := n(512, 64)
	table("E2a — demand-fault cost vs share-group size (shared read lock hot path)",
		"  configuration            simcyc/op         wall  shootdn   faults")
	row("solo process", workload.FaultScaling(cfg(), 0, pages), "")
	for _, m := range []int{1, 2, 4, 8} {
		row(fmt.Sprintf("group of %d", m), workload.FaultScaling(cfg(), m, pages/m+1), "")
	}
	iters := n(300, 30)
	table("E2b — region grow vs shrink (shrink pays the machine-wide shootdown)",
		"  operation                simcyc/op         wall  shootdn   faults")
	row("sbrk grow", workload.GrowOnly(cfg(), iters), "")
	row("sbrk shrink (0 spin)", workload.ShrinkShootdown(cfg(), 0, iters), "")
	row("sbrk shrink (3 spin)", workload.ShrinkShootdown(cfg(), 3, iters), "")
	fmt.Println("  paper: VM sync overhead negligible except when detaching or shrinking regions (§7)")
}

// E3 — no penalty for normal processes.
func e3() {
	iters := n(20000, 2000)
	table("E3 — system-call overhead: plain process vs clean group member",
		"  configuration            simcyc/op         wall  shootdn   faults")
	row("getpid, plain", workload.SyscallNull(cfg(), false, iters), "")
	row("getpid, member", workload.SyscallNull(cfg(), true, iters), "")
	oc := n(2000, 200)
	row("open+close, plain", workload.SyscallOpenClose(cfg(), false, false, oc), "")
	row("open+close, member", workload.SyscallOpenClose(cfg(), true, false, oc), "")
	fmt.Println("  paper: normal UNIX processes experience no penalty (§7, design goal 4)")
}

// S2 — per-syscall latency from the gateway's own accounting, plain vs
// member. The getpid rows re-measure E3 from kernel counters rather than
// machine cycle totals: the plain/member gap is the no-penalty claim again,
// this time read off the syscall accounting itself.
func s2() {
	iters := n(4000, 400)
	table("S2 — per-syscall in-kernel latency (gateway accounting, mixed workload)",
		"  syscall                    calls  simcyc/call")
	emit := func(variant string, stats []kernel.SyscallStat) float64 {
		getpid := 0.0
		for _, st := range stats {
			name := fmt.Sprintf("%s, %s", st.Name, variant)
			fmt.Printf("  %-24s %7d %12.0f\n", name, st.Count, st.CyclesPerCall())
			results = append(results, benchResult{
				Experiment:     curExperiment,
				Name:           name,
				SimCyclesPerOp: st.CyclesPerCall(),
				Ops:            st.Count,
			})
			if st.Num == kernel.SysGetpid {
				getpid = st.CyclesPerCall()
			}
		}
		return getpid
	}
	_, plain := workload.SyscallMix(cfg(), false, iters)
	gp := emit("plain", plain)
	_, member := workload.SyscallMix(cfg(), true, iters)
	gm := emit("member", member)
	if gp > 0 {
		fmt.Printf("  E3 re-measured from the accounting: getpid member/plain = %.2f\n", gm/gp)
	}
	fmt.Println("  shape: member rows track plain rows — the gateway's sync check is one flag test")
}

// E8 — attribute synchronization.
func e8() {
	oc := n(1000, 100)
	table("E8 — deferred attribute synchronization (§6.3)",
		"  configuration            simcyc/op         wall  shootdn   faults")
	row("open+close, clean", workload.SyscallOpenClose(cfg(), true, false, oc), "")
	row("open+close, stormed", workload.SyscallOpenClose(cfg(), true, true, oc), "")
	rt := n(300, 30)
	for _, members := range []int{1, 2, 4, 8} {
		m := workload.AttrSync(cfg(), members, rt)
		row(fmt.Sprintf("umask round, %d members", members), m,
			fmt.Sprintf("  syncs/op=%.1f", float64(m.Syncs)/float64(m.Ops)))
	}
	fmt.Println("  paper: one flag test on the fast path; update cost linear in sharing members")
}

// E5 — data-passing bandwidth.
func e5() {
	total := n(1<<20, 1<<17)
	table("E5 — data-passing cost per chunk (producer -> consumer)",
		"  mechanism/chunk          simcyc/op         wall  shootdn   faults")
	for _, chunk := range []int{64, 256, 1024, 4096} {
		for _, mech := range []workload.Mech{
			workload.MechShm, workload.MechPipe, workload.MechMsgq, workload.MechSocket,
		} {
			m := workload.IPCBandwidth(cfg(), mech, chunk, total)
			row(fmt.Sprintf("%s %dB", mech, chunk), m, "")
		}
	}
	fmt.Println("  paper: shared memory is the highest-bandwidth path (§3)")
}

// E6 — synchronization latency.
func e6() {
	rounds := n(3000, 200)
	table("E6 — synchronization round-trip latency",
		"  mechanism                simcyc/op         wall  shootdn   faults")
	for _, mech := range []workload.SyncMech{
		workload.SyncSpin, workload.SyncSemop, workload.SyncPipe,
	} {
		row(string(mech), workload.SyncLatency(cfg(), mech, rounds), "")
	}
	row("signal", workload.SyncLatency(cfg(), workload.SyncSignal, n(500, 50)), "")
	fmt.Println("  paper: busy-waiting approaches memory speed; kernel sync is far slower (§3)")
}

// E7 — self-scheduling pool.
func e7() {
	items := n(400, 60)
	const grain = 2000
	table("E7a — parallel work organization (4 workers, grain 2000)",
		"  organization             simcyc/op         wall  shootdn   faults")
	for _, mode := range []workload.PoolMode{
		workload.PoolSproc, workload.PoolPipeWorkers, workload.PoolForkPerTask,
	} {
		row(string(mode), workload.Pool(cfg(), mode, 4, items, grain), "")
	}
	table("E7b — sproc pool scaling (self-scheduling, 4 CPUs)",
		"  workers                  simcyc/op         wall  shootdn   faults")
	for _, w := range []int{1, 2, 4, 8} {
		row(fmt.Sprintf("%d workers", w), workload.Pool(cfg(), workload.PoolSproc, w, items, grain), "")
	}
	fmt.Println("  paper: preallocated self-scheduling pools make creation speed irrelevant (§3)")
}

// S5 — the blockproc(2) sleep-wake subsystem under overcommit (§3): one
// contended lock, twice as many group members as processors. Pure
// spinning burns whole slices against descheduled holders; the hybrid
// spin-then-block lock gives the processor back; gang mode cannot help
// because a group bigger than the machine can never be co-resident.
func s5() {
	iters := n(200, 40)
	const members, grain = 8, 600
	table("S5 — contended lock under 2x overcommit (8 members, 4 CPUs, blockproc sleep-wake)",
		"  waiting discipline       simcyc/op         wall  shootdn   faults")
	for _, mode := range []workload.LockMode{
		workload.LockSpin, workload.LockHybrid, workload.LockGang,
	} {
		m := workload.Contention(cfg(), mode, members, iters, grain)
		row(string(mode), m, fmt.Sprintf("  blocks=%d wakes=%d banked=%d spin-to-block=%d preempts=%d",
			m.Blocks, m.Wakes, m.BankedWakes, m.SpinToBlocks, m.Preempts))
	}
	fmt.Println("  paper (§3): when the holder is descheduled, spinning wastes the machine;")
	fmt.Println("  blockproc/unblockproc let waiters sleep without losing a single wakeup")
}

// E10 — gang scheduling ablation (§8 future work).
func e10() {
	rounds := n(200, 30)
	table("E10 — gang scheduling (4-member spin-barrier group vs 4 load processes, 4 CPUs)",
		"  dispatcher               simcyc/op         wall  shootdn   faults")
	m := workload.GangBarrier(cfg(), false, 4, 4, rounds, 600)
	row("standard", m, fmt.Sprintf("  member-dispatches/round=%.2f", float64(m.Dispatches)/float64(m.Ops)))
	m = workload.GangBarrier(cfg(), true, 4, 4, rounds, 600)
	row("gang mode", m, fmt.Sprintf("  member-dispatches/round=%.2f", float64(m.Dispatches)/float64(m.Ops)))
	fmt.Println("  paper (§8): schedule the share group as a whole so spinners' partners are running")
}
