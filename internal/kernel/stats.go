package kernel

import "repro/internal/core"

// Stats is a point-in-time snapshot of the kernel's hot-path counters: the
// per-CPU dispatch, frame-cache, and trace-ring instrumentation added for
// the MP-scalability work. All counters are cumulative since boot.
type Stats struct {
	// Scheduler.
	Dispatches  int64 // processes placed on a CPU
	Preemptions int64 // slice-expiry CPU handoffs
	StickyHolds int64 // preemptions suppressed by gang stickiness
	LocalPicks  int64 // dispatches served from the CPU's own run queue
	Steals      int64 // dispatches taken from another CPU's run queue
	StealScans  int64 // slow-path scans over all run queues
	RunqLen     int   // ready, undispatched processes right now
	IdleCPUs    int   // processors with nothing to run right now

	// Frame allocator.
	FrameAllocs    int64 // frames handed out
	FrameFrees     int64 // frames returned (refcount reached zero)
	FrameCopies    int64 // copy-on-write frame copies
	CacheHits      int64 // allocations served by a per-CPU frame cache
	CacheRefills   int64 // batch refills of a per-CPU cache from the pool
	CacheDrains    int64 // batch give-backs from a cache to the pool
	CacheScavenges int64 // frames reclaimed from other CPUs' caches
	PoolAllocs     int64 // allocations that fell through to the global pool
	FramesInUse    int   // referenced frames right now
	FramesCached   int   // frames parked in per-CPU caches right now

	// Fault fast path (lock-free resident fills, pregion lookup caches,
	// batched shootdowns). VMCacheHits/Misses are summed over the live
	// share groups; a torn-down group's counts leave the totals.
	FastFills       int64 // resident faults resolved with zero lock acquisitions
	SlowFills       int64 // faults that took a fill stripe (zero fill, COW, upgrade)
	VMCacheHits     int64 // faults resolved from a member's last-hit pregion cache
	VMCacheMisses   int64 // faults that scanned the shared pregion list
	PageShootdowns  int64 // TLB shootdowns served page-by-page (small ranges)
	SpaceShootdowns int64 // TLB shootdowns that flushed a whole address space

	// Lazy creation (DESIGN.md §16). Conservation once a creation storm
	// drains: LazyDups == LazyBreaks + LazyDrops.
	LazyDups       int64 // O(1) region clones created at spawn
	LazyBreaks     int64 // clones materialized by a first touch
	LazyDrops      int64 // clones that exited untouched (walk never happened)
	LazyBreakPages int64 // page-table slots walked by materializations

	// Trace ring.
	TraceEvents  int      // events currently buffered across all shards
	TraceDropped uint64   // events lost to ring wrap-around, total
	TraceDrops   []uint64 // per-shard drops: index = CPU, last = overflow shard

	// Syscall gateway: per-syscall counts and in-kernel simcyc latency,
	// summed over the per-CPU accumulators. Nonzero entries only, ordered
	// by syscall number.
	Syscalls []SyscallStat

	// Fault injection and degradation. Zero throughout when no plan is
	// armed; FaultSites has one row per injection site otherwise.
	FaultChecks     int64           // injection decisions taken
	FaultsInjected  int64           // faults actually injected
	FaultSites      []FaultSiteStat // per-site breakdown
	FrameReclaims   int64           // cache-drain-and-reclaim passes
	ReclaimedFrames int64           // frames repatriated to the pool by reclaims
	SyscallRestarts int64           // EINTR auto-restarts (SA_RESTART policy)
	SyscallRetries  int64           // EAGAIN retries with backoff

	// Blockproc sleep-wake subsystem (paper §3 blockproc/unblockproc).
	ProcBlocks   int64 // blockproc(2) calls that actually slept
	ProcWakes    int64 // unblockproc/setblockproccnt calls that released a sleeper
	BankedWakes  int64 // unblocks banked with no sleeper to release (wasted wakes)
	SpinToBlocks int64 // uspin bounded spins converted to blockproc sleeps

	// Share-group descriptor updates (§6.3): sleeps on the groups'
	// s_fupdsema, summed over every group since boot.
	FdSemaSleeps int64

	// Readiness layer (poll(2) and the stream event queues).
	PollSleeps        int64 // poll(2) waits that actually slept
	ReadyTransitions  int64 // readiness transitions published by streams
	ReadySleeperWakes int64 // blocked stream operations released by transitions
	ReadyPollerWakes  int64 // wake tokens transitions deposited for sleeping pollers

	// Fair-share scheduling and group resource control. FairShareOn
	// latches once any group is given a CPU entitlement; until then
	// dispatch is share-blind and the usage counters merely accumulate.
	// Groups has one delivery record per live share group (a torn-down
	// group's row leaves the snapshot, like the VM cache counts above).
	FairShareOn  bool         // fair-share dispatch armed (setshares called)
	FairPasses   int64        // dispatch decisions taken with banding active
	FlushedCyc   int64        // quantum-boundary cycles flushed into usage accounts
	UngroupedCyc int64        // flushed cycles with no group to charge
	Groups       []GroupUsage // per-group entitlement/delivery records

	// Live checkpoint/restore (syscalls_ckpt.go, DESIGN.md §17).
	Ckpts          int64 // checkpoints completed
	CkptPasses     int64 // pre-copy passes executed
	CkptPrePages   int64 // pages copied live by pre-copy passes
	CkptSTWPages   int64 // pages copied inside stop-the-world windows
	CkptSTWCycles  int64 // simulated cycles initiators spent stopped
	CkptImageBytes int64 // encoded image bytes produced
	Restores       int64 // groups rebuilt from an image
}

// FaultSiteStat is one injection site's counters.
type FaultSiteStat struct {
	Site     string // site name ("sysenter", "framealloc", ...)
	Checks   int64  // decisions taken at the site
	Injected int64  // faults injected at the site
}

// SyscallStat is one syscall's accounting line: how often it was called
// and the simulated cycles spent inside the kernel across those calls
// (entry cost, body, exit cost — everything between the gateway's trap and
// return).
type SyscallStat struct {
	Num    Sysno
	Name   string
	Count  int64
	SimCyc int64
}

// CyclesPerCall returns the mean in-kernel simcyc latency of the call.
func (st SyscallStat) CyclesPerCall() float64 {
	if st.Count == 0 {
		return 0
	}
	return float64(st.SimCyc) / float64(st.Count)
}

// Stats snapshots the hot-path counters. The fault-path ones (frame
// allocs, frees, copies and cache hits, fast and slow fills, the VM cache
// hits and misses) are per-CPU counters summed here, so a sum is exact only
// at quiescence: an identity between fields holds in a snapshot taken after
// WaitIdle or after the processes that add to them have been joined.
func (s *System) Stats() Stats {
	mem := s.Machine.Mem
	st := Stats{
		Dispatches:  s.Sched.Dispatches.Load(),
		Preemptions: s.Sched.Preemptions.Load(),
		StickyHolds: s.Sched.StickyHolds.Load(),
		LocalPicks:  s.Sched.LocalPicks.Load(),
		Steals:      s.Sched.Steals.Load(),
		StealScans:  s.Sched.StealScans.Load(),
		RunqLen:     s.Sched.RunqLen(),
		IdleCPUs:    s.Sched.IdleCPUs(),

		FrameAllocs:    mem.Allocs.Load(),
		FrameFrees:     mem.Frees.Load(),
		FrameCopies:    mem.Copies.Load(),
		CacheHits:      mem.CacheHits.Load(),
		CacheRefills:   mem.Refills.Load(),
		CacheDrains:    mem.Drains.Load(),
		CacheScavenges: mem.Scavenges.Load(),
		PoolAllocs:     mem.PoolAllocs.Load(),
		FramesInUse:    mem.InUse(),
		FramesCached:   mem.CachedFrames(),

		FastFills:       mem.FastFills.Load(),
		SlowFills:       mem.SlowFills.Load(),
		PageShootdowns:  s.Machine.PageShootdowns.Load(),
		SpaceShootdowns: s.Machine.SpaceShootdowns.Load(),

		LazyDups:       mem.LazyDups.Load(),
		LazyBreaks:     mem.LazyBreaks.Load(),
		LazyDrops:      mem.LazyDrops.Load(),
		LazyBreakPages: mem.LazyBreakPages.Load(),
	}
	st.FairShareOn = s.Sched.FairActive()
	st.FairPasses = s.Sched.FairPasses.Load()
	st.FlushedCyc = s.Sched.FlushedCyc.Load()
	st.UngroupedCyc = s.Sched.UngroupedCyc.Load()
	groups := map[*core.ShAddr]bool{}
	for _, p := range s.Procs() {
		if sa := groupOf(p); sa != nil && !groups[sa] {
			groups[sa] = true
			st.VMCacheHits += sa.CacheHits.Load()
			st.VMCacheMisses += sa.CacheMisses.Load()
			st.Groups = append(st.Groups, s.groupUsage(sa))
		}
	}
	if r := s.Machine.Trace; r != nil {
		st.TraceEvents = r.Len()
		st.TraceDrops = r.DropsByCPU()
		for _, d := range st.TraceDrops {
			st.TraceDropped += d
		}
	}
	for n := Sysno(0); n < NSys; n++ {
		var count, cyc int64
		for _, a := range s.sysacct {
			count += a.count[n].Load()
			cyc += a.simcyc[n].Load()
		}
		if count > 0 {
			st.Syscalls = append(st.Syscalls, SyscallStat{Num: n, Name: SysName(n), Count: count, SimCyc: cyc})
		}
	}
	st.FrameReclaims = mem.Reclaims.Load()
	st.ReclaimedFrames = mem.ReclaimedFrames.Load()
	st.SyscallRestarts = s.restarts.Load()
	st.SyscallRetries = s.retries.Load()
	st.ProcBlocks = s.blocks.Load()
	st.ProcWakes = s.blockWakes.Load()
	st.BankedWakes = s.bankedWakes.Load()
	st.SpinToBlocks = s.spinBlocks.Load()
	st.FdSemaSleeps = s.fdSemaSleeps.Load()
	st.Ckpts = s.ckpts.Load()
	st.CkptPasses = s.ckptPasses.Load()
	st.CkptPrePages = s.ckptPrePages.Load()
	st.CkptSTWPages = s.ckptSTWPages.Load()
	st.CkptSTWCycles = s.ckptSTWCycles.Load()
	st.CkptImageBytes = s.ckptImageBytes.Load()
	st.Restores = s.restores.Load()
	st.PollSleeps = s.pollSleeps.Load()
	st.ReadyTransitions = s.pollStats.Transitions.Load()
	st.ReadySleeperWakes = s.pollStats.SleeperWakes.Load()
	st.ReadyPollerWakes = s.pollStats.PollerWakes.Load()
	if pl := s.faults; pl != nil {
		st.FaultChecks = pl.TotalChecks()
		st.FaultsInjected = pl.TotalInjected()
		for _, row := range pl.Stats() {
			st.FaultSites = append(st.FaultSites, FaultSiteStat{
				Site: row.Name, Checks: row.Checks, Injected: row.Injected,
			})
		}
	}
	return st
}
