// Package sched is the multiprocessor scheduler: it multiplexes simulated
// processes (each a goroutine) onto the machine's NCPU processors, so true
// parallelism is capped at NCPU exactly as on the paper's hardware, sleeping
// in the kernel releases the processor, and the time-slice preemption that
// motivates the deferred-synchronization design really happens.
//
// Dispatch state is sharded per CPU so the common paths never funnel every
// processor through one lock: each CPU owns a run queue (guarded by its own
// rarely-contended lock), idle processors are tracked in an atomic bitmask,
// and a CPU whose queue runs dry — or whose queue's best candidate is beaten
// by another queue's priority hint — steals work from its peers. Priority
// order, FIFO within a priority, and the gang-affinity boost are preserved:
// a steal scan ranks candidates with the same score function the old global
// scan used, so a higher-priority process or a gang-mate on another CPU's
// queue still wins the processor.
//
// It also implements the gang-scheduling extension sketched in the paper's
// §8 ("the shared address block ... provides a convenient handle for making
// scheduling decisions about the process group as a whole"): in gang mode
// the dispatcher prefers runnable processes whose share group already has a
// member running, so busy-wait synchronization inside a group completes
// quickly instead of spinning against a descheduled partner.
package sched

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/trace"
)

// DefaultSlice is the time-slice length in charge units (simulated cycles
// of user work between preemption checks).
const DefaultSlice = 20000

// noPrio marks an empty queue's priority hint.
const noPrio = math.MinInt32

// noSeq marks an empty queue's age hint.
const noSeq = math.MaxUint64

// noBand marks an empty queue's fair-share band hint.
const noBand = math.MaxInt32

// entry is one queued process stamped with its global ready sequence
// number. The stamp makes FIFO-within-priority hold across the whole
// machine, not just within one queue: without it, a CPU whose queue always
// has a fresh candidate could rotate its own pair forever while an equal-
// priority process ages on another queue.
type entry struct {
	p   *proc.Proc
	seq uint64
}

// runQueue is one CPU's ready list. maxPrio and oldest are lock-free hints
// — an upper bound on the queued priorities and the age of the queue's
// oldest entry — letting other CPUs decide whether a steal scan could
// possibly pay off without taking the lock.
type runQueue struct {
	mu      sync.Mutex
	q       []entry
	maxPrio atomic.Int32  // highest queued priority, noPrio when empty
	oldest  atomic.Uint64 // ready stamp of the oldest entry, noSeq when empty
	minBand atomic.Int32  // lowest fair-share band queued, noBand when empty
	_       [64]byte      // keep neighbouring queues off the same cache line
}

// Sched dispatches processes onto CPUs.
type Sched struct {
	machine *hw.Machine
	slice   int64
	sawGang atomic.Bool // a group has asked for gang mode (sticky; SetGang)
	fair    atomic.Bool // fair-share banding armed (sticky; setshares(2))

	queues   []*runQueue
	cpuProc  []atomic.Pointer[proc.Proc] // what each CPU runs (nil = idle)
	idle     []atomic.Uint64             // idle-CPU bitmask, 64 CPUs per word
	queued   atomic.Int64                // ready, undispatched processes
	rr       atomic.Uint32               // round-robin cursor for unplaced processes
	readySeq atomic.Uint64               // global enqueue stamp (machine-wide FIFO)

	Dispatches   atomic.Int64
	Preemptions  atomic.Int64
	StickyHolds  atomic.Int64 // preemptions suppressed by gang stickiness
	FlushedCyc   atomic.Int64 // cycles flushed to usage accounts at quantum ends
	UngroupedCyc atomic.Int64 // flushed cycles with no group to charge
	FairPasses   atomic.Int64 // dispatch decisions made with banding active
	Steals       atomic.Int64 // picks taken from another CPU's queue
	LocalPicks   atomic.Int64 // picks served from the CPU's own queue
	StealScans   atomic.Int64 // full steal scans (the slow pick path)
	Sleeps       atomic.Int64 // kernel sleeps (processes leaving the run queues)

	// FI, when armed at SiteDispatch, forces occasional short slices and
	// dispatch stalls — the scheduler's deterministic perturbation under a
	// chaos plan. Set before the first process runs; nil means off.
	FI *faultinject.Plan
}

// New creates a scheduler for the machine. slice is the time-slice length
// in charge units; 0 selects DefaultSlice.
func New(machine *hw.Machine, slice int64) *Sched {
	if slice <= 0 {
		slice = DefaultSlice
	}
	ncpu := machine.NCPU()
	s := &Sched{
		machine: machine,
		slice:   slice,
		queues:  make([]*runQueue, ncpu),
		cpuProc: make([]atomic.Pointer[proc.Proc], ncpu),
		idle:    make([]atomic.Uint64, (ncpu+63)/64),
	}
	for i := range s.queues {
		s.queues[i] = &runQueue{}
		s.queues[i].maxPrio.Store(noPrio)
		s.queues[i].oldest.Store(noSeq)
		s.queues[i].minBand.Store(noBand)
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		s.setIdle(cpu)
	}
	return s
}

// SetFairShare arms fair-share banding. The switch is sticky and one-way:
// it flips the first time any group sets a CPU-share entitlement
// (setshares(2)), so a system that never uses entitlements dispatches
// exactly as the share-blind scheduler did, paying nothing.
func (s *Sched) SetFairShare() { s.fair.Store(true) }

// FairActive reports whether fair-share banding influences dispatch.
func (s *Sched) FairActive() bool { return s.fair.Load() }

// Slice returns the configured time-slice length.
func (s *Sched) Slice() int64 { return s.slice }

// ─── idle-CPU mask ───────────────────────────────────────────────────────

// setIdle marks cpu idle.
func (s *Sched) setIdle(cpu int) {
	w, b := cpu/64, uint(cpu%64)
	for {
		v := s.idle[w].Load()
		if s.idle[w].CompareAndSwap(v, v|1<<b) {
			return
		}
	}
}

// claimIdle claims any idle CPU, returning its id or -1.
func (s *Sched) claimIdle() int {
	for w := range s.idle {
		for {
			v := s.idle[w].Load()
			if v == 0 {
				break
			}
			b := bits.TrailingZeros64(v)
			if s.idle[w].CompareAndSwap(v, v&^(1<<uint(b))) {
				return w*64 + b
			}
		}
	}
	return -1
}

// claimThis claims the specific idle cpu; false if it was not idle.
func (s *Sched) claimThis(cpu int) bool {
	w, b := cpu/64, uint(cpu%64)
	for {
		v := s.idle[w].Load()
		if v&(1<<b) == 0 {
			return false
		}
		if s.idle[w].CompareAndSwap(v, v&^(1<<b)) {
			return true
		}
	}
}

// ─── self-checks ─────────────────────────────────────────────────────────
//
// Always on, a few atomic loads each: a broken dispatch invariant panics
// where it is broken, naming the process and CPU, instead of surfacing
// later as a wedge.

// mustHoldCPU panics unless p is the process on p.CPU: a process gives up
// only its own CPU, and only while it is running.
func (s *Sched) mustHoldCPU(p *proc.Proc, op string) int {
	cpu := int(p.CPU.Load())
	if cpu < 0 || s.cpuProc[cpu].Load() != p {
		panic(fmt.Sprintf("sched: %s of pid %d (%s), which is not the process on CPU %d", op, p.PID, p.Name, cpu))
	}
	return cpu
}

// mustBeOffCPU panics if p still holds a CPU or a CPU slot: a process is
// queued or dispatched only after it has given its last CPU away.
func (s *Sched) mustBeOffCPU(p *proc.Proc, op string) {
	if cpu := p.CPU.Load(); cpu >= 0 {
		panic(fmt.Sprintf("sched: %s of pid %d (%s), which is still on CPU %d", op, p.PID, p.Name, cpu))
	}
	if last := int(p.LastCPU.Load()); last >= 0 && last < len(s.cpuProc) && s.cpuProc[last].Load() == p {
		panic(fmt.Sprintf("sched: %s of pid %d (%s), which still owns the slot of CPU %d", op, p.PID, p.Name, last))
	}
}

// ─── ready / dispatch ────────────────────────────────────────────────────

// Ready makes p runnable, dispatching it immediately if a CPU is idle.
func (s *Sched) Ready(p *proc.Proc) {
	p.SetState(proc.SReady)
	if g := p.ShareGrp(); g != nil && g.Gang() {
		s.sawGang.Store(true)
	}
	if cpu := s.claimIdle(); cpu >= 0 {
		s.dispatch(p, cpu)
		return
	}
	s.enqueue(p)
	// Close the lost-wakeup race: a CPU may have gone idle between the
	// claim attempt above and the enqueue.
	s.kickIdle()
}

// enqueue places p on its last CPU's queue (cache affinity). A fresh
// process with no dispatch history spreads round-robin.
func (s *Sched) enqueue(p *proc.Proc) {
	s.mustBeOffCPU(p, "enqueue")
	cpu := int(p.LastCPU.Load())
	if cpu < 0 || cpu >= len(s.queues) {
		cpu = int(s.rr.Add(1)) % len(s.queues)
	}
	q := s.queues[cpu]
	seq := s.readySeq.Add(1)
	q.mu.Lock()
	q.q = append(q.q, entry{p: p, seq: seq})
	if pr := p.Prio.Load(); pr > q.maxPrio.Load() {
		q.maxPrio.Store(pr)
	}
	if o := q.oldest.Load(); seq < o {
		q.oldest.Store(seq)
	}
	if s.fair.Load() {
		if b := s.bandOf(p); b < q.minBand.Load() {
			q.minBand.Store(b)
		}
	}
	q.mu.Unlock()
	s.queued.Add(1)
}

// kickIdle pairs queued work with idle CPUs until one of them runs out.
func (s *Sched) kickIdle() {
	for s.queued.Load() > 0 {
		cpu := s.claimIdle()
		if cpu < 0 {
			return
		}
		next := s.pickNext(cpu)
		if next == nil {
			s.setIdle(cpu)
			return
		}
		s.dispatch(next, cpu)
	}
}

// dispatch hands cpu to p. The caller must own cpu exclusively (it claimed
// the idle bit or is vacating the CPU itself).
func (s *Sched) dispatch(p *proc.Proc, cpu int) {
	s.mustBeOffCPU(p, "dispatch")
	if r := s.cpuProc[cpu].Swap(p); r != nil {
		panic(fmt.Sprintf("sched: dispatch of pid %d (%s) onto CPU %d, which pid %d (%s) owns", p.PID, p.Name, cpu, r.PID, r.Name))
	}
	p.SetState(proc.SRun)
	p.CPU.Store(int32(cpu))
	p.LastCPU.Store(int32(cpu))
	p.Dispatched.Add(1)
	c := s.machine.CPUs[cpu]
	slice := s.slice
	if hit, draw := s.FI.Decide(faultinject.SiteDispatch, uint32(p.PID)); hit {
		// Forced near-immediate preemption: a fraction of the normal slice,
		// plus a dispatch stall.
		slice = 1 + int64(draw>>16)%(s.slice/4+1)
		c.Charge(hw.DispatchStall, 1)
		s.FI.Note(faultinject.SiteDispatch, faultinject.FaultPreempt, uint32(p.PID))
	}
	p.SliceLeft.Store(slice)
	p.RunStamp.Store(p.Cycles.Load())
	c.Charge(hw.ContextSwitch, 1)
	s.Dispatches.Add(1)
	s.machine.Trace.Record(trace.EvDispatch, int32(p.PID), int32(cpu), 0, 0)
	p.RunGate <- cpu
}

// releaseCPU takes p off its CPU, handing the CPU to the best ready
// process or marking it idle.
func (s *Sched) releaseCPU(p *proc.Proc) {
	cpu := int(p.CPU.Swap(-1))
	if cpu < 0 {
		return
	}
	s.cpuProc[cpu].Store(nil)
	s.findWork(cpu)
}

// findWork gives the vacated cpu to the best ready process, or marks it
// idle — re-checking the queues after publishing the idle bit so an
// enqueue racing with the release cannot strand work.
func (s *Sched) findWork(cpu int) {
	for {
		if next := s.pickNext(cpu); next != nil {
			s.dispatch(next, cpu)
			return
		}
		s.setIdle(cpu)
		if s.queued.Load() == 0 || !s.claimThis(cpu) {
			return
		}
	}
}

// ─── picking and stealing ────────────────────────────────────────────────

// ageSlack bounds how much machine-wide FIFO order a local pick may skip:
// a CPU keeps serving its own queue until an equal-score process elsewhere
// is more than this many enqueues older, then the steal scan fetches the
// aged one. Small enough that no process starves behind a busy CPU's
// private rotation, large enough that balanced load almost never scans.
func (s *Sched) ageSlack() uint64 { return uint64(4 * len(s.queues)) }

// pickNext removes and returns the best ready process for cpu: highest
// score (priority doubled, plus the gang-affinity boost), oldest first
// within a score — machine-wide. The fast path consults only cpu's own
// queue, using the other queues' lock-free hints to prove no remote
// candidate can beat (or is aged enough to displace) the local best; only
// when a hint says otherwise does the slow steal scan run.
func (s *Sched) pickNext(cpu int) *proc.Proc {
	gangScan := s.sawGang.Load() // gang affinity can influence dispatch at all
	fair := s.fair.Load()
	if fair {
		s.FairPasses.Add(1)
	}
	own := s.queues[cpu]

	own.mu.Lock()
	li, lscore, lband, lseq := s.bestOf(own)
	steal := false
	for i, q := range s.queues {
		if i == cpu {
			continue
		}
		h := q.maxPrio.Load()
		if h == noPrio {
			continue
		}
		if li < 0 {
			steal = true
			break
		}
		bound := int(h) * 2
		if gangScan {
			bound++
		}
		if bound > lscore {
			steal = true
			break
		}
		if bound == lscore {
			// A remote queue whose best candidate sits in a lower fair-share
			// band (a more under-delivered group) displaces the local pick,
			// so banding biases the work-stealing scan too, not just queue
			// order — one hot group cannot hide behind per-CPU affinity.
			if fair {
				if rb := q.minBand.Load(); rb != noBand && rb < lband {
					steal = true
					break
				}
			}
			if o := q.oldest.Load(); o != noSeq && o+s.ageSlack() < lseq {
				steal = true
				break
			}
		}
	}
	if !steal {
		if li < 0 {
			own.mu.Unlock()
			return nil
		}
		p := s.removeAt(own, li)
		own.mu.Unlock()
		s.queued.Add(-1)
		s.LocalPicks.Add(1)
		return p
	}
	own.mu.Unlock()
	return s.pickStealing(cpu)
}

// pickStealing is the slow pick path: peek every queue (own first, then
// the others in CPU order, one lock at a time), choose the globally best
// candidate — highest score, then lowest band, then oldest ready stamp —
// and re-verify and pop it.
func (s *Sched) pickStealing(cpu int) *proc.Proc {
	s.StealScans.Add(1)
	for attempt := 0; attempt < 4; attempt++ {
		bestQ, bestScore := -1, math.MinInt
		bestBand := int32(noBand)
		bestSeq := uint64(noSeq)
		scan := func(i int) {
			q := s.queues[i]
			if i != cpu && q.maxPrio.Load() == noPrio {
				return
			}
			q.mu.Lock()
			idx, sc, band, seq := s.bestOf(q)
			q.mu.Unlock()
			if idx < 0 {
				return
			}
			if sc > bestScore || (sc == bestScore &&
				(band < bestBand || (band == bestBand && seq < bestSeq))) {
				bestQ, bestScore, bestBand, bestSeq = i, sc, band, seq
			}
		}
		scan(cpu)
		for i := range s.queues {
			if i != cpu {
				scan(i)
			}
		}
		if bestQ < 0 {
			return nil
		}
		q := s.queues[bestQ]
		q.mu.Lock()
		idx, _, _, _ := s.bestOf(q)
		if idx < 0 {
			q.mu.Unlock()
			continue // raced: the queue drained underneath us
		}
		p := s.removeAt(q, idx)
		q.mu.Unlock()
		s.queued.Add(-1)
		if bestQ == cpu {
			s.LocalPicks.Add(1)
		} else {
			s.Steals.Add(1)
		}
		return p
	}
	// Heavy contention: fall back to whatever the own queue holds.
	own := s.queues[cpu]
	own.mu.Lock()
	defer own.mu.Unlock()
	if idx, _, _, _ := s.bestOf(own); idx >= 0 {
		p := s.removeAt(own, idx)
		s.queued.Add(-1)
		s.LocalPicks.Add(1)
		return p
	}
	return nil
}

// bestOf returns the index, score, fair-share band, and ready stamp of the
// best process in q, or (-1, MinInt, noBand, noSeq) when empty. Ordering:
// highest score first (priority still dominates fairness), then the lowest
// band — the most under-delivered group — then oldest, preserving FIFO
// within a (score, band) class. An entry older than bandAgeBound competes
// as band 0, so the PR 1 age-bound starvation guarantee survives banding:
// no process waits forever behind a perpetually under-delivered group.
// Caller holds q.mu.
func (s *Sched) bestOf(q *runQueue) (int, int, int32, uint64) {
	best, bestScore := -1, math.MinInt
	bestBand := int32(noBand)
	bestSeq := uint64(noSeq)
	fair := s.fair.Load()
	var nowSeq, bound uint64
	if fair {
		nowSeq = s.readySeq.Load()
		bound = s.bandAgeBound()
	}
	for i, e := range q.q {
		sc := s.score(e.p)
		b := int32(0)
		if fair {
			if b = s.bandOf(e.p); b != 0 && nowSeq-e.seq > bound {
				b = 0 // aged out: the starvation bound overrides fairness
			}
		}
		if sc > bestScore || (sc == bestScore &&
			(b < bestBand || (b == bestBand && e.seq < bestSeq))) {
			best, bestScore, bestBand, bestSeq = i, sc, b, e.seq
		}
	}
	return best, bestScore, bestBand, bestSeq
}

// removeAt removes q.q[i] preserving order and refreshes the lock-free
// hints. Caller holds q.mu.
func (s *Sched) removeAt(q *runQueue, i int) *proc.Proc {
	p := q.q[i].p
	q.q = append(q.q[:i], q.q[i+1:]...)
	hint := int32(noPrio)
	old := uint64(noSeq)
	band := int32(noBand)
	fair := s.fair.Load()
	for _, e := range q.q {
		if pr := e.p.Prio.Load(); hint == noPrio || pr > hint {
			hint = pr
		}
		if e.seq < old {
			old = e.seq
		}
		if fair {
			if b := s.bandOf(e.p); b < band {
				band = b
			}
		}
	}
	q.maxPrio.Store(hint)
	q.oldest.Store(old)
	q.minBand.Store(band)
	return p
}

// bandAgeBound is the banding override horizon, in enqueue stamps: an
// entry that has waited longer competes at band 0 regardless of its
// group's usage. A multiple of ageSlack so the fair-share bound composes
// with (and stays proportional to) the share-blind one.
func (s *Sched) bandAgeBound() uint64 { return 8 * s.ageSlack() }

// bandOf returns p's group's current fair-share band (0 for ungrouped
// processes, which are not resource principals and schedule as before).
// The read refreshes a stale account first, so a group that has been idle
// regains priority without needing to run to decay its own usage.
func (s *Sched) bandOf(p *proc.Proc) int32 {
	g := p.ShareGrp()
	if g == nil {
		return 0
	}
	a := g.CPUAcct()
	a.Refresh(s.machine.TotalCycles())
	return a.Band()
}

// flushUsage charges the cycles p consumed since its last dispatch (or
// flush) to its group's fair-share account — the quantum-boundary hook
// from the per-CPU cycle accounting into the decayed usage accumulator.
// Ungrouped cycles go to a machine counter so the conservation storm can
// assert flushed == Σ group Delivered + ungrouped exactly.
func (s *Sched) flushUsage(p *proc.Proc) {
	now := p.Cycles.Load()
	delta := now - p.RunStamp.Swap(now)
	if delta <= 0 {
		return
	}
	s.FlushedCyc.Add(delta)
	if g := p.ShareGrp(); g != nil {
		g.CPUAcct().Charge(delta, s.machine.TotalCycles())
	} else {
		s.UngroupedCyc.Add(delta)
	}
}

// score ranks a ready process: doubled priority plus one when gang
// affinity applies and a group-mate is already running somewhere.
func (s *Sched) score(p *proc.Proc) int {
	sc := int(p.Prio.Load()) * 2
	grp := p.ShareGrp()
	if grp != nil && grp.Gang() {
		for i := range s.cpuProc {
			if r := s.cpuProc[i].Load(); r != nil && r.ShareGrp() == grp {
				sc++
				break
			}
		}
	}
	return sc
}

// ─── blocking, preemption, exit ──────────────────────────────────────────

// Block implements proc.Scheduler: release the CPU, sleep until the wake
// token arrives, then contend for a CPU again. Called by p's own goroutine.
// A blocked process is off every run queue — it costs the dispatcher
// nothing until its wake token arrives.
func (s *Sched) Block(p *proc.Proc, reason string) {
	s.sleep(p, "Block", reason, nil)
}

// Park is the checkpoint-freeze sleep: release the CPU and wait until the
// gate channel closes. Unlike Block it must not touch the wake-token
// channel — a parked member is not waiting for an Unblock, and consuming a
// banked token here would lose a wakeup another subsystem deposited for
// the sleep the member returns to after the thaw. It charges nothing.
func (s *Sched) Park(p *proc.Proc, gate <-chan struct{}) {
	s.sleep(p, "Park", "ckpt-freeze", gate)
}

// sleep is the one way a process gives up its CPU to wait: settle the
// quantum, release the CPU, wait until gate closes — or, for a nil gate, a
// semaphore sleep charged SemaSleep, until p's wake token arrives — and
// queue for a CPU again. op names the caller for the self-check.
func (s *Sched) sleep(p *proc.Proc, op, reason string, gate <-chan struct{}) {
	cpu := s.mustHoldCPU(p, op)
	s.flushUsage(p)
	if p.LastSleep.Load() != reason {
		p.LastSleep.Store(reason) // boxing a string allocates: skip a repeat
	}
	if gate == nil {
		s.machine.CPUs[cpu].Charge(hw.SemaSleep, 1)
	}
	s.Sleeps.Add(1)
	s.machine.Trace.Record(trace.EvBlock, int32(p.PID), int32(cpu), 0, 0)
	s.releaseCPU(p)
	p.SetState(proc.SSleep)
	if gate == nil {
		p.WaitWake()
	} else {
		<-gate
	}
	s.machine.Trace.Record(trace.EvUnblock, int32(p.PID), -1, 0, 0)
	s.Ready(p)
	<-p.RunGate
}

// gangSticky reports whether p should keep its CPU at a preemption point:
// p is a gang-scheduled group member, a group-mate is running on another
// CPU, and no member of the same group is waiting in any run queue. This
// is the co-scheduling half of the §8 extension — rotating a member out in
// favour of an unrelated process would leave its spinning partners running
// against a descheduled peer.
func (s *Sched) gangSticky(p *proc.Proc) bool {
	grp := p.ShareGrp()
	if grp == nil || !grp.Gang() {
		return false
	}
	mateRunning := false
	for i := range s.cpuProc {
		if r := s.cpuProc[i].Load(); r != nil && r != p && r.ShareGrp() == grp {
			mateRunning = true
			break
		}
	}
	if !mateRunning {
		return false
	}
	for _, q := range s.queues {
		q.mu.Lock()
		for _, w := range q.q {
			if w.p.ShareGrp() == grp {
				q.mu.Unlock()
				return false // a group-mate needs the slot more than p does
			}
		}
		q.mu.Unlock()
	}
	return true
}

// Yield is the preemption point: when p's slice is exhausted and another
// process is ready, p surrenders its CPU and waits to be dispatched again.
//
// Every keep-the-CPU exit still yields the host thread: a woken process
// is runnable (its wake token is deposited) for a window before its
// goroutine re-enters a run queue, and when GOMAXPROCS is low a
// compute-bound process that never cedes the host holds it there until
// the Go runtime's async preemption steps in (≈ 10 ms) — all that time the
// run queue stays empty, so no simulated preemption fires and the group
// serializes. One Gosched per simulated quantum bounds that
// wake-to-runnable latency (not liveness) without measurable cost. A
// klock.Sema.V that hands the semaphore to a sleeper closes the same
// window with one Gosched of its own (DESIGN §16, "A grant runs its
// grantee").
func (s *Sched) Yield(p *proc.Proc) {
	// Every exit from Yield — preempted or keeping the CPU — re-arms the
	// slice, so this is a quantum boundary either way: flush the quantum's
	// cycles into the group's usage account before deciding.
	s.flushUsage(p)
	if s.queued.Load() == 0 {
		p.SliceLeft.Store(s.slice)
		runtime.Gosched()
		return
	}
	if s.gangSticky(p) {
		s.StickyHolds.Add(1)
		p.SliceLeft.Store(s.slice)
		runtime.Gosched()
		return
	}
	cpu := int(p.CPU.Load())
	if cpu < 0 {
		return
	}
	next := s.pickNext(cpu)
	if next == nil {
		// The queues drained while we decided: keep the CPU.
		p.SliceLeft.Store(s.slice)
		runtime.Gosched()
		return
	}
	p.CPU.Store(-1)
	s.cpuProc[cpu].Store(nil)
	p.SetState(proc.SReady)
	s.enqueue(p)
	s.Preemptions.Add(1)
	s.machine.Trace.Record(trace.EvPreempt, int32(p.PID), int32(cpu), 0, 0)
	s.dispatch(next, cpu)
	<-p.RunGate
}

// Exit releases p's CPU for good and marks it a zombie. The final flush
// settles the last partial quantum, so an exited process's cycles are
// fully accounted to its group (the conservation invariant depends on it).
func (s *Sched) Exit(p *proc.Proc) {
	s.flushUsage(p)
	s.releaseCPU(p)
	p.SetState(proc.SZomb)
}

// CurrentCPU returns the hw.CPU p occupies; it panics if p is not running
// (kernel code must be entered from the process itself).
func (s *Sched) CurrentCPU(p *proc.Proc) *hw.CPU {
	if cpu := p.CPU.Load(); cpu >= 0 {
		return s.machine.CPUs[cpu]
	}
	panic(fmt.Sprintf("sched: pid %d (%s) is not on a CPU", p.PID, p.Name))
}

// SpinQuiescent reports whether a process is queued and every CPU holds a
// process in a spin's cached-poll loop. While it holds, no process on a CPU
// can store before some slice ends, so a spinner's polls can see nothing
// new. The flag is read through the CPU slots: a spinner preempted mid-loop
// keeps its flag but holds no CPU, and whoever took its CPU counts instead.
func (s *Sched) SpinQuiescent() bool {
	if s.queued.Load() == 0 {
		return false
	}
	for i := range s.cpuProc {
		if r := s.cpuProc[i].Load(); r == nil || !r.Spinning.Load() {
			return false
		}
	}
	return true
}

// RunqLen returns the number of ready, undispatched processes.
func (s *Sched) RunqLen() int { return int(s.queued.Load()) }

// IdleCPUs returns the number of idle processors.
func (s *Sched) IdleCPUs() int {
	n := 0
	for w := range s.idle {
		n += bits.OnesCount64(s.idle[w].Load())
	}
	return n
}

// Running returns a snapshot of what each CPU is running (nil = idle).
func (s *Sched) Running() []*proc.Proc {
	out := make([]*proc.Proc, len(s.cpuProc))
	for i := range s.cpuProc {
		out[i] = s.cpuProc[i].Load()
	}
	return out
}
