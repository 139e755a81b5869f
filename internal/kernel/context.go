package kernel

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Context is the user-mode execution surface of one process: memory
// accesses run through the per-CPU software TLB and region fault handler,
// and system calls pass the kernel entry/exit points. A Context is only
// valid on the goroutine of the process it belongs to.
type Context struct {
	S *System
	P *proc.Proc

	// State kept from call to call, so a serving loop's steady state
	// allocates nothing per syscall: poll(2)'s standing interest set
	// (syscalls_poll.go; made by the first poll, withdrawn when the image
	// ends), and the kernel-side bounce buffer of read(2) and write(2)
	// (every stream and inode copies out of or into it before the call
	// returns). shoot is shootPrivate, bound by the first private-space
	// update.
	poll  *pollSet
	xfer  []byte
	shoot vm.Shoot
}

// ErrFault is the base of address faults surfaced to programs that catch
// SIGSEGV; programs without a handler are terminated instead.
type FaultError struct {
	VA    hw.VAddr
	Write bool
	Cause error
}

func (e *FaultError) Error() string {
	kind := "load"
	if e.Write {
		kind = "store"
	}
	if e.Cause != nil {
		return fmt.Sprintf("fault: %s at %#x: %v", kind, uint32(e.VA), e.Cause)
	}
	return fmt.Sprintf("fault: %s at %#x: no region", kind, uint32(e.VA))
}

// Unwrap exposes the underlying fill failure, so a caller (and the errno
// table) can distinguish an exhausted machine or group quota from a plain
// bad address with errors.Is.
func (e *FaultError) Unwrap() error { return e.Cause }

// cpu returns the CPU the process is currently executing on.
func (c *Context) cpu() *hw.CPU { return c.S.Sched.CurrentCPU(c.P) }

// charge accounts n cycles to the current CPU and takes the preemption
// check when the time slice runs out. It also latches SIGKILL promptly.
func (c *Context) charge(n int64) {
	c.cpu().Charge(n)
	c.P.Cycles.Add(n)
	if c.P.SliceLeft.Add(-n) <= 0 {
		c.S.Sched.Yield(c.P)
	}
	if c.P.Killed.Load() {
		panic(processExit{status: 128 + proc.SIGKILL})
	}
}

// DeliverSignals runs pending, unmasked signal actions: handlers execute
// on this process's own context; fatal defaults terminate it.
func (c *Context) DeliverSignals() { c.deliverPending() }

// deliverPending is the delivery core: it consumes every pending unmasked
// signal and reports whether a caught handler actually ran. Fatal
// defaults unwind the process; signals whose default action discards them
// (SIGCLD) are consumed without counting as a delivery — the distinction
// SpinWait32 needs, because a spin must break with EINTR only when the
// process observably handled a signal, not when the kernel threw one
// away.
func (c *Context) deliverPending() bool {
	delivered := false
	for {
		sig := c.P.PendingSignal()
		if sig == 0 {
			return delivered
		}
		h, fatal := c.P.SignalAction(sig)
		c.S.Machine.Trace.Record(trace.EvSignal, int32(c.P.PID), c.P.CPU.Load(), uint64(sig), 0)
		switch {
		case h != nil:
			h(sig)
			delivered = true
		case fatal:
			panic(processExit{status: 128 + sig})
		}
	}
}

// freezePark is the checkpoint safepoint slow path: the process has a
// pending freeze gate, so park on it until the initiator thaws the group.
// The loop re-checks after waking — a new checkpoint may have installed a
// fresh gate while this one was opening. The safepoints that call this
// (the top of access, the kernel entry, and exit before reap) precede any
// lock acquisition, so a parked member never holds a kernel lock, and
// every user-visible store passes through access first, so no store is in
// flight past a safepoint the member already crossed.
func (c *Context) freezePark() {
	p := c.P
	for {
		g := p.Freeze()
		if g == nil {
			return
		}
		p.MarkParked(g)
		c.S.Sched.Park(p, g.Thaw())
		p.ClearParked(g)
	}
}

// access is the bracket every user-mode memory access runs in: op runs on
// va's frame while the CPU's TLB lock pins the translation (hw.TLB.Access), so
// no frame number outlives the entry that named it and a shootdown that has
// returned has waited out every touch. A miss takes the fault path — the
// private pregion list, then the group's shared list under the shared read
// lock (paper §6.2) — which ends in the access itself; a fault that could not
// serve it probes again. The freeze check on entry is the memory-access
// checkpoint safepoint: it runs before the access is charged or resolved, so
// a member parked here has not yet landed its store.
func (c *Context) access(va hw.VAddr, write bool, op func(hw.PFN)) error {
	if c.P.FreezePending() {
		c.freezePark()
	}
	c.charge(c.S.Machine.Cost.MemAccess)
	if inPRDA(va) {
		pfn, err := c.translatePRDA(va, write)
		if err == nil {
			op(pfn)
		}
		return err
	}
	for !c.cpu().TLB.Access(va.VPN(), c.P.ASID, write, op) {
		if done, err := c.fault(va, write, op); done || err != nil {
			return err
		}
	}
	return nil
}

// reprobe is a further TLB.Access for an access whose first probe was already
// counted — a spin's confirmation of its hint: its hit is not a second.
func (c *Context) reprobe(va hw.VAddr, write bool, op func(hw.PFN)) bool {
	tlb := &c.cpu().TLB
	ok := tlb.Access(va.VPN(), c.P.ASID, write, op)
	if ok {
		tlb.Hits.Add(-1)
	}
	return ok
}

// inPRDA reports whether va lies in the process data area.
func inPRDA(va hw.VAddr) bool {
	return va >= vm.PRDABase && va < vm.PRDABase+hw.VAddr(vm.PRDAPages*hw.PageSize)
}

// translatePRDA resolves the process data area. Every VM-sharing member
// runs under the group's ASID yet has a private page at the same fixed
// virtual address (paper §5.1), so the translation can never be cached in
// the ordinary TLB — IRIX wires it into a reserved, per-process TLB slot
// reloaded on context switch, modelled here as a fixed-cost lookup that
// bypasses the shared TLB. Only its owner can reach the page and it lives as
// long as the owner's image, so its frame number may leave unpinned.
func (c *Context) translatePRDA(va hw.VAddr, write bool) (hw.PFN, error) {
	pr := c.P.Private.Find(va)
	if pr == nil {
		return hw.NoPFN, c.segv(va, write, fmt.Errorf("no PRDA"))
	}
	pfn, _, res, _, err := pr.Reg.FillAccounted(pr.PageIndex(va), write, c.cpu().ID, c.frameAcct())
	if err != nil {
		return hw.NoPFN, c.segv(va, write, err)
	}
	if res == vm.FillZeroed {
		c.cpu().Charge(c.S.Machine.Cost.PageFault + c.S.Machine.Cost.PageZero)
	}
	return pfn, nil
}

// frameAcct returns the group frame account every frame this process
// acquires is charged to, or nil when it is not in a share group.
func (c *Context) frameAcct() *hw.FrameAcct {
	if sa := groupOf(c.P); sa != nil {
		return sa.FrameAcct()
	}
	return nil
}

// fault is the TLB-miss / protection-fault handler: it resolves va, then
// installs the translation in the TLB of the CPU the process is on after the
// fill (the read lock can sleep and the process resume elsewhere) and runs op
// on the frame under the same hold of that TLB's lock (hw.TLB.Fill); it
// reports whether op ran. A shared fill is checked there against the update
// generation, read before ResolveShared: core.UpdateVM bumps it on entry, so
// a fill that sees it unmoved was resolved before any update began, and such
// an update frees nothing before its flush, which needs this TLB's lock and
// so waits out op and drops the entry. A fill that sees it moved is dropped
// unused — nothing resolved before an update is installed after it — and
// access faults once more, behind the update.
//
// A fill refused by the group's frame quota does not surface immediately: the
// group's own all-zero pages are reclaimed first and the fill retried, so a
// group running against its cap degrades (refault + rezero) before it fails —
// the same reclaim-before-ENOMEM contract the allocator's cache drain gives
// machine-wide exhaustion, scoped to one group.
func (c *Context) fault(va hw.VAddr, write bool, op func(hw.PFN)) (bool, error) {
	c.cpu().Faults.Add(1)
	c.S.Machine.Trace.Record(trace.EvFault, int32(c.P.PID), c.P.CPU.Load(), uint64(va), 0)

	// The frame account and its quota reclaim belong to every member of a
	// group; the shared pregion list only to those sharing PR_SADDR.
	grp, sa := groupOf(c.P), c.vmGroup()
	var acct *hw.FrameAcct
	if grp != nil {
		acct = grp.FrameAcct()
	}

	var pfn hw.PFN
	var writable bool
	var res vm.FillResult
	var lazyPages int
	var gen uint64
	var err error

	for attempt := 0; ; attempt++ {
		found := false
		var lazy int
		if pr := c.P.Private.Find(va); pr != nil {
			sa = nil // only the process itself edits its private list
			pfn, writable, res, lazy, err = pr.Reg.FillAccounted(pr.PageIndex(va), write, c.cpu().ID, acct)
			found = true
		} else if sa != nil {
			gen = sa.Generation()
			pfn, writable, res, lazy, found, err = sa.ResolveShared(c.P, va, write)
		}
		lazyPages += lazy
		if !found {
			return false, c.segv(va, write, nil)
		}
		if err == nil {
			break
		}
		if grp != nil && attempt < 2 && errors.Is(err, hw.ErrNoQuota) &&
			grp.ReclaimQuota(c.P) > 0 {
			continue
		}
		return false, c.segv(va, write, err)
	}

	cpu := c.cpu() // nothing below sleeps or yields
	switch res {
	case vm.FillCached:
		cpu.Charge(c.S.Machine.Cost.TLBRefill)
	case vm.FillZeroed:
		cpu.Charge(c.S.Machine.Cost.PageFault + c.S.Machine.Cost.PageZero)
	case vm.FillCopied:
		cpu.Charge(c.S.Machine.Cost.PageFault + c.S.Machine.Cost.PageCopy)
	}
	if lazyPages > 0 {
		// First touch materialized a lazy duplication: the table walk the
		// spawn deferred is charged here, to the CPU that needed it, and
		// recorded so ktrace can show where creation cost actually landed.
		cpu.Charge(int64(lazyPages) * c.S.Machine.Cost.RegionDup)
		c.S.Machine.Trace.Record(trace.EvLazyBreak, int32(c.P.PID), int32(cpu.ID), uint64(va), uint32(lazyPages))
	}
	var valid func() bool
	if sa != nil {
		valid = func() bool { return sa.Generation() == gen }
	}
	return cpu.TLB.Fill(va.VPN(), c.P.ASID, pfn, writable, write, valid, op), nil
}

// segv delivers the address fault: a process with a SIGSEGV handler gets
// the handler plus an error return; anything else dies.
func (c *Context) segv(va hw.VAddr, write bool, cause error) error {
	ferr := &FaultError{VA: va, Write: write, Cause: cause}
	if h, _ := c.P.SignalAction(proc.SIGSEGV); h != nil {
		h(proc.SIGSEGV)
		return ferr
	}
	panic(processExit{status: 128 + proc.SIGSEGV})
}

// Load32 loads the 32-bit word at va (va must be word aligned).
func (c *Context) Load32(va hw.VAddr) (v uint32, err error) {
	if va&3 != 0 {
		return 0, c.segv(va, false, fmt.Errorf("unaligned load"))
	}
	err = c.access(va, false, func(pfn hw.PFN) { v = c.S.Machine.Mem.LoadWord(pfn, va.Offset()>>2) })
	return v, err
}

// Store32 stores v at word-aligned va.
func (c *Context) Store32(va hw.VAddr, v uint32) error {
	if va&3 != 0 {
		return c.segv(va, true, fmt.Errorf("unaligned store"))
	}
	return c.access(va, true, func(pfn hw.PFN) { c.S.Machine.Mem.StoreWord(pfn, va.Offset()>>2, v) })
}

// CAS32 performs the hardware interlocked compare-and-swap at va — the
// primitive user-level busy-wait locks are built on (paper §3).
func (c *Context) CAS32(va hw.VAddr, old, new uint32) (swapped bool, err error) {
	if va&3 != 0 {
		return false, c.segv(va, true, fmt.Errorf("unaligned CAS"))
	}
	err = c.access(va, true, func(pfn hw.PFN) { swapped = c.S.Machine.Mem.CASWord(pfn, va.Offset()>>2, old, new) })
	return swapped, err
}

// Add32 atomically adds delta at va, returning the new value.
func (c *Context) Add32(va hw.VAddr, delta uint32) (v uint32, err error) {
	if va&3 != 0 {
		return 0, c.segv(va, true, fmt.Errorf("unaligned add"))
	}
	err = c.access(va, true, func(pfn hw.PFN) { v = c.S.Machine.Mem.AddWord(pfn, va.Offset()>>2, delta) })
	return v, err
}

// LoadBytes copies len(dst) bytes from va, crossing pages as needed.
func (c *Context) LoadBytes(va hw.VAddr, dst []byte) error {
	for len(dst) > 0 {
		n := min(hw.PageSize-int(va.Offset()), len(dst))
		if err := c.access(va, false, func(pfn hw.PFN) { c.S.Machine.Mem.ReadBytes(pfn, va.Offset(), dst[:n]) }); err != nil {
			return err
		}
		c.charge(int64(n / 64)) // bulk transfer cost beyond the first access
		dst = dst[n:]
		va += hw.VAddr(n)
	}
	return nil
}

// StoreBytes copies src to va, crossing pages as needed.
func (c *Context) StoreBytes(va hw.VAddr, src []byte) error {
	for len(src) > 0 {
		n := min(hw.PageSize-int(va.Offset()), len(src))
		if err := c.access(va, true, func(pfn hw.PFN) { c.S.Machine.Mem.WriteBytes(pfn, va.Offset(), src[:n]) }); err != nil {
			return err
		}
		c.charge(int64(n / 64))
		src = src[n:]
		va += hw.VAddr(n)
	}
	return nil
}

// SpinPollBatch is the number of cached polls a spinner runs between
// full-cost refreshes — one "round" of SpinWaitBounded's budget.
const SpinPollBatch = 4096

// SpinWait32 busy-waits until pred is true of the word at va and returns
// the observed value. It models a processor spinning on a cached word
// (paper §3: "processes that attempt to acquire the lock simply loop"):
// the first access and periodic refreshes go through the MMU at full cost,
// but failed polls run against the local cache and cost almost nothing.
// A small periodic charge keeps the spinner preemptible, so a descheduled
// partner can still be dispatched — the situation gang scheduling (§8)
// exists to avoid.
//
// At each full-cost refresh the spinner polls for pending unmasked
// signals: a caught handler runs and the spin returns ErrInterrupt
// (EINTR), and a fatal default terminates the process — so a spinner
// orphaned by a dead partner dies on kill instead of looping forever.
// Discarded signals (default-ignored SIGCLD) do not break the spin.
func (c *Context) SpinWait32(va hw.VAddr, pred func(uint32) bool) (uint32, error) {
	for {
		v, done, err := c.spinBatch(va, pred)
		if done || err != nil {
			return v, err
		}
	}
}

// SpinWaitBounded is SpinWait32 with a budget: at most rounds full-cost
// refreshes of SpinPollBatch cached polls each. It reports done=false
// when the budget expires without pred holding — the point where a hybrid
// spin-then-block primitive stops burning the processor and falls back to
// blockproc(2).
func (c *Context) SpinWaitBounded(va hw.VAddr, pred func(uint32) bool, rounds int) (v uint32, done bool, err error) {
	for r := 0; r < rounds; r++ {
		v, done, err = c.spinBatch(va, pred)
		if done || err != nil {
			return v, done, err
		}
	}
	return v, false, nil
}

// spinBatch runs one refresh-plus-cached-polls round of a spin wait.
func (c *Context) spinBatch(va hw.VAddr, pred func(uint32) bool) (uint32, bool, error) {
	// Signal poll at the refresh boundary: without it a spinner whose
	// partner died holding the lock is unkillable except by SIGKILL.
	if c.P.UnmaskedPending(0) && c.deliverPending() {
		return 0, false, ErrInterrupt
	}
	// Full-cost access: re-translates, honouring remaps, and keeps the
	// TLB entry warm.
	v, err := c.Load32(va)
	if err != nil {
		return 0, false, err
	}
	if pred(v) {
		return v, true, nil
	}
	// The polls load from the frame the translation named, unpinned: a load
	// cannot hurt a frame a remap has freed, but what it saw there is only a
	// hint, so load runs again under the TLB lock before the value is returned,
	// and a flushed entry ends the round. The PRDA is in no TLB (translatePRDA).
	var frame hw.PFN
	word, prda := va.Offset()>>2, inPRDA(va)
	load := func(pfn hw.PFN) { frame, v = pfn, c.S.Machine.Mem.LoadWord(pfn, word) }
	if err := c.access(va, false, load); err != nil {
		return 0, false, err
	}
	// Flagged only here, where nothing faults or sleeps; a preemption
	// inside charge keeps the flag, and the defer clears it on every exit.
	c.P.Spinning.Store(true)
	defer c.P.Spinning.Store(false)
	for i := 0; i < SpinPollBatch; {
		if load(frame); pred(v) {
			if !prda && !c.reprobe(va, false, load) {
				return v, false, nil
			}
			if pred(v) {
				return v, true, nil
			}
		}
		next, drips := spinAdvance(i, c.S.Sched.SpinQuiescent())
		if drips > 0 {
			// Cache spin: near-zero cost per poll, but enough drip
			// charge that a spinner exhausts its slice and can be
			// preempted in reasonable time when CPUs are overcommitted.
			c.charge(drips)
		}
		i = next
		runtime.Gosched()
	}
	return v, false, nil
}

// spinPollsPerCycle is how many cached polls one drip cycle pays for.
const spinPollsPerCycle = 8

// spinAdvance returns the virtual poll count after the real poll at i and the
// drip cycles crossed. While Sched.SpinQuiescent holds nothing can change
// before a slice ends, so one yield stands for a drip cycle's polls, clipped
// to the batch: refreshes and SpinWaitBounded's rounds fall where they did.
func spinAdvance(i int, quiescent bool) (next int, drips int64) {
	next = i + 1
	if quiescent {
		next = min(i+spinPollsPerCycle, SpinPollBatch)
	}
	return next, int64(next/spinPollsPerCycle - i/spinPollsPerCycle)
}

// StackBase returns the lowest address of this process's stack region.
func (c *Context) StackBase() hw.VAddr {
	if c.P.Stack != nil {
		return c.P.Stack.Base
	}
	return 0
}
