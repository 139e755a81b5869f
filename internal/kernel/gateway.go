package kernel

import (
	"errors"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/trace"
)

// This file is the system-call gateway: the one path every syscall in
// syscalls_{fs,vm,ipc,proc}.go crosses. A syscall body never touches the
// trap machinery itself — it hands the gateway its descriptor and a
// closure, and the gateway uniformly performs, in order:
//
//   entry:  charge the trap cost,
//           run the §6.3 single-test share-group synchronization check,
//           record the trace.EvSyscallEnter span open;
//   body:   the actual semantics;
//   exit:   normalize the error into a *SysError carrying a stable Errno,
//           charge the return-to-user cost, accumulate per-CPU and
//           per-process syscall counts and simcyc latency, record the
//           trace.EvSyscallExit span close carrying the errno, and deliver
//           pending signals.
//
// The exit half runs on panic unwinds too (exit(2), exec(2), fatal
// signals), so every EvSyscallEnter has a matching EvSyscallExit even for
// calls that never return.

// sysAcct is one CPU's syscall accounting: call counts and simcyc latency
// accumulators indexed by syscall number. One per CPU plus an overflow slot
// mirrors the trace ring's sharding, so the hot path never funnels every
// processor through shared counters.
type sysAcct struct {
	count  [NSys]atomic.Int64
	simcyc [NSys]atomic.Int64
	_      [64]byte // keep neighbouring CPUs' accumulators apart
}

// Degradation policy bounds: how often the gateway quietly absorbs a
// transient failure before letting it surface. Both bounds exist so an
// adversarial fault plan (or a genuinely wedged resource) cannot spin a
// syscall forever.
const (
	maxRestarts = 16 // EINTR auto-restarts per call (SA_RESTART policy)
	maxRetries  = 4  // EAGAIN retries per call, each charged twice the last's backoff
)

// errInjected is the underlying error of every gateway-injected fault.
var errInjected = errors.New("kernel: injected fault")

// invoke dispatches one system call through the gateway, applying the
// descriptor's degradation policy around the body:
//
//   - an armed fault plan may replace the body with an injected
//     EINTR/EAGAIN/ENOMEM failure (only errnos the descriptor permits);
//   - EINTR from a restartable call (sfRestart) delivers the pending
//     signal — a caught handler runs, a fatal default unwinds — and then
//     transparently restarts the body, as SA_RESTART would;
//   - EAGAIN from a retryable call (sfRetry) re-runs the body after an
//     escalating backoff charge.
func invoke[T any](c *Context, n Sysno, body func() (T, error)) (T, error) {
	d := &sysTable[n]
	start := c.enterSys(d)
	var eno Errno
	completed := false
	defer func() { c.exitSys(d, start, eno, completed) }()

	var ret T
	var err error
	restarts, retries := 0, 0
	for {
		if ieno := c.injectEnter(d); ieno != EOK {
			var zero T
			ret, err = zero, &SysError{Call: d.name, Num: ieno, Err: errInjected}
		} else {
			ret, err = body()
		}
		if err == nil {
			break
		}
		switch ErrnoOf(err) {
		case EINTR:
			if d.flags&sfRestart != 0 && restarts < maxRestarts {
				restarts++
				c.S.restarts.Add(1)
				// The signal that broke the wait is consumed here: its
				// handler runs on this process's context, or its fatal
				// default unwinds the call. Then the body re-runs as if
				// never interrupted.
				c.DeliverSignals()
				c.charge(hw.SyscallEntry, 1)
				continue
			}
		case EAGAIN:
			if d.flags&sfRetry != 0 && retries < maxRetries {
				retries++
				c.S.retries.Add(1)
				c.charge(hw.RetryBackoff, 1<<retries)
				continue
			}
		}
		break
	}
	if err != nil {
		eno = ErrnoOf(err)
		if _, ok := err.(*SysError); !ok {
			err = &SysError{Call: d.name, Num: eno, Err: err}
		}
	}
	completed = true
	return ret, err
}

// injectEnter asks the fault plan whether this syscall crossing should
// fail before its body runs, returning the injected errno or EOK. Calls
// whose descriptor permits no injection never consume a decision draw, so
// arming the plan does not perturb the injection sequence of the calls
// that matter.
func (c *Context) injectEnter(d *sysDesc) Errno {
	pl := c.S.faults
	if pl == nil || d.flags&(sfInjEINTR|sfInjEAGAIN|sfInjENOMEM) == 0 {
		return EOK
	}
	hit, draw := pl.Decide(faultinject.SiteSyscallEnter, uint32(d.num))
	if !hit {
		return EOK
	}
	var permitted []faultinject.Fault
	if d.flags&sfInjEINTR != 0 {
		permitted = append(permitted, faultinject.FaultEINTR)
	}
	if d.flags&sfInjEAGAIN != 0 {
		permitted = append(permitted, faultinject.FaultEAGAIN)
	}
	if d.flags&sfInjENOMEM != 0 {
		permitted = append(permitted, faultinject.FaultENOMEM)
	}
	f := permitted[int(draw>>32)%len(permitted)]
	pl.Note(faultinject.SiteSyscallEnter, f, uint32(d.num))
	switch f {
	case faultinject.FaultEINTR:
		return EINTR
	case faultinject.FaultEAGAIN:
		return EAGAIN
	default:
		return ENOMEM
	}
}

// invoke0 dispatches a syscall with no result value.
func invoke0(c *Context, n Sysno, body func() error) error {
	_, err := invoke(c, n, func() (struct{}, error) { return struct{}{}, body() })
	return err
}

// invoke1 dispatches a syscall that cannot fail.
func invoke1[T any](c *Context, n Sysno, body func() T) T {
	ret, _ := invoke(c, n, func() (T, error) { return body(), nil })
	return ret
}

// enterSys is the trap into the kernel: charge the entry cost and perform
// the single-test synchronization check of paper §6.3, then open the trace
// span. It returns the process-cycle snapshot the latency accounting closes
// against.
func (c *Context) enterSys(d *sysDesc) int64 {
	// Checkpoint safepoint: a member with a pending freeze gate parks here,
	// before the body can acquire any kernel lock or mutate kernel state
	// the checkpoint captures (fd tables, the shared region list).
	if c.P.FreezePending() {
		c.freezePark()
	}
	start := c.P.Cycles.Load()
	c.charge(hw.SyscallEntry, 1)
	if c.P.Flag.Load()&proc.FSyncAny != 0 {
		if sa := c.P.ShareGrp(); sa != nil {
			c.cpu().Charge(hw.AttrSync, 1)
			c.S.Machine.Trace.Record(trace.EvSync, int32(c.P.PID), c.P.CPU.Load(), uint64(c.P.Flag.Load()), 0)
			sa.SyncEntry(c.P)
		}
	}
	c.S.Machine.Trace.Record(trace.EvSyscallEnter, int32(c.P.PID), c.P.CPU.Load(), uint64(d.num), 0)
	return start
}

// exitSys is the return-to-user path: charge the exit cost, account the
// call, close the trace span, and — only when the body completed normally —
// deliver pending signals. On a panic unwind (exit, exec, fatal signal) the
// span closes with errno 0 and no signal delivery; the unwind carries its
// own disposition.
func (c *Context) exitSys(d *sysDesc, start int64, eno Errno, completed bool) {
	exitCost := c.cpu().Charge(hw.SyscallExit, 1)
	c.S.sysAccount(d.num, c.P, c.P.Cycles.Load()-start+exitCost)
	c.S.Machine.Trace.Record(trace.EvSyscallExit, int32(c.P.PID), c.P.CPU.Load(), uint64(d.num), uint32(eno))
	if completed {
		c.DeliverSignals()
	}
}

// sysAccount charges one completed syscall to the CPU it finished on and to
// the calling process's own profile, which its first call makes (only p's
// goroutine calls this for p).
func (s *System) sysAccount(n Sysno, p *proc.Proc, cycles int64) {
	i := int(p.CPU.Load())
	if i < 0 || i >= len(s.sysacct)-1 {
		i = len(s.sysacct) - 1
	}
	a := s.sysacct[i]
	a.count[n].Add(1)
	a.simcyc[n].Add(cycles)
	if p.SysCount.Load() == nil {
		prof := make([]atomic.Int64, NSys)
		p.SysCount.Store(&prof)
	}
	(*p.SysCount.Load())[n].Add(1)
}

// ProcSyscalls returns a process's own per-syscall call counts (nonzero
// entries only, ordered by number) — the per-member profile sgtop
// aggregates over a share group. It is nil for a process that has made no
// syscall. Safe from any goroutine.
func ProcSyscalls(p *proc.Proc) []SyscallStat {
	pc := p.SysCount.Load()
	if pc == nil {
		return nil
	}
	var out []SyscallStat
	for n := Sysno(0); n < NSys; n++ {
		if c := (*pc)[n].Load(); c > 0 {
			out = append(out, SyscallStat{Num: n, Name: SysName(n), Count: c})
		}
	}
	return out
}
