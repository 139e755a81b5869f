package kernel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/klock"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Process-management errors.
var (
	ErrNoChildren = errors.New("kernel: no children to wait for") // ECHILD
	ErrInterrupt  = errors.New("kernel: interrupted system call") // EINTR
	ErrNoProc     = errors.New("kernel: no such process")         // ESRCH
	ErrTooMany    = errors.New("kernel: too many processes")      // EAGAIN
	ErrPerm       = errors.New("kernel: operation not permitted") // EPERM
)

// Getpid returns the process id.
func (c *Context) Getpid() int {
	return invoke1(c, sysGetpid, func() int {
		return c.P.PID
	})
}

// Getppid returns the parent's process id.
func (c *Context) Getppid() int {
	return invoke1(c, sysGetppid, func() int {
		c.P.Mu.Lock()
		defer c.P.Mu.Unlock()
		return c.P.PPID
	})
}

// checkProcLimit enforces the PR_MAXPROCS per-user limit.
func (c *Context) checkProcLimit() error {
	if c.S.NProcs() >= c.S.cfg.MaxProcs {
		return ErrTooMany
	}
	return nil
}

// newChild builds the common parts of a fork/sproc child: identity copy
// and bookkeeping. VM and descriptor setup differ per call.
func (c *Context) newChild(name string) *proc.Proc {
	p := c.P
	child := proc.New(c.S.allocPID(), name)
	child.Sched = c.S.Sched
	child.PPID = p.PID
	p.Mu.Lock()
	child.Uid, child.Gid = p.Uid, p.Gid
	child.Umask = p.Umask
	child.Ulimit = p.Ulimit
	child.StackMax = p.StackMax
	child.FdMax = p.FdMax
	child.NextShm = p.NextShm
	child.Prio.Store(p.Prio.Load())
	child.SigMask = p.SigMask
	child.Handlers = p.Handlers
	p.Children = append(p.Children, child)
	p.Mu.Unlock()
	return child
}

// Fork creates a new process executing childMain with a copy-on-write
// image of the parent, a duplicated descriptor table, and the parent's
// directories. A fork by a share-group member creates the child OUTSIDE
// the group (paper §5.1), with every group-visible region left as a
// copy-on-write element of the child.
//
// Because a simulated program is a Go closure, fork cannot return twice;
// the child's program is passed explicitly instead. This is the one
// deliberate interface divergence from fork(2).
func (c *Context) Fork(name string, childMain Main) (int, error) {
	return invoke(c, sysFork, func() (int, error) {
		if err := c.checkProcLimit(); err != nil {
			return -1, err
		}
		p := c.P
		mach := c.S.Machine
		child := c.newChild(name)
		child.ASID = mach.AllocASID()

		// Descriptor table, directories.
		p.Mu.Lock()
		child.Fd, child.FdFlags = p.DupFdTable()
		child.Cdir = p.Cdir.Hold()
		child.Rdir = p.Rdir.Hold()
		nfds := p.OpenFdCount()
		p.Mu.Unlock()

		// Copy-on-write image. Duplication makes previously writable frames
		// aliased, so the parent space's cached translations are flushed on
		// every CPU before the child can run — unless no duplicated region
		// ever held a writable PTE, in which case no stale writable entry
		// can exist and the flush is skipped. The duplication itself is
		// lazy by default (O(1) per region, DESIGN.md §16); the table walk
		// is charged at first touch by the fault handler.
		cpu := c.cpu()
		if sa := groupOf(p); sa != nil {
			child.Private = sa.COWImage(p, func() { mach.ShootdownSpace(cpu, sa.ASID) })
		} else {
			child.Private = c.dupPrivate(p)
		}
		child.Stack = vm.Find(child.Private, stackBaseOf(p))

		// Charge what fork costs: proc setup plus image duplication plus
		// descriptor duplication.
		c.charge(mach.Cost.ProcCreate + int64(nfds)*mach.Cost.FDTableCopy)
		c.chargeImageDup(child.Private)

		c.S.Machine.Trace.Record(trace.EvCreate, int32(p.PID), c.P.CPU.Load(), uint64(child.PID), trace.CreateFork)
		c.S.register(child)
		c.S.startProc(child, childMain)
		return child.PID, nil
	})
}

// dupPrivate duplicates p's private pregion list for a child image,
// honoring the EagerDup ablation, and flushes the parent's space only when
// the duplication created stale writable translations (some duplicated
// region has held a writable PTE).
func (c *Context) dupPrivate(p *proc.Proc) []*vm.PRegion {
	dup := vm.DupListFlush
	if c.S.cfg.EagerDup {
		dup = vm.DupListEager
	}
	img, flush := dup(p.Private)
	if flush {
		c.S.Machine.ShootdownSpace(c.cpu(), p.ASID)
	}
	return img
}

// chargeImageDup charges the creation-time duplication cost of a child
// image: per page under the EagerDup ablation (the spawn walks every
// slot), per region on the lazy path — where the per-page walk is charged
// to whichever CPU takes the first touch, by the fault handler.
func (c *Context) chargeImageDup(img []*vm.PRegion) {
	mach := c.S.Machine
	if c.S.cfg.EagerDup {
		c.charge(int64(vm.TotalPages(img)) * mach.Cost.RegionDup)
		return
	}
	c.charge(int64(len(img)) * mach.Cost.LazyDup)
}

// groupOf returns p's share block, if any.
func groupOf(p *proc.Proc) *core.ShAddr {
	if sa, ok := p.ShareGrp().(*core.ShAddr); ok {
		return sa
	}
	return nil
}

// GroupOf exposes a process's shared address block for diagnostics and
// experiment instrumentation (sgtop, workload drivers).
func GroupOf(p *proc.Proc) *core.ShAddr { return groupOf(p) }

// stackBaseOf returns the base address of p's stack region.
func stackBaseOf(p *proc.Proc) hw.VAddr {
	if p.Stack != nil {
		return p.Stack.Base
	}
	return 0
}

// Sproc creates a new process within the caller's share group (creating
// the group on first use), sharing the resources selected by shmask. The
// child starts at entry with arg as its only argument, on a fresh stack
// carved from the shared space. The child's share mask is masked against
// the parent's — strict inheritance (paper §5.1).
func (c *Context) Sproc(name string, entry func(*Context, int64), shmask proc.Mask, arg int64) (int, error) {
	return invoke(c, sysSproc, func() (int, error) {
		return c.sproc(name, entry, shmask, arg, false)
	})
}

// ThreadCreate is the Mach-baseline creation path (paper §2, Figure 3): a
// new execution context sharing everything in the task, paying only for a
// kernel stack and thread context — no region or descriptor duplication.
// It is implemented on the share-group machinery with a full share mask,
// which is exactly the paper's argument: a thread is a process that shares
// everything.
func (c *Context) ThreadCreate(name string, entry func(*Context, int64), arg int64) (int, error) {
	return invoke(c, sysThread, func() (int, error) {
		return c.sproc(name, entry, proc.PRSALL, arg, true)
	})
}

// sproc is the shared creation path behind Sproc and ThreadCreate; the
// caller dispatches it through the gateway under its own descriptor.
func (c *Context) sproc(name string, entry func(*Context, int64), shmask proc.Mask, arg int64, asThread bool) (int, error) {
	if err := c.checkProcLimit(); err != nil {
		return -1, err
	}
	p := c.P
	mach := c.S.Machine

	// First sproc creates the share group.
	sa := groupOf(p)
	if sa == nil {
		sa = core.NewWithOptions(p, core.Options{
			ExclusiveVMLock: c.S.cfg.ExclusiveVMLock,
			EagerAttrSync:   c.S.cfg.EagerAttrSync,
			Topo:            mach.Topo,
			EagerDup:        c.S.cfg.EagerDup,
		})
	}
	// The group's own member ceiling (setshares MemberCap) is enforced
	// here, like the per-user limit above: EAGAIN, before any side effect,
	// so the gateway's sfRetry backoff applies and attrition can admit the
	// call on a later attempt.
	if cap := sa.MemberCap(); cap > 0 && sa.Size() >= int(cap) {
		return -1, ErrTooMany
	}
	shmask &= p.ShMask() // strict inheritance

	child := c.newChild(name)
	child.Arg = arg
	shareVM := shmask&proc.PRSADDR != 0

	// Virtual memory.
	cpu := c.cpu()
	if shareVM {
		child.ASID = sa.ASID
		child.Stack = sa.CarveStack(p, child, mach.Mem, child.StackMax, true)
		child.Private = []*vm.PRegion{
			{Reg: vm.NewRegion(mach.Mem, vm.RPRDA, vm.PRDAPages), Base: vm.PRDABase},
		}
		if asThread {
			c.charge(mach.Cost.ThreadCreate)
		} else {
			c.charge(mach.Cost.ProcCreate)
		}
	} else {
		// Copy-on-write image of the group's space; the new stack is
		// not visible in the share group (paper §5.1).
		child.ASID = mach.AllocASID()
		img := sa.COWImage(p, func() { mach.ShootdownSpace(cpu, sa.ASID) })
		// Replace the inherited PRDA copy with a fresh private one; the
		// PRDA sits at its fixed base in every image, so the index finds it
		// without a scan.
		if pr := vm.Find(img, vm.PRDABase); pr != nil && pr.Reg.Type == vm.RPRDA {
			img = vm.Remove(img, pr)
			pr.Reg.Detach()
		}
		img = vm.Insert(img, &vm.PRegion{Reg: vm.NewRegion(mach.Mem, vm.RPRDA, vm.PRDAPages), Base: vm.PRDABase})
		child.Stack = sa.CarveStack(p, child, mach.Mem, child.StackMax, false)
		img = vm.Insert(img, child.Stack)
		child.Private = img
		c.charge(mach.Cost.ProcCreate)
		c.chargeImageDup(img)
	}

	// Descriptors and directories: from the block when shared, from the
	// parent otherwise.
	cdir, rdir, umask, ulimit, uid, gid := sa.ShadowEnv()
	if shmask&proc.PRSFDS != 0 {
		child.Fd, child.FdFlags = sa.ShadowFds(p)
		if !asThread { // Mach threads reference the task's table directly
			p.Mu.Lock()
			nfds := p.OpenFdCount()
			p.Mu.Unlock()
			c.charge(int64(nfds) * mach.Cost.FDTableCopy)
		}
	} else {
		p.Mu.Lock()
		child.Fd, child.FdFlags = p.DupFdTable()
		p.Mu.Unlock()
	}
	child.Mu.Lock()
	if shmask&proc.PRSDIR != 0 {
		child.Cdir, child.Rdir = cdir.Hold(), rdir.Hold()
	} else {
		p.Mu.Lock()
		child.Cdir, child.Rdir = p.Cdir.Hold(), p.Rdir.Hold()
		p.Mu.Unlock()
	}
	if shmask&proc.PRSUMASK != 0 {
		child.Umask = umask
	}
	if shmask&proc.PRSULIMIT != 0 {
		child.Ulimit = ulimit
	}
	if shmask&proc.PRSID != 0 {
		child.Uid, child.Gid = uid, gid
	}
	child.Mu.Unlock()

	child.SetShMask(shmask)
	sa.AddMember(child)

	// Batched frame reservation: prepay the child's expected working set
	// against the group's account with one CAS, so a creation storm of
	// members does not serialize on per-page quota charges. A refusal
	// (quota cannot absorb the batch) just falls back to per-fill
	// charging; the reservation's remainder is returned at reap.
	if n := int64(c.S.cfg.SpawnReserve); n > 0 {
		if rv := sa.FrameAcct().Reserve(n); rv != nil {
			child.Resv = rv
			c.S.spawnReserved.Add(n)
		}
	}

	kind := trace.CreateSproc
	if asThread {
		kind = trace.CreateThread
	}
	c.S.Machine.Trace.Record(trace.EvCreate, int32(p.PID), c.P.CPU.Load(), uint64(child.PID), kind)
	c.S.register(child)
	c.S.startProc(child, func(cc *Context) { entry(cc, arg) })
	return child.PID, nil
}

// PrctlOpt selects a prctl(2) operation. The first four options are the
// paper's §5.2 set; the last two implement the §8 scheduling extensions
// ("the shared address block ... provides a convenient handle for making
// scheduling decisions about the process group as a whole").
type PrctlOpt int

const (
	PRMaxProcs     PrctlOpt = 1 // limit on processes per user
	PRMaxPProcs    PrctlOpt = 2 // number of processes the system can run in parallel
	PRSetStackSize PrctlOpt = 3 // set the maximum stack size (bytes)
	PRGetStackSize PrctlOpt = 4 // get the maximum stack size (bytes)
	// Deprecated: the raw int64-valued group options survive only as a
	// compatibility surface. New code controls a group through the typed
	// calls — SetGang/SetGroupPrio wrappers and Setshares(GroupLimits) —
	// which the gateway dispatches under their own descriptors.
	PRSetGang   PrctlOpt = 5 // value!=0: gang-schedule this share group (§8)
	PRGroupPrio PrctlOpt = 6 // set the scheduling priority of the whole group (§8)
)

var prctlNames = map[PrctlOpt]string{
	PRMaxProcs: "PR_MAXPROCS", PRMaxPProcs: "PR_MAXPPROCS",
	PRSetStackSize: "PR_SETSTACKSIZE", PRGetStackSize: "PR_GETSTACKSIZE",
	PRSetGang: "PR_SETGANG", PRGroupPrio: "PR_GROUPPRIO",
}

// String returns the symbolic option name (PR_MAXPROCS). Unknown options
// render in the stable PR_UNKNOWN(<n>) form, so log scrapers can match the
// prefix without tracking the option set.
func (o PrctlOpt) String() string {
	if n, ok := prctlNames[o]; ok {
		return n
	}
	return fmt.Sprintf("PR_UNKNOWN(%d)", int(o))
}

// Prctl queries and controls share-group features (paper §5.2).
func (c *Context) Prctl(option PrctlOpt, value int64) (int64, error) {
	return invoke(c, sysPrctl, func() (int64, error) {
		switch option {
		case PRMaxProcs:
			return int64(c.S.cfg.MaxProcs), nil
		case PRMaxPProcs:
			return int64(c.S.Machine.NCPU()), nil
		case PRSetStackSize:
			if value <= 0 {
				return -1, fmt.Errorf("kernel: prctl: bad stack size %d", value)
			}
			pages := int((value + hw.PageSize - 1) / hw.PageSize)
			c.P.Mu.Lock()
			c.P.StackMax = pages
			c.P.Mu.Unlock()
			return int64(pages) * hw.PageSize, nil
		case PRGetStackSize:
			c.P.Mu.Lock()
			defer c.P.Mu.Unlock()
			return int64(c.P.StackMax) * hw.PageSize, nil
		case PRSetGang:
			sa := groupOf(c.P)
			if sa == nil {
				return -1, fmt.Errorf("kernel: prctl: PR_SETGANG outside a share group")
			}
			sa.SetGang(value != 0)
			return value, nil
		case PRGroupPrio:
			sa := groupOf(c.P)
			if sa == nil {
				return -1, fmt.Errorf("kernel: prctl: PR_GROUPPRIO outside a share group")
			}
			for _, m := range sa.Members() {
				m.Prio.Store(int32(value))
			}
			return value, nil
		default:
			return -1, fmt.Errorf("kernel: prctl: unknown option %v", option)
		}
	})
}

// The ergonomic prctl wrappers: each is one option of the raw call with a
// properly typed result. Raw Prctl stays available for the §5.2 interface.

// MaxProcs returns the per-user process limit (PR_MAXPROCS).
func (c *Context) MaxProcs() int {
	v, _ := c.Prctl(PRMaxProcs, 0)
	return int(v)
}

// MaxPProcs returns how many processes the system can run in parallel —
// the CPU count (PR_MAXPPROCS).
func (c *Context) MaxPProcs() int {
	v, _ := c.Prctl(PRMaxPProcs, 0)
	return int(v)
}

// SetStackSize sets the maximum stack size in bytes (PR_SETSTACKSIZE) and
// returns the page-rounded size actually in effect.
func (c *Context) SetStackSize(bytes int64) (int64, error) {
	return c.Prctl(PRSetStackSize, bytes)
}

// GetStackSize returns the maximum stack size in bytes (PR_GETSTACKSIZE).
func (c *Context) GetStackSize() int64 {
	v, _ := c.Prctl(PRGetStackSize, 0)
	return v
}

// SetGang turns gang scheduling for the caller's share group on or off
// (PR_SETGANG). Fails outside a share group.
func (c *Context) SetGang(on bool) error {
	v := int64(0)
	if on {
		v = 1
	}
	_, err := c.Prctl(PRSetGang, v)
	return err
}

// SetGroupPrio sets the scheduling priority of every member of the
// caller's share group (PR_GROUPPRIO). Fails outside a share group.
func (c *Context) SetGroupPrio(prio int32) error {
	_, err := c.Prctl(PRGroupPrio, int64(prio))
	return err
}

// Unshare implements the §8 "stop sharing" extension: the caller withdraws
// the given resources from its share mask. Attribute resources simply stop
// synchronizing (the caller keeps its current private copies, which live
// in its user area already); withdrawing PR_SADDR converts the caller's
// view of the shared space into a copy-on-write private image, the same
// transition fork performs.
func (c *Context) Unshare(mask proc.Mask) error {
	return invoke0(c, sysUnshare, func() error {
		p := c.P
		sa := groupOf(p)
		if sa == nil {
			return fmt.Errorf("kernel: unshare outside a share group")
		}
		mask &= p.ShMask()
		if mask&proc.PRSADDR != 0 {
			mach := c.S.Machine
			cpu := c.cpu()
			old := p.Private
			img := sa.UnshareVM(p, func() { mach.ShootdownSpace(cpu, sa.ASID) })
			p.Private = img
			vm.DetachList(old)
			p.ASID = mach.AllocASID()
			if p.Stack != nil {
				p.Stack = vm.Find(img, p.Stack.Base)
			}
		}
		p.SetShMask(p.ShMask() &^ mask)
		// Synchronization bits for the withdrawn resources are now stale;
		// clear exactly those, keeping any pending sync for what remains.
		var stale uint32
		for _, mb := range []struct {
			m proc.Mask
			b uint32
		}{
			{proc.PRSFDS, proc.FSyncFds}, {proc.PRSDIR, proc.FSyncDir},
			{proc.PRSUMASK, proc.FSyncUmask}, {proc.PRSULIMIT, proc.FSyncUlimit},
			{proc.PRSID, proc.FSyncID},
		} {
			if mask&mb.m != 0 {
				stale |= mb.b
			}
		}
		for {
			oldBits := p.Flag.Load()
			if p.Flag.CompareAndSwap(oldBits, oldBits&^stale) {
				break
			}
		}
		return nil
	})
}

// Exec overlays the process with a new program image. The process is
// removed from its share group before the overlay, insuring a secure
// environment for the new image (paper §5.1); close-on-exec descriptors
// are closed and signal handlers reset. The body never returns: it panics
// with processExec, and the gateway's deferred exit path closes the trace
// span during the unwind.
func (c *Context) Exec(name string, main Main) error {
	return invoke0(c, sysExec, func() error {
		p := c.P

		// Leave the share group before overlaying (paper §5.1). Leave detaches
		// the member's sproc stack from the shared space with a shootdown.
		// The spawn-time frame reservation goes back with the membership:
		// the new image no longer charges the group.
		if rv := p.Resv; rv != nil {
			p.Resv = nil
			rv.Release()
		}
		if sa := groupOf(p); sa != nil {
			sa.Leave(p)
		}

		// Tear down the old private image and take a fresh address space
		// identifier; ASIDs are never reused, so stale TLB entries for the
		// old identifier can never match again and need no flush.
		vm.DetachList(p.Private)
		p.Private = nil
		p.ASID = c.S.Machine.AllocASID()

		p.Mu.Lock()
		for fd, f := range p.Fd {
			if f != nil && p.FdFlags[fd]&proc.FdCloseOnExec != 0 {
				f.Release()
				p.Fd[fd] = nil
				p.FdFlags[fd] = 0
			}
		}
		for i := range p.Handlers {
			p.Handlers[i] = nil
		}
		p.Mu.Unlock()

		c.S.newImage(p)
		c.charge(c.S.Machine.Cost.ProcCreate) // image construction
		c.S.Machine.Trace.Record(trace.EvCreate, int32(p.PID), c.P.CPU.Load(), uint64(p.PID), trace.CreateExec)
		panic(processExec{name: name, main: main})
	})
}

// Exit terminates the process with the given status. The body panics with
// processExit; the gateway's deferred exit path closes the trace span
// during the unwind.
func (c *Context) Exit(status int) {
	invoke1(c, sysExit, func() struct{} {
		panic(processExit{status: status})
	})
}

// Wait blocks until a child exits, reaps it, and returns its pid and exit
// status. It returns ErrNoChildren when no children remain and
// ErrInterrupt when a signal breaks the sleep.
func (c *Context) Wait() (int, int, error) {
	r, err := invoke(c, sysWait, func() ([2]int, error) {
		p := c.P
		for {
			p.Mu.Lock()
			if len(p.Children) == 0 {
				p.Mu.Unlock()
				return [2]int{-1, 0}, ErrNoChildren
			}
			for i, ch := range p.Children {
				select {
				case <-ch.Exited:
					p.Children = append(p.Children[:i], p.Children[i+1:]...)
					p.Mu.Unlock()
					c.S.unregister(ch)
					return [2]int{ch.PID, ch.ExitStatus}, nil
				default:
				}
			}
			p.Mu.Unlock()
			// SIGCLD must not abort wait(2): it is the very signal that
			// announces the event being waited for. Any other deliverable
			// signal interrupts the call.
			abort := func() bool { return p.UnmaskedPending(1 << proc.SIGCLD) }
			if !p.SleepInterruptibleIf(p.DeadSema, "wait(2) for child exit", abort) {
				if p.UnmaskedPending(1 << proc.SIGCLD) {
					return [2]int{-1, 0}, ErrInterrupt
				}
				// Woken by SIGCLD (or a stale token): rescan children.
			}
		}
	})
	return r[0], r[1], err
}

// Kill posts sig to the process with the given pid.
func (c *Context) Kill(pid, sig int) error {
	return invoke0(c, sysKill, func() error {
		target, ok := c.S.Lookup(pid)
		if !ok {
			return ErrNoProc
		}
		c.P.Mu.Lock()
		uid := c.P.Uid
		c.P.Mu.Unlock()
		target.Mu.Lock()
		tuid := target.Uid
		target.Mu.Unlock()
		if uid != 0 && uid != tuid {
			return ErrPerm
		}
		target.Post(sig)
		return nil
	})
}

// Signal installs handler for sig (nil restores the default action).
func (c *Context) Signal(sig int, handler proc.Handler) {
	invoke1(c, sysSignal, func() struct{} {
		c.P.SetHandler(sig, handler)
		return struct{}{}
	})
}

// Sigmask replaces the signal mask, returning the old one. SIGKILL cannot
// be masked.
func (c *Context) Sigmask(mask uint32) uint32 {
	return invoke1(c, sysSigmask, func() uint32 {
		c.P.Mu.Lock()
		old := c.P.SigMask
		c.P.SigMask = mask &^ (1 << proc.SIGKILL)
		c.P.Mu.Unlock()
		return old
	})
}

// Pause sleeps until a signal is delivered. A signal already pending on
// entry returns immediately — the check and the sleep are atomic, closing
// the classic pause(2) race.
func (c *Context) Pause() error {
	return invoke0(c, sysPause, func() error {
		s := klock.NewSema(0)
		c.P.SleepInterruptibleIf(s, "pause(2)", func() bool { return c.P.UnmaskedPending(0) })
		return ErrInterrupt
	})
}
