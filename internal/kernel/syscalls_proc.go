package kernel

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hw"
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

// spawnSpec describes a new process as data about resources — the paper's
// shmask-by-resource table (§5.1; DESIGN.md "The creation table") with the
// placement and charges each creating call adds. It never says which call
// is asking.
type spawnSpec struct {
	name string
	arg  int64 // entry argument, recorded for checkpoints

	// join makes the child a member of the caller's share group (created
	// on first use) holding mask; without it the child stands alone and
	// mask is unused. A member with PR_SADDR runs in the group's space on
	// a stack carved from it; every other child gets a copy-on-write image
	// of everything the caller sees, plus — inside a group — a fresh PRDA
	// and a private carved stack.
	join bool
	mask proc.Mask

	// Stack placement for a member: an exact base (0 = the next free
	// range) and a size in pages (0 = the caller's PR_SETSTACKSIZE).
	stackAt    hw.VAddr
	stackPages int

	// Descriptors: a member with PR_SFDS takes the block's table. Any other
	// child gets a private one — reopened from a checkpoint image's recorded
	// paths when reopenFds is set, else a duplicate of the caller's.
	reopenFds bool
	fdImage   []ckpt.FdImage

	cost      int64  // fixed charge: Cost.ProcCreate or Cost.ThreadCreate
	chargeFds bool   // also charge Cost.FDTableCopy per descriptor the caller holds
	kind      uint32 // trace.Create* kind recorded with EvCreate
}

// spawn builds a process from spec and enters it in the process table, its
// parent's child list and, for a member, the share group — not yet
// started; the caller hands it to startProc. It is the only creation path:
// fork, sproc, thread_create and restore's respawn differ in the spec they
// pass. The child is linked in only after the last step that can fail (a
// stack collision, a vanished file, a kill landing on a charge); until then
// everything it was given is taken back, so a failed spawn leaves nothing
// for wait(2) to hang on.
func (c *Context) spawn(spec spawnSpec) (*proc.Proc, error) {
	p := c.P
	mach := c.S.Machine
	if c.S.NProcs() >= c.S.cfg.MaxProcs { // the PR_MAXPROCS per-user limit
		return nil, ErrTooMany
	}
	var sa *core.ShAddr
	if spec.join {
		sa = c.shareGroup()
		// The group's own member ceiling (setshares MemberCap) is enforced
		// here, like the per-user limit above: EAGAIN, before the child
		// exists, so the gateway's sfRetry backoff applies and attrition
		// can admit the call on a later attempt.
		if cap := sa.MemberCap(); cap > 0 && sa.Size() >= int(cap) {
			return nil, ErrTooMany
		}
	}

	// The child starts with the caller's identity, limits, signal state and
	// held directories; what it shares it adopts from the block on joining.
	child := proc.New(c.S.allocPID(), spec.name)
	child.Sched = c.S.Sched
	child.PPID = p.PID
	child.Arg = spec.arg
	ownFds := sa == nil || spec.mask&proc.PRSFDS == 0
	nfds := 0
	p.Mu.Lock()
	child.Uid, child.Gid = p.Uid, p.Gid
	child.Umask = p.Umask
	child.Ulimit = p.Ulimit
	child.StackMax = p.StackMax
	child.FdMax = p.FdMax
	child.Prio.Store(p.Prio.Load())
	child.SigMask = p.SigMask
	child.Handlers = p.Handlers
	child.Cdir, child.Rdir = p.Cdir.Hold(), p.Rdir.Hold()
	if ownFds && !spec.reopenFds {
		child.Fd, child.FdFlags = p.DupFdTable()
	}
	if spec.chargeFds {
		nfds = p.OpenFdCount()
	}
	p.Mu.Unlock()
	if spec.stackPages > 0 {
		child.StackMax = spec.stackPages
	}

	linked := false
	defer func() {
		if !linked {
			c.unbuild(child, sa)
		}
	}()

	if ownFds && spec.reopenFds {
		if err := c.restoreFds(child, spec.fdImage); err != nil {
			return nil, err
		}
	}

	// Virtual memory. A member with PR_SADDR runs in the group's space: its
	// stack is carved from it and its private list (the PRDA) maps from its
	// arena. Any other child gets an image of everything the caller sees.
	charge := spec.cost + int64(nfds)*mach.Cost.FDTableCopy
	if sa != nil && spec.mask&proc.PRSADDR != 0 {
		child.ASID = sa.ASID
		if err := sa.UpdateVM(p, func(sp *vm.Space, _ vm.Shoot) (err error) {
			child.Private = sp.Annex(c.S.freshPRDA())
			child.Stack, err = sa.CarveStack(sp, sp, child, mach.Mem, spec.stackAt, child.StackMax)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		child.ASID = mach.AllocASID()
		img := &child.Private
		*img = c.cowImage()
		if sa == nil {
			child.Stack = img.Find(stackBaseOf(p))
		} else {
			// Replace the inherited PRDA copy with a fresh private one; the
			// PRDA sits at its fixed base in every image, so the index finds
			// it without a scan. The new stack is carved from the group's
			// range but mapped in the image only: it is not visible in the
			// share group (paper §5.1).
			if pr := img.Find(vm.PRDABase); pr != nil && pr.Reg.Type == vm.RPRDA {
				_ = img.Unmap(pr, vm.NoShoot) // cannot fail: img lists pr
			}
			if err := img.MapAt(c.S.freshPRDA()); err != nil {
				return nil, err
			}
			if err := sa.UpdateVM(p, func(sp *vm.Space, _ vm.Shoot) (err error) {
				child.Stack, err = sa.CarveStack(sp, img, child, mach.Mem, 0, child.StackMax)
				return err
			}); err != nil {
				return nil, err
			}
		}
		// The duplication is charged per page under the EagerDup ablation
		// (the spawn walks every slot) and per region on the lazy path —
		// where the per-page walk is charged to whichever CPU takes the
		// first touch, by the fault handler.
		if c.S.cfg.EagerDup {
			charge += int64(img.Pages()) * mach.Cost.RegionDup
		} else {
			charge += int64(img.Len()) * mach.Cost.LazyDup
		}
	}
	c.charge(charge)

	p.Mu.Lock()
	p.Children = append(p.Children, child)
	p.Mu.Unlock()
	linked = true
	if sa != nil {
		child.SetShMask(spec.mask)
		sa.AddMember(child)
		sa.Adopt(p, child, spec.mask)
	}
	mach.Trace.Record(trace.EvCreate, int32(p.PID), p.CPU.Load(), uint64(child.PID), spec.kind)
	c.S.register(child)
	return child, nil
}

// unbuild takes back what spawn gave a child that will never run: its
// carved stack, its image, its descriptors and directories.
func (c *Context) unbuild(child *proc.Proc, sa *core.ShAddr) {
	if sa != nil {
		sa.UpdateVM(c.P, func(sp *vm.Space, shoot vm.Shoot) error {
			sa.ReleaseStack(sp, child, shoot)
			return nil
		})
	}
	child.Private.Clear()
	c.S.Machine.ShootdownSpace(nil, child.ASID)
	child.CloseAllFds()
	child.Cdir.Release()
	child.Rdir.Release()
}

// shareGroup returns the caller's share block, making the caller the
// creator of a new group when it has none.
func (c *Context) shareGroup() *core.ShAddr {
	if sa := groupOf(c.P); sa != nil {
		return sa
	}
	sa := core.NewWithOptions(c.P, core.Options{
		ExclusiveVMLock: c.S.cfg.ExclusiveVMLock,
		EagerAttrSync:   c.S.cfg.EagerAttrSync,
		Machine:         c.S.Machine,
		EagerDup:        c.S.cfg.EagerDup,
	})
	sa.CountFdSleeps(&c.S.fdSemaSleeps)
	return sa
}

// cowImage builds a copy-on-write image of everything the caller sees: its
// private list and, for a member sharing PR_SADDR, the group's shared list.
// Duplication makes previously writable frames aliased, so the space's
// cached translations are flushed on every CPU before the child can run —
// unless no duplicated region ever held a writable PTE, in which case no
// stale writable entry can exist and the flush is skipped.
func (c *Context) cowImage() (img vm.Space) {
	c.updateVM(func(sp *vm.Space, shoot vm.Shoot) error {
		spaces := c.spaces(sp)
		var flush bool
		if img, flush = spaces[0].Dup(c.S.cfg.EagerDup, spaces[1:]...); flush {
			shoot(0, vm.WholeSpace)
		}
		return nil
	})
	return img
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
		child, err := c.spawn(spawnSpec{
			name: name,
			cost: c.S.Machine.Cost.ProcCreate, chargeFds: true, kind: trace.CreateFork,
		})
		if err != nil {
			return -1, err
		}
		c.S.startProc(child, childMain)
		return child.PID, nil
	})
}

// groupOf returns p's share block, if any.
func groupOf(p *proc.Proc) *core.ShAddr {
	if sa, ok := p.ShareGrp().(*core.ShAddr); ok {
		return sa
	}
	return nil
}

// sharedRegions snapshots the group's shared pregion list under the read
// lock, taken as p.
func sharedRegions(sa *core.ShAddr, p *proc.Proc) (regs []*vm.PRegion) {
	sa.ViewVM(p, func(sp *vm.Space) { regs = sp.Regions() })
	return regs
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

// inheritMask masks a requested share mask against the caller's own —
// strict inheritance (paper §5.1). A caller not yet in a group is about to
// hold PR_SALL as its creator.
func (c *Context) inheritMask(shmask proc.Mask) proc.Mask {
	if c.P.InGroup() {
		shmask &= c.P.ShMask()
	}
	return shmask
}

// startMember spawns a member of the caller's group from spec and starts
// it at entry with the spec's argument.
func (c *Context) startMember(spec spawnSpec, entry func(*Context, int64)) (int, error) {
	child, err := c.spawn(spec)
	if err != nil {
		return -1, err
	}
	c.S.startProc(child, func(cc *Context) { entry(cc, spec.arg) })
	return child.PID, nil
}

// Sproc creates a new process within the caller's share group (creating
// the group on first use), sharing the resources selected by shmask. The
// child starts at entry with arg as its only argument, on a fresh stack
// carved from the shared space.
func (c *Context) Sproc(name string, entry func(*Context, int64), shmask proc.Mask, arg int64) (int, error) {
	return invoke(c, sysSproc, func() (int, error) {
		shmask = c.inheritMask(shmask)
		return c.startMember(spawnSpec{
			name: name, arg: arg, join: true, mask: shmask,
			cost: c.S.Machine.Cost.ProcCreate, chargeFds: shmask&proc.PRSFDS != 0, kind: trace.CreateSproc,
		}, entry)
	})
}

// ThreadCreate is the Mach-baseline creation path (paper §2, Figure 3): a
// new execution context sharing everything in the task, paying only for a
// kernel stack and thread context — no region or descriptor duplication
// (Mach threads reference the task's table directly). It is a spawn with a
// full share mask, which is exactly the paper's argument: a thread is a
// process that shares everything.
func (c *Context) ThreadCreate(name string, entry func(*Context, int64), arg int64) (int, error) {
	return invoke(c, sysThread, func() (int, error) {
		spec := spawnSpec{
			name: name, arg: arg, join: true, mask: c.inheritMask(proc.PRSALL),
			cost: c.S.Machine.Cost.ThreadCreate, kind: trace.CreateThread,
		}
		if spec.mask&proc.PRSADDR == 0 {
			// No shared space to thread in: the child is built, and
			// charged, as a process.
			spec.cost = c.S.Machine.Cost.ProcCreate
		}
		return c.startMember(spec, entry)
	})
}

// PrctlOpt selects a prctl(2) operation: the paper's §5.2 set.
type PrctlOpt int

const (
	PRMaxProcs     PrctlOpt = 1 // limit on processes per user
	PRMaxPProcs    PrctlOpt = 2 // number of processes the system can run in parallel
	PRSetStackSize PrctlOpt = 3 // set the maximum stack size (bytes)
	PRGetStackSize PrctlOpt = 4 // get the maximum stack size (bytes)
)

var prctlNames = map[PrctlOpt]string{
	PRMaxProcs: "PR_MAXPROCS", PRMaxPProcs: "PR_MAXPPROCS",
	PRSetStackSize: "PR_SETSTACKSIZE", PRGetStackSize: "PR_GETSTACKSIZE",
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

// SetGang and SetGroupPrio are the §8 scheduling extensions ("the shared
// address block ... provides a convenient handle for making scheduling
// decisions about the process group as a whole"). Both dispatch as
// prctl(2) and fail outside a share group.
func (c *Context) groupPrctl(what string, apply func(*core.ShAddr)) error {
	return invoke0(c, sysPrctl, func() error {
		sa := groupOf(c.P)
		if sa == nil {
			return fmt.Errorf("kernel: prctl: %s outside a share group", what)
		}
		apply(sa)
		return nil
	})
}

// SetGang turns gang scheduling for the caller's share group on or off.
func (c *Context) SetGang(on bool) error {
	return c.groupPrctl("setgang", func(sa *core.ShAddr) { sa.SetGang(on) })
}

// SetGroupPrio sets the scheduling priority of every member of the
// caller's share group.
func (c *Context) SetGroupPrio(prio int32) error {
	return c.groupPrctl("setgroupprio", func(sa *core.ShAddr) {
		for _, m := range sa.Members() {
			m.Prio.Store(prio)
		}
	})
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
			old := p.Private
			p.Private = sa.UnshareVM(p)
			old.Clear()
			p.ASID = c.S.Machine.AllocASID()
			if p.Stack != nil {
				p.Stack = p.Private.Find(p.Stack.Base)
			}
		}
		p.SetShMask(p.ShMask() &^ mask)
		// Synchronization bits for the withdrawn resources are now stale;
		// clear exactly those, keeping any pending sync for what remains.
		stale := uint32(mask) & proc.FSyncAny
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

		// Leave the share group before overlaying (paper §5.1). Leave flushes
		// the shared space a member ran in and withdraws its sproc stack.
		if sa := groupOf(p); sa != nil {
			sa.Leave(p)
		}

		// Tear down the old private image and take a fresh address space
		// identifier; ASIDs are never reused, so stale TLB entries for an
		// identifier only this process used can never match again and need
		// no flush.
		p.Private.Clear()
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
			// signal interrupts the call. A child that exits after the scan
			// above has posted SIGCLD, whose wake token stays banked, so
			// Block returns at once and the loop rescans.
			if p.UnmaskedPending(1 << proc.SIGCLD) {
				return [2]int{-1, 0}, ErrInterrupt
			}
			p.Block("wait(2) for child exit")
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
// entry returns immediately, and one posted between the check and the
// sleep leaves its wake token banked — the classic pause(2) race is closed.
func (c *Context) Pause() error {
	return invoke0(c, sysPause, func() error {
		for !c.P.SignalPending() {
			c.P.Block("pause(2)")
		}
		return ErrInterrupt
	})
}
