// Package proc implements the UNIX process: the proc-table entry and user
// area of a V.3 kernel — identity, environment, descriptor table, private
// pregion list, signal state — extended with the share-group fields the
// paper adds: the kernel share mask (p_shmask), the pointer to the shared
// address block, and the p_flag synchronization bits checked in a single
// test on every kernel entry (paper §6.3).
package proc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/klock"
	"repro/internal/vm"
)

// State is a process state, following the V.3 proc states.
type State int32

const (
	SIdle  State = iota // being created
	SReady              // on the run queue
	SRun                // executing on a CPU
	SSleep              // sleeping on a kernel semaphore
	SZomb               // exited, awaiting wait(2)
)

var stateNames = [...]string{"idle", "ready", "run", "sleep", "zombie"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Mask is a share mask: the shmask argument of sproc(2). Each bit names a
// resource the new process shares with the share group (paper §5.1).
type Mask uint32

const (
	PRSADDR   Mask = 1 << iota // share virtual address space
	PRSULIMIT                  // share ulimit values
	PRSUMASK                   // share umask value
	PRSDIR                     // share current/root directory
	PRSFDS                     // share open file descriptors
	PRSID                      // share uid/gid

	// PRSALL shares all of the above and any future resources.
	PRSALL Mask = PRSADDR | PRSULIMIT | PRSUMASK | PRSDIR | PRSFDS | PRSID
)

func (m Mask) String() string {
	if m == 0 {
		return "none"
	}
	if m == PRSALL {
		return "PR_SALL"
	}
	names := []struct {
		bit  Mask
		name string
	}{
		{PRSADDR, "PR_SADDR"}, {PRSULIMIT, "PR_SULIMIT"}, {PRSUMASK, "PR_SUMASK"},
		{PRSDIR, "PR_SDIR"}, {PRSFDS, "PR_SFDS"}, {PRSID, "PR_SID"},
	}
	s := ""
	for _, n := range names {
		if m&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	return s
}

// Synchronization bits held in the p_flag word. When a member changes a
// shared resource it sets the matching bit on every other sharing member;
// the bits are checked in a single test on kernel entry (paper §6.3). Each
// resource's sync bit is its share-mask bit, so a set of resources and the
// set of pending syncs convert by a cast; the address space has no bit —
// it is shared by reference, never by copy.
const (
	FSyncFds    = uint32(PRSFDS)    // descriptor table out of date
	FSyncDir    = uint32(PRSDIR)    // cdir/rdir out of date
	FSyncUmask  = uint32(PRSUMASK)  // umask out of date
	FSyncUlimit = uint32(PRSULIMIT) // ulimit out of date
	FSyncID     = uint32(PRSID)     // uid/gid out of date

	FSyncAny = uint32(PRSALL &^ PRSADDR)
)

// ShareGroup is what the process layer needs from the shared address
// block; the core package implements it. Keeping it an interface mirrors
// the layering of the paper's kernel, where generic proc handling tests
// p_flag bits and calls into share-group routines only when needed.
type ShareGroup interface {
	// SyncEntry reconciles the process's private copies of shared
	// resources from the share block, honouring p's share mask. It is
	// called when FSyncAny bits are found set on kernel entry.
	SyncEntry(p *Proc)
	// Leave removes p from the group (exit, exec).
	Leave(p *Proc)
	// Size returns the current number of members.
	Size() int
	// Gang reports whether the group asked to be gang-scheduled
	// (SetGang, the paper's §8 scheduling extension).
	Gang() bool
	// CPUAcct returns the group's fair-share CPU account (never nil):
	// the scheduler charges it at quantum boundaries and orders run
	// queues by its band; setshares(2)/getusage(2) are its control plane.
	CPUAcct() *CPUAcct
}

// Scheduler is the dispatch interface the process layer blocks through.
type Scheduler interface {
	// Block releases p's CPU and sleeps until p's wake token arrives
	// (WaitWake); called by p itself.
	Block(p *Proc, reason string)
}

// DefaultStackPages is the default maximum stack size (1 MiB), adjustable
// per process with prctl(PR_SETSTACKSIZE).
const DefaultStackPages = 256

// NOFILE is the maximum descriptor table size, as on V.3.
const NOFILE = 64

// NFdInit is the initial descriptor table size; AllocFd and GrowFd extend
// the table on demand up to NOFILE.
const NFdInit = 16

// Proc is one process: proc-table entry plus user area.
type Proc struct {
	PID  int
	PPID int
	Name string // diagnostic label

	state atomic.Int32

	// Mu guards the mutable user-area fields: identity, descriptors,
	// directories, limits, handlers, children.
	Mu sync.Mutex

	// Identity and environment (user area).
	Uid, Gid uint16
	Umask    uint16
	Ulimit   int64
	Cdir     *fs.Inode // held
	Rdir     *fs.Inode // held
	Fd       []*fs.File
	FdFlags  []uint8 // per-descriptor flags (close-on-exec, non-blocking)
	FdMax    int     // descriptor-table ceiling (0 = NOFILE), inherited
	fdHint   int     // lowest-free-slot scan hint (see AllocFd)

	// Virtual memory.
	ASID     hw.ASID
	VMC      vm.LookupCache // last-hit shared-pregion cache (fault fast path)
	Private  vm.Space       // private pregion list (scanned first on fault) and its arena — the group's for a VM-sharing member
	Stack    *vm.PRegion    // this process's stack (may live on the shared list)
	StackMax int            // max stack pages (PR_SETSTACKSIZE), inherited

	// Share group state (nil / zero outside a group). The share-group
	// pointer is read by the scheduler while exit clears it, and the
	// share mask is read by other members' propagation walks while
	// unshare narrows it, so both are accessed atomically.
	shMask atomic.Uint32
	share  atomic.Pointer[shareRef]
	Flag   atomic.Uint32 // p_flag synchronization bits

	// Arg is the entry argument this process was sproc'd with, recorded so
	// a checkpoint can note it and a restore can respawn the member with
	// the same argument (freeze.go, DESIGN.md §17).
	Arg int64

	// Checkpoint freeze state (freeze.go): the pending gate installed by a
	// checkpoint initiator, and the gate this process is currently parked
	// on (nil when running free).
	frz       atomic.Pointer[FreezeGate]
	frzParked atomic.Pointer[FreezeGate]

	// SysCount is the per-process syscall profile, counts by the kernel's
	// syscall number: nil until the process's own first counted syscall
	// makes it, sized to the kernel's table; diagnostics read it anywhere.
	SysCount atomic.Pointer[[]atomic.Int64]

	// Scheduling.
	Cycles     atomic.Int64 // simulated cycles charged to this process
	Dispatched atomic.Int64 // times this process was placed on a CPU
	Prio       atomic.Int32 // scheduling priority (higher runs first)
	CPU        atomic.Int32 // current CPU, -1 when not running
	LastCPU    atomic.Int32 // CPU of the most recent dispatch (run-queue affinity)
	Sched      Scheduler
	wake       chan struct{} // wakeup token (cap 1): Unblock before Block is safe
	RunGate    chan int      // dispatch channel: scheduler sends the CPU id
	SliceLeft  atomic.Int64  // remaining charge units in this time slice
	RunStamp   atomic.Int64  // p.Cycles at dispatch: quantum usage = Cycles - RunStamp
	Spinning   atomic.Bool   // in a spin's cached-poll loop, where it stores nothing (Sched.SpinQuiescent)

	// Blockproc sleep-wake state (blockproc(2)/unblockproc(2), paper §3):
	// blockCnt is the saturating count of banked unblocks, driven negative
	// by a block in progress; blockSleep marks a sleeper waiting for the
	// count to return to zero. Guarded by blockMu; see blockcnt.go.
	blockMu    sync.Mutex
	blockCnt   int32
	blockSleep bool

	// Signals. handlers is nil while every action is the default; only
	// signal.go touches it, and SetHandler installs a changed copy.
	SigPending atomic.Uint32
	SigMask    uint32
	handlers   *[NSig]Handler
	Killed     atomic.Bool // SIGKILL latched

	// LastSleep records the reason of the most recent scheduler block
	// (diagnostics only).
	LastSleep atomic.Value

	// Exit/wait.
	Children   []*Proc
	ExitStatus int
	Exited     chan struct{}
}

// New creates an embryonic process. The caller fills in environment and VM
// before making it runnable.
func New(pid int, name string) *Proc {
	p := &Proc{
		PID:      pid,
		Name:     name,
		Ulimit:   1 << 30,
		Umask:    0o022,
		StackMax: DefaultStackPages,
		Fd:       make([]*fs.File, NFdInit),
		FdFlags:  make([]uint8, NFdInit),
		wake:     make(chan struct{}, 1),
		RunGate:  make(chan int, 1),
		Exited:   make(chan struct{}),
	}
	p.CPU.Store(-1)
	p.LastCPU.Store(-1)
	p.state.Store(int32(SIdle))
	return p
}

// State returns the current process state.
func (p *Proc) State() State { return State(p.state.Load()) }

// SetState transitions the process state.
func (p *Proc) SetState(s State) { p.state.Store(int32(s)) }

// Block implements klock.Thread: sleep until Unblock, releasing the CPU
// through the scheduler when one is attached.
func (p *Proc) Block(reason string) {
	if p.Sched != nil {
		p.Sched.Block(p, reason)
		return
	}
	<-p.wake
}

// Unblock implements klock.Thread: it is the wake. The sleeper re-enters
// the run queue itself once Block consumes the token.
func (p *Proc) Unblock() { p.NotifyWake() }

// WaitWake consumes the wakeup token; the scheduler's Block uses it so an
// Unblock that raced ahead is not lost.
func (p *Proc) WaitWake() { <-p.wake }

// NotifyWake deposits the wakeup token. The token is level-triggered and
// the deposit must not block: with signal pokes a second wake can arrive
// while an unconsumed token already sits in the channel, and the waker may
// be holding the sleep owner's mutex — the very mutex the woken process
// needs to make progress. A dropped deposit is always redundant (the
// existing token wakes the same Block), and every sleep loop re-checks its
// condition after waking, so tolerating the occasional spurious wake is
// the whole correctness story.
func (p *Proc) NotifyWake() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// shareRef boxes the interface so it can sit behind an atomic pointer.
type shareRef struct{ g ShareGroup }

// ShareGrp returns the process's share group, or nil.
func (p *Proc) ShareGrp() ShareGroup {
	if r := p.share.Load(); r != nil {
		return r.g
	}
	return nil
}

// SetShare links (or, with nil, unlinks) the process's share group.
func (p *Proc) SetShare(g ShareGroup) {
	if g == nil {
		p.share.Store(nil)
		return
	}
	p.share.Store(&shareRef{g: g})
}

// InGroup reports whether the process belongs to a share group.
func (p *Proc) InGroup() bool { return p.ShareGrp() != nil }

// ShMask returns the process's share mask (p_shmask).
func (p *Proc) ShMask() Mask { return Mask(p.shMask.Load()) }

// SetShMask replaces the process's share mask.
func (p *Proc) SetShMask(m Mask) { p.shMask.Store(uint32(m)) }

// Shares reports whether the process shares the given resource with its
// group: it must be in a group and its share mask must include the bit.
func (p *Proc) Shares(bit Mask) bool {
	return p.ShareGrp() != nil && p.ShMask()&bit != 0
}

// SetSyncBits ORs bits into the p_flag word.
func (p *Proc) SetSyncBits(bits uint32) {
	for {
		old := p.Flag.Load()
		if p.Flag.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// TakeSyncBits atomically clears and returns the sync bits — the single
// test performed on kernel entry.
func (p *Proc) TakeSyncBits() uint32 {
	for {
		old := p.Flag.Load()
		if old&FSyncAny == 0 {
			return 0
		}
		if p.Flag.CompareAndSwap(old, old&^FSyncAny) {
			return old & FSyncAny
		}
	}
}

var _ klock.Thread = (*Proc)(nil)

func (p *Proc) String() string {
	return fmt.Sprintf("proc{pid=%d %q %s mask=%s}", p.PID, p.Name, p.State(), p.ShMask())
}
