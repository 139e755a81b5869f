// Package irix reproduces the process share groups of Barton & Wagner,
// "Enhanced Resource Sharing in UNIX" (Computing Systems 1(2), 1988; USENIX
// Winter 1988): a System V.3-style UNIX kernel, simulated in user space on
// a software-TLB multiprocessor, whose processes can selectively share the
// virtual address space, open descriptors, current/root directory, umask,
// ulimit and ids through the sproc(2)/prctl(2) interface.
//
// A simulated program is a Go closure running against a *Ctx, the
// process's user-mode surface: every memory access goes through a per-CPU
// software-managed TLB and the region fault handler, and every system call
// crosses the kernel entry point where shared-resource synchronization
// happens. Example:
//
//	sys := irix.New(irix.Config{NCPU: 4})
//	sys.Start("main", func(c *irix.Ctx) {
//		c.Sproc("worker", func(w *irix.Ctx, arg int64) {
//			w.Add32(irix.DataBase, uint32(arg)) // shared memory
//		}, irix.PRSADDR|irix.PRSFDS, 42)
//		c.Wait()
//	})
//	sys.WaitIdle()
//
// The subsystem packages live under internal/: hw (machine), klock (kernel
// locks incl. the shared read lock), vm (regions), fs, proc, sched, ipc,
// threads (the Mach baseline), uspin (busy-wait sync), core (the shared
// address block — the paper's contribution) and kernel (the syscall
// layer). This package re-exports the programming surface.
package irix

import (
	"repro/internal/ckpt"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/threads"
	"repro/internal/uspin"
	"repro/internal/vm"
)

// Core programming surface.
type (
	// Config describes the simulated machine and kernel.
	Config = kernel.Config
	// Ctx is a process's user-mode execution surface (memory + syscalls).
	Ctx = kernel.Context
	// Main is a simulated program.
	Main = kernel.Main
	// Mask is a share mask for sproc.
	Mask = proc.Mask
	// VAddr is a 32-bit simulated virtual address.
	VAddr = hw.VAddr
	// Stat describes a file.
	Stat = fs.Stat
	// Handler is a signal handler.
	Handler = proc.Handler
	// Listener accepts stream connections. NetListen installs one behind
	// a descriptor; NetAccept takes that descriptor. The type is exported
	// for tests that reach under the descriptor table.
	Listener = ipc.Listener
	// PollFd is one entry of a Poll set: descriptor, requested events,
	// and the kernel-filled result mask.
	PollFd = kernel.PollFd
	// Task is a Mach-style task (the lightweight-process baseline).
	Task = threads.Task
	// FaultError reports an unresolvable memory access (caught SIGSEGV).
	FaultError = kernel.FaultError
	// Errno is a System V errno value; every syscall failure carries one.
	Errno = kernel.Errno
	// SysError is the envelope every failing syscall returns: the call
	// name, the errno, and the underlying subsystem error (errors.As /
	// errors.Is compatible).
	SysError = kernel.SysError
	// Sysno numbers a system call in the gateway's descriptor table.
	Sysno = kernel.Sysno
	// SyscallStat is one row of the kernel's per-syscall accounting.
	SyscallStat = kernel.SyscallStat
	// Stats is a snapshot of the kernel's hot-path counters, including the
	// fault-injection and degradation counters and the fault fast-path
	// counters (lock-free fills, pregion-cache hits, page-vs-space
	// shootdowns).
	Stats = kernel.Stats
	// FaultSiteStat is one fault-injection site's check/inject counters.
	FaultSiteStat = kernel.FaultSiteStat
	// PrctlOpt selects a prctl(2) operation.
	PrctlOpt = kernel.PrctlOpt
	// Entitlement is a share group's settable resource entitlements —
	// CPU shares, frame quota, member cap — the argument of
	// Setshares (setshares(2)). The typed replacement for the raw
	// int64-valued prctl group options.
	Entitlement = kernel.GroupLimits
	// GroupUsage is a share group's delivery record — entitlements next
	// to consumption — returned by Getusage (getusage(2)) and listed
	// per live group in Stats.Groups.
	GroupUsage = kernel.GroupUsage
	// CkptOpts selects the pre-copy budget of a live group checkpoint
	// (Ckpt, ckpt(2)): passes over the dirty set before the
	// stop-the-world delta, and the pacing gap between them.
	CkptOpts = kernel.CkptOpts
	// CkptInfo is a checkpoint's cost report — pages copied live vs
	// stopped, cycles spent stopped, encoded image size.
	CkptInfo = kernel.CkptInfo
	// CkptImage is a share group's deterministic checkpoint image:
	// regions, resident pages, members, descriptor tables and shared
	// attributes. Restore (restore(2)) rebuilds a group from one.
	CkptImage = ckpt.Image
)

// ErrnoOf extracts the errno from any error a syscall returned (EOK for
// nil, EINVAL for errors from outside the syscall layer).
func ErrnoOf(err error) Errno { return kernel.ErrnoOf(err) }

// SysName names a syscall number ("open", "sproc", ...).
func SysName(n Sysno) string { return kernel.SysName(n) }

// Errno values (System V numbering) observable through ErrnoOf and
// errors.Is on syscall errors.
const (
	EOK     = kernel.EOK
	EPERM   = kernel.EPERM
	ENOENT  = kernel.ENOENT
	ESRCH   = kernel.ESRCH
	EINTR   = kernel.EINTR
	EBADF   = kernel.EBADF
	ECHILD  = kernel.ECHILD
	EAGAIN  = kernel.EAGAIN
	ENOMEM  = kernel.ENOMEM
	EACCES  = kernel.EACCES
	EFAULT  = kernel.EFAULT
	EEXIST  = kernel.EEXIST
	ENOTDIR = kernel.ENOTDIR
	EISDIR  = kernel.EISDIR
	EINVAL  = kernel.EINVAL
	EMFILE  = kernel.EMFILE
	EFBIG   = kernel.EFBIG
	EPIPE   = kernel.EPIPE
)

// Share mask bits (paper §5.1).
const (
	PRSADDR   = proc.PRSADDR   // share the virtual address space
	PRSULIMIT = proc.PRSULIMIT // share ulimit values
	PRSUMASK  = proc.PRSUMASK  // share the umask value
	PRSDIR    = proc.PRSDIR    // share current/root directory
	PRSFDS    = proc.PRSFDS    // share open file descriptors
	PRSID     = proc.PRSID     // share uid/gid
	PRSALL    = proc.PRSALL    // share everything
)

// prctl options (paper §5.2). Typed as PrctlOpt; Ctx also offers ergonomic
// wrappers (MaxProcs, SetStackSize, ...) over the raw Prctl call.
const (
	PRMaxProcs     = kernel.PRMaxProcs
	PRMaxPProcs    = kernel.PRMaxPProcs
	PRSetStackSize = kernel.PRSetStackSize
	PRGetStackSize = kernel.PRGetStackSize
)

// Inode mode bits (Stat.Mode).
const (
	ModeDir  = fs.ModeDir
	ModeFile = fs.ModeFile
	ModeFIFO = fs.ModeFIFO
	ModeSock = fs.ModeSock
	TypeMask = fs.TypeMask
	PermMask = fs.PermMask
)

// Open flags and seek whences.
const (
	ORead   = fs.ORead
	OWrite  = fs.OWrite
	OAppend = fs.OAppend
	OCreat  = fs.OCreat
	OTrunc  = fs.OTrunc

	SeekSet = fs.SeekSet
	SeekCur = fs.SeekCur
	SeekEnd = fs.SeekEnd
)

// Readiness bits (Poll events/revents; level-triggered poll(2) semantics).
const (
	PollIn   = kernel.PollIn   // readable: data, EOF, or a pending connection
	PollOut  = kernel.PollOut  // writable: buffer space and a reader present
	PollErr  = kernel.PollErr  // write side of a readerless pipe (EPIPE)
	PollHup  = kernel.PollHup  // peer gone: writers closed, listener shut down
	PollNval = kernel.PollNval // descriptor not open
)

// Signals.
const (
	SIGHUP  = proc.SIGHUP
	SIGINT  = proc.SIGINT
	SIGKILL = proc.SIGKILL
	SIGSEGV = proc.SIGSEGV
	SIGPIPE = proc.SIGPIPE
	SIGTERM = proc.SIGTERM
	SIGUSR1 = proc.SIGUSR1
	SIGUSR2 = proc.SIGUSR2
	SIGCLD  = proc.SIGCLD
)

// Address-space geometry.
const (
	PageSize = hw.PageSize
	TextBase = vm.TextBase
	DataBase = vm.DataBase
	PRDABase = vm.PRDABase
	ShmBase  = vm.ShmBase
)

// Errors a program can observe.
var (
	ErrNoChildren  = kernel.ErrNoChildren
	ErrInterrupt   = kernel.ErrInterrupt
	ErrCkptBusy    = kernel.ErrCkptBusy
	ErrCkptQuiesce = kernel.ErrCkptQuiesce
	ErrNoProc      = kernel.ErrNoProc
	ErrTooMany     = kernel.ErrTooMany
	ErrPerm        = kernel.ErrPerm
	ErrNoRegion    = kernel.ErrNoRegion
	ErrNotExist    = fs.ErrNotExist
	ErrExist       = fs.ErrExist
	ErrBadFd       = fs.ErrBadFd
	ErrFileLimit   = fs.ErrFileLimit
	ErrPipe        = fs.ErrPipe
)

// User-level synchronization in shared memory (paper §3). The lock and
// barrier are hybrid spin-then-block: a bounded busy-wait, then a
// blockproc(2) sleep with unblockproc(2) wakeup. Each owns SyncBytes of
// memory at its VA (lock word plus waiter table).
type (
	// Spinlock is a hybrid mutual-exclusion lock. Lock spins then
	// blocks; LockSpin is the paper's pure busy-wait discipline.
	Spinlock = uspin.Mutex
	// Barrier is a sense-reversing hybrid barrier for N members.
	Barrier = uspin.Barrier
	// Counter is an atomic work-claiming cursor (self-scheduling).
	Counter = uspin.Counter
	// Word is a shared signalling word with interruptible Await waits —
	// the primitive for hand-rolled phase flags and readiness counts.
	Word = uspin.Word
)

// SyncBytes is the memory footprint of a Spinlock or Barrier: the lock
// words plus the waiter-pid table the blocking slow path registers in.
// Data placed beside a primitive must start at VA+SyncBytes or later.
const SyncBytes = uspin.MutexBytes

// ErrZeroBarrier rejects Barrier{N: 0}, which could never release.
var ErrZeroBarrier = uspin.ErrZeroBarrier

// System is a booted simulated machine and kernel. The embedded
// kernel.System provides the full surface: Start launches a program,
// WaitIdle blocks until every process has exited, Stats snapshots the
// kernel counters (including fault-injection and degradation counters).
type System struct {
	*kernel.System
}

// New boots a system. The zero Config gives 4 CPUs, 64 MiB of memory and
// default limits. It panics on an invalid configuration (negative CPU or
// memory counts, out-of-range fault rates); use NewChecked for the error.
func New(cfg Config) *System {
	return &System{kernel.NewSystem(cfg)}
}

// NewChecked is New returning configuration errors instead of panicking.
func NewChecked(cfg Config) (*System, error) {
	s, err := kernel.NewSystemChecked(cfg)
	if err != nil {
		return nil, err
	}
	return &System{s}, nil
}

// NewTask adopts the calling process as the bootstrap thread of a
// Mach-style task (the lightweight-process baseline of paper §2).
func NewTask(c *Ctx) *Task { return threads.NewTask(c) }
