package kernel

import "fmt"

// Sysno identifies one system call in the gateway's descriptor table.
type Sysno uint8

// Syscall numbers. The numbering is internal to the simulation (it is the
// index into the descriptor table and the accounting arrays), grouped by
// the source file that implements the call.
const (
	sysNone Sysno = iota

	// File and attribute calls (syscalls_fs.go).
	SysOpen
	SysClose
	SysDup
	SysDup2
	SysFcntl // SetCloseOnExec
	SysRead
	SysWrite
	SysLseek
	SysMkdir
	SysUnlink
	SysLink
	SysStat
	SysChdir
	SysChroot
	SysUmask
	SysUlimit
	SysSetuid
	SysSetgid
	SysGetuid

	// Virtual memory (syscalls_vm.go).
	SysBrk
	SysSbrk
	SysMmap
	SysMmapPrivate
	SysMunmap

	// IPC (syscalls_ipc.go).
	SysPipe
	SysMsgget
	SysMsgsnd
	SysMsgrcv
	SysSemget
	SysSemop
	SysShmget
	SysShmat
	SysShmRemove
	SysNetListen
	SysNetAccept
	SysNetConnect
	SysPoll

	// Processes and signals (syscalls_proc.go).
	SysGetpid
	SysFork
	SysSproc
	SysThreadCreate
	SysPrctl
	SysUnshare
	SysExec
	SysExit
	SysWait
	SysKill
	SysSignal
	SysSigmask
	SysPause

	// Typed resource control (syscalls_shares.go): the share group as a
	// resource principal.
	SysSetshares
	SysGetusage

	// Sleep-wake (syscalls_block.go): the paper's §3 process-blocking
	// calls backing hybrid spin-then-block synchronization.
	SysBlockproc
	SysUnblockproc
	SysSetblockproccnt

	// Checkpoint/restore (syscalls_ckpt.go): live share-group checkpoint
	// by iterative pre-copy, and group reconstruction from an image.
	SysCkpt
	SysRestore

	// NSys bounds the table; it is the size of every per-syscall array.
	NSys
)

// Class groups syscalls for profiling output (sgtop, ktrace).
type Class uint8

const (
	ClassNone Class = iota
	ClassFS         // files, descriptors, shared attributes
	ClassVM         // address-space management
	ClassIPC        // pipes, System V IPC, streams
	ClassProc       // creation, control, signals
)

var classNames = [...]string{"none", "fs", "vm", "ipc", "proc"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Per-syscall policy flags: how the gateway degrades the call under
// faults. The restart/retry bits encode UNIX semantics (which calls
// SA_RESTART may transparently restart, which transient failures are safe
// to re-run); the sfInj bits bound what an armed fault plan may inject at
// entry, so a call never reports an errno its contract does not allow.
const (
	sfRestart   uint8 = 1 << iota // EINTR from a blocking wait transparently restarts (SA_RESTART)
	sfRetry                       // transient EAGAIN retries with escalating backoff
	sfInjEINTR                    // plan may inject EINTR at entry
	sfInjEAGAIN                   // plan may inject EAGAIN at entry
	sfInjENOMEM                   // plan may inject ENOMEM at entry
)

// sysDesc is one descriptor of the gateway table: the identity of a system
// call plus its dispatch-cost hint and degradation policy. Cost is charged
// by the gateway at entry on top of the machine's SyscallEntry cost; 0
// means the call has no fixed cost beyond the trap itself.
type sysDesc struct {
	num   Sysno
	name  string
	class Class
	cost  int64
	flags uint8
}

// sysTable is the descriptor table, indexed by number; syscall bodies
// dispatch through invoke by number. It is a keyed literal, so a number
// given twice does not compile, and init checks that every number has its
// descriptor.
var sysTable = [NSys]sysDesc{
	SysOpen:        {SysOpen, "open", ClassFS, 0, sfInjEINTR},
	SysClose:       {SysClose, "close", ClassFS, 0, 0},
	SysDup:         {SysDup, "dup", ClassFS, 0, 0},
	SysDup2:        {SysDup2, "dup2", ClassFS, 0, 0},
	SysFcntl:       {SysFcntl, "fcntl", ClassFS, 0, 0},
	SysRead:        {SysRead, "read", ClassFS, 0, sfRestart | sfInjEINTR},
	SysWrite:       {SysWrite, "write", ClassFS, 0, sfRestart | sfInjEINTR},
	SysLseek:       {SysLseek, "lseek", ClassFS, 0, 0},
	SysMkdir:       {SysMkdir, "mkdir", ClassFS, 0, 0},
	SysUnlink:      {SysUnlink, "unlink", ClassFS, 0, 0},
	SysLink:        {SysLink, "link", ClassFS, 0, 0},
	SysStat:        {SysStat, "stat", ClassFS, 0, 0},
	SysChdir:       {SysChdir, "chdir", ClassFS, 0, 0},
	SysChroot:      {SysChroot, "chroot", ClassFS, 0, 0},
	SysUmask:       {SysUmask, "umask", ClassFS, 0, 0},
	SysUlimit:      {SysUlimit, "ulimit", ClassFS, 0, 0},
	SysSetuid:      {SysSetuid, "setuid", ClassFS, 0, 0},
	SysSetgid:      {SysSetgid, "setgid", ClassFS, 0, 0},
	SysGetuid:      {SysGetuid, "getuid", ClassFS, 0, 0},
	SysBrk:         {SysBrk, "brk", ClassVM, 0, sfInjENOMEM},
	SysSbrk:        {SysSbrk, "sbrk", ClassVM, 0, sfInjENOMEM},
	SysMmap:        {SysMmap, "mmap", ClassVM, 0, sfInjENOMEM},
	SysMmapPrivate: {SysMmapPrivate, "mmap_priv", ClassVM, 0, sfInjENOMEM},
	SysMunmap:      {SysMunmap, "munmap", ClassVM, 0, 0},
	SysPipe:        {SysPipe, "pipe", ClassIPC, 0, 0},
	SysMsgget:      {SysMsgget, "msgget", ClassIPC, 0, 0},
	SysMsgsnd:      {SysMsgsnd, "msgsnd", ClassIPC, 0, sfRestart | sfInjEINTR},
	SysMsgrcv:      {SysMsgrcv, "msgrcv", ClassIPC, 0, sfRestart | sfInjEINTR},
	SysSemget:      {SysSemget, "semget", ClassIPC, 0, 0},
	SysSemop:       {SysSemop, "semop", ClassIPC, 0, sfRestart | sfInjEINTR},
	SysShmget:      {SysShmget, "shmget", ClassIPC, 0, sfInjENOMEM},
	SysShmat:       {SysShmat, "shmat", ClassIPC, 0, sfInjENOMEM},
	SysShmRemove:   {SysShmRemove, "shmrm", ClassIPC, 0, 0},
	SysNetListen:   {SysNetListen, "netlisten", ClassIPC, 0, 0},
	SysNetAccept:   {SysNetAccept, "netaccept", ClassIPC, 0, sfRestart | sfInjEINTR},
	SysNetConnect:  {SysNetConnect, "netconnect", ClassIPC, 0, sfRestart},

	// poll is not sfRestart: like pause(2), returning EINTR after a
	// caught signal is its contract — the serving loops use the break to
	// re-examine shutdown flags before re-entering the wait.
	SysPoll:         {SysPoll, "poll", ClassIPC, 0, sfInjEINTR},
	SysGetpid:       {SysGetpid, "getpid", ClassProc, 0, 0},
	SysFork:         {SysFork, "fork", ClassProc, 0, sfRetry | sfInjEAGAIN | sfInjENOMEM},
	SysSproc:        {SysSproc, "sproc", ClassProc, 0, sfRetry | sfInjEAGAIN | sfInjENOMEM},
	SysThreadCreate: {SysThreadCreate, "thread_create", ClassProc, 0, sfRetry | sfInjEAGAIN | sfInjENOMEM},
	SysPrctl:        {SysPrctl, "prctl", ClassProc, 0, 0},
	SysUnshare:      {SysUnshare, "unshare", ClassProc, 0, 0},
	SysExec:         {SysExec, "exec", ClassProc, 0, sfInjENOMEM},
	SysExit:         {SysExit, "exit", ClassProc, 0, 0},
	SysWait:         {SysWait, "wait", ClassProc, 0, sfInjEINTR},
	SysKill:         {SysKill, "kill", ClassProc, 0, 0},
	SysSignal:       {SysSignal, "signal", ClassProc, 0, 0},
	SysSigmask:      {SysSigmask, "sigmask", ClassProc, 0, 0},
	SysPause:        {SysPause, "pause", ClassProc, 0, 0},

	// setshares/getusage are not sfRestart: they never block, so an
	// injected EINTR surfaces to the caller — the fault-injection tests
	// depend on seeing it.
	SysSetshares: {SysSetshares, "setshares", ClassProc, 0, sfInjEINTR},
	SysGetusage:  {SysGetusage, "getusage", ClassProc, 0, sfInjEINTR},

	// blockproc is not sfRestart: like pause(2) and wait(2), returning
	// EINTR after a caught signal is its contract — the hybrid uspin
	// primitives depend on it to withdraw their waiter registration.
	SysBlockproc:       {SysBlockproc, "blockproc", ClassProc, 0, sfInjEINTR},
	SysUnblockproc:     {SysUnblockproc, "unblockproc", ClassProc, 0, 0},
	SysSetblockproccnt: {SysSetblockproccnt, "setblockproccnt", ClassProc, 0, 0},

	// ckpt is sfRetry: losing the one-initiator-at-a-time race, failing to
	// quiesce the group in bounded passes, and the injected pass-boundary
	// fault all surface as EAGAIN with the group thawed and unchanged, so
	// the gateway's escalating backoff can re-run the call safely.
	SysCkpt:    {SysCkpt, "ckpt", ClassProc, 0, sfRetry | sfInjEAGAIN},
	SysRestore: {SysRestore, "restore", ClassProc, 0, sfInjENOMEM},
}

func init() {
	for n := Sysno(1); n < NSys; n++ {
		if sysTable[n].num != n {
			panic(fmt.Sprintf("kernel: syscall %d has no descriptor at its index", n))
		}
	}
}

// SysName returns the name of a syscall number ("open"), for trace and
// profile rendering.
func SysName(n Sysno) string {
	if n > sysNone && n < NSys {
		return sysTable[n].name
	}
	return fmt.Sprintf("sys(%d)", uint8(n))
}

// SysClass returns the profiling class of a syscall number.
func SysClass(n Sysno) Class {
	if n > sysNone && n < NSys {
		return sysTable[n].class
	}
	return ClassNone
}
