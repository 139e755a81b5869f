package kernel

import (
	"errors"
	"fmt"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/ipc"
	"repro/internal/vm"
)

// Errno is the stable system-call error code of the gateway. The subsystem
// packages (fs, vm, ipc, proc) keep their own sentinel error values; the
// gateway normalizes whatever a syscall body returns into a *SysError
// wrapping the original error with one of these codes, so callers can test
// errors.Is(err, kernel.EBADF) — or errors.As for the full envelope —
// without knowing which layer produced the failure. The numbering follows
// the classic System V errno table.
type Errno int32

const (
	EOK          Errno = 0   // no error (exit spans of successful calls)
	EPERM        Errno = 1   // operation not permitted
	ENOENT       Errno = 2   // no such file or directory
	ESRCH        Errno = 3   // no such process
	EINTR        Errno = 4   // interrupted system call
	EBADF        Errno = 9   // bad file descriptor
	ECHILD       Errno = 10  // no child processes
	EAGAIN       Errno = 11  // resource temporarily unavailable
	ENOMEM       Errno = 12  // out of memory
	EACCES       Errno = 13  // permission denied
	EFAULT       Errno = 14  // bad address
	EEXIST       Errno = 17  // file exists
	ENOTDIR      Errno = 20  // not a directory
	EISDIR       Errno = 21  // is a directory
	EINVAL       Errno = 22  // invalid argument
	EMFILE       Errno = 24  // descriptor table full
	EFBIG        Errno = 27  // file too large (ulimit)
	EPIPE        Errno = 32  // broken pipe
	ENOTEMPTY    Errno = 93  // directory not empty
	EADDRINUSE   Errno = 125 // address already in use
	ECONNREFUSED Errno = 146 // connection refused
)

var errnoNames = map[Errno]string{
	EOK: "0", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH",
	EINTR: "EINTR", EBADF: "EBADF", ECHILD: "ECHILD", EAGAIN: "EAGAIN",
	ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT", EEXIST: "EEXIST",
	ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL", EMFILE: "EMFILE",
	EFBIG: "EFBIG", EPIPE: "EPIPE", ENOTEMPTY: "ENOTEMPTY",
	EADDRINUSE: "EADDRINUSE", ECONNREFUSED: "ECONNREFUSED",
}

// String returns the symbolic name (EBADF) of the code.
func (e Errno) String() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("errno(%d)", int32(e))
}

// Error makes Errno usable as an errors.Is target and as an error value.
func (e Errno) Error() string { return e.String() }

// SysError is the gateway's error envelope: the syscall that failed, the
// normalized code, and the subsystem's original error. It unwraps to the
// original value, so pre-gateway errors.Is(err, fs.ErrBadFd) tests keep
// working, and matches bare Errno targets, so errors.Is(err, kernel.EBADF)
// works too.
type SysError struct {
	Call string // syscall name from the descriptor table
	Num  Errno  // normalized code
	Err  error  // the subsystem's original error
}

func (e *SysError) Error() string {
	return fmt.Sprintf("%s: %v [%s]", e.Call, e.Err, e.Num)
}

// Unwrap exposes the wrapped subsystem error to errors.Is/As.
func (e *SysError) Unwrap() error { return e.Err }

// Is matches bare Errno targets against the normalized code, and the
// ErrInterrupt sentinel against EINTR: a gateway-injected interrupt wraps
// only the code, and every retry loop tests errors.Is(err, ErrInterrupt).
func (e *SysError) Is(target error) bool {
	if num, ok := target.(Errno); ok {
		return e.Num == num
	}
	return target == ErrInterrupt && e.Num == EINTR
}

// Errno returns the normalized code.
func (e *SysError) Errno() Errno { return e.Num }

// errnoOf maps the sentinel error values of every subsystem to their
// stable codes. Iterated with errors.Is, so wrapped chains classify too.
var errnoTable = []struct {
	err error
	num Errno
}{
	{fs.ErrNotExist, ENOENT}, {fs.ErrExist, EEXIST}, {fs.ErrNotDir, ENOTDIR},
	{fs.ErrIsDir, EISDIR}, {fs.ErrPerm, EACCES}, {fs.ErrNotEmpty, ENOTEMPTY},
	{fs.ErrFileLimit, EFBIG}, {fs.ErrBadFd, EBADF}, {fs.ErrInval, EINVAL},
	{fs.ErrPipe, EPIPE}, {fs.ErrAgain, EAGAIN}, {fs.ErrFdFull, EMFILE},
	{ErrNoChildren, ECHILD}, {ErrInterrupt, EINTR}, {ErrNoProc, ESRCH},
	{ErrTooMany, EAGAIN}, {ErrPerm, EPERM}, {ErrBadBlockPid, EINVAL},
	{ErrCkptBusy, EAGAIN}, {ErrCkptQuiesce, EAGAIN},
	{ErrNoRegion, EINVAL}, {ErrNoMem, ENOMEM}, {hw.ErrNoMemory, ENOMEM},
	{hw.ErrNoQuota, ENOMEM},
	{vm.ErrTextWrite, EFAULT},
	{ipc.ErrNoEntry, EINVAL}, {ipc.ErrTooBig, EINVAL}, {ipc.ErrAgainIPC, EINTR},
	{ipc.ErrIntr, EINTR},
	{ipc.ErrExists, EEXIST}, {ipc.ErrAddrInUse, EADDRINUSE},
	{ipc.ErrNoListen, ECONNREFUSED}, {ipc.ErrClosed, EINVAL},
}

// ErrnoOf returns the stable code for any error a system call can return:
// the envelope's code when already normalized, the sentinel mapping
// otherwise, EFAULT for address faults, and EINVAL as the catch-all for
// free-form errors (bad prctl options, bad mmap sizes).
func ErrnoOf(err error) Errno {
	if err == nil {
		return EOK
	}
	var se *SysError
	if errors.As(err, &se) {
		return se.Num
	}
	var num Errno
	if errors.As(err, &num) {
		return num
	}
	for _, m := range errnoTable {
		if errors.Is(err, m.err) {
			return m.num
		}
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return EFAULT
	}
	return EINVAL
}
