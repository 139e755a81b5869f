package fs

import (
	"sync"
	"sync/atomic"

	"repro/internal/klock"
)

// Open flags.
const (
	ORead   = 1 << 0
	OWrite  = 1 << 1
	OAppend = 1 << 2
	OCreat  = 1 << 3
	OTrunc  = 1 << 4
)

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Stream is a non-regular file endpoint (pipe end, socket end). Reads and
// writes may sleep, so they take the calling thread; wakeups are addressed
// to specific threads through klock.WaitList. With nonblock set an
// operation that would sleep returns ErrAgain instead — the per-descriptor
// FdNonblock mode the kernel threads through from the fd table. Streams
// that can block also implement Pollable (poll.go), the waitable-
// descriptor half of the same readiness protocol.
type Stream interface {
	Read(t klock.Thread, p []byte, nonblock bool) (int, error)
	Write(t klock.Thread, p []byte, nonblock bool) (int, error)
	Close()
}

// File is an open-file table entry: an inode (or stream), the open flags,
// and, for a file opened by name, the shared offset. Descriptors in
// per-process fd tables point here; dup, fork and share-group descriptor
// sharing all alias the same entry, so the offset is shared, exactly as on
// V.3.
type File struct {
	Inode  *Inode // held reference; nil only for anonymous streams
	Stream Stream // nil for regular files
	Flags  int
	ref    atomic.Int32
	named  *named // nil for a stream
}

// named is the part of an open file only a file opened by name has: the
// shared offset under its lock, and the path, recorded so a checkpoint can
// note how to reacquire the descriptor at restore (the CRIU convention).
// A stream end (pipe, socket) has none of it; a checkpoint records it
// structurally but cannot reopen it.
type named struct {
	mu     sync.Mutex
	offset int64
	path   string
}

// namedFile is a File and its named part in one allocation.
type namedFile struct {
	File
	n named
}

// NewFile wraps an inode (already held by the caller on the file's behalf,
// or nil for a stream) in an open-file entry with reference count one.
// Only a file with no stream gets an offset.
func NewFile(ip *Inode, stream Stream, flags int) *File {
	var f *File
	if stream == nil {
		nf := &namedFile{}
		nf.named = &nf.n
		f = &nf.File
	} else {
		f = &File{}
	}
	f.Inode, f.Stream, f.Flags = ip, stream, flags
	f.ref.Store(1)
	return f
}

// Path returns the name the file was opened by: empty for a stream.
func (f *File) Path() string {
	if f.named == nil {
		return ""
	}
	return f.named.path
}

// Hold takes a reference (dup, fork, share-block copy).
func (f *File) Hold() *File {
	f.ref.Add(1)
	return f
}

// Release drops a reference; the last release closes the stream and
// releases the inode.
func (f *File) Release() {
	if f == nil {
		return
	}
	n := f.ref.Add(-1)
	if n < 0 {
		panic("fs: file reference count underflow")
	}
	if n == 0 {
		if f.Stream != nil {
			f.Stream.Close()
		}
		f.Inode.Release()
	}
}

// Ref returns the current reference count.
func (f *File) Ref() int32 { return f.ref.Load() }

// Offset returns the current file offset: zero for a stream.
func (f *File) Offset() int64 {
	if f.named == nil {
		return 0
	}
	f.named.mu.Lock()
	defer f.named.mu.Unlock()
	return f.named.offset
}

// Read reads from the file at the shared offset, advancing it. nonblock
// applies to streams only: a read that would sleep returns ErrAgain.
func (f *File) Read(t klock.Thread, p []byte, nonblock bool) (int, error) {
	if f.Flags&ORead == 0 {
		return 0, ErrBadFd
	}
	if f.Stream != nil {
		return f.Stream.Read(t, p, nonblock)
	}
	if f.Inode.IsDir() {
		return 0, ErrIsDir
	}
	nm := f.named
	nm.mu.Lock()
	defer nm.mu.Unlock()
	n := f.Inode.ReadAt(p, nm.offset)
	nm.offset += int64(n)
	return n, nil
}

// Write writes at the shared offset (or end-of-file with OAppend),
// enforcing the caller's ulimit. nonblock applies to streams only: a write
// that would sleep with nothing transferred returns ErrAgain.
func (f *File) Write(t klock.Thread, p []byte, ulimit int64, nonblock bool) (int, error) {
	if f.Flags&OWrite == 0 {
		return 0, ErrBadFd
	}
	if f.Stream != nil {
		return f.Stream.Write(t, p, nonblock)
	}
	if f.Inode.IsDir() {
		return 0, ErrIsDir
	}
	nm := f.named
	nm.mu.Lock()
	defer nm.mu.Unlock()
	off := nm.offset
	if f.Flags&OAppend != 0 {
		off = f.Inode.Size()
	}
	n, err := f.Inode.WriteAt(p, off, ulimit)
	if err != nil {
		return 0, err
	}
	nm.offset = off + int64(n)
	return n, nil
}

// Seek repositions the shared offset.
func (f *File) Seek(off int64, whence int) (int64, error) {
	if f.Stream != nil {
		return 0, ErrInval
	}
	nm := f.named
	nm.mu.Lock()
	defer nm.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = nm.offset
	case SeekEnd:
		base = f.Inode.Size()
	default:
		return 0, ErrInval
	}
	if base+off < 0 {
		return 0, ErrInval
	}
	nm.offset = base + off
	return nm.offset, nil
}

// Open opens (optionally creating) the file at path under cred c.
func (f *FS) Open(c Cred, path string, flags int, mode uint16) (*File, error) {
	var ip *Inode
	var err error
	if flags&OCreat != 0 {
		ip, err = f.Create(c, path, mode)
	} else {
		ip, err = f.Lookup(c, path)
	}
	if err != nil {
		return nil, err
	}
	var want uint16
	if flags&ORead != 0 {
		want |= 4
	}
	if flags&OWrite != 0 {
		want |= 2
	}
	// Creation grants the creator access regardless of the masked mode,
	// matching creat(2); otherwise check permissions.
	if flags&OCreat == 0 {
		if err := ip.Access(c.Uid, c.Gid, want); err != nil {
			return nil, err
		}
	}
	if flags&OWrite != 0 && ip.IsDir() {
		return nil, ErrIsDir
	}
	if flags&OTrunc != 0 && !ip.IsDir() {
		ip.Truncate()
	}
	file := NewFile(ip.Hold(), nil, flags)
	file.named.path = path
	return file, nil
}
