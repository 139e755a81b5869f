// Package fs is an in-memory UNIX filesystem: a tree of reference-counted
// inodes, an open-file table, and path resolution relative to a process's
// current and root directories.
//
// The share-group design leans on two properties reproduced exactly here:
// in-core inodes and open-file entries are reference counted (the shared
// address block holds one reference of its own so an updater may exit
// before the group synchronizes, paper §6.3), and an open-file entry holds
// the shared offset, so descriptor sharing gives share-group members the
// same I/O cursor just as dup(2) and fork(2) do.
package fs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode bits, following the UNIX conventions.
const (
	ModeDir  uint16 = 0o040000
	ModeFile uint16 = 0o100000
	ModeFIFO uint16 = 0o010000
	ModeSock uint16 = 0o140000

	PermMask uint16 = 0o777
	TypeMask uint16 = 0o170000
)

// Errors mirror the errno values a V.3 kernel would return.
var (
	ErrNotExist  = errors.New("fs: no such file or directory")        // ENOENT
	ErrExist     = errors.New("fs: file exists")                      // EEXIST
	ErrNotDir    = errors.New("fs: not a directory")                  // ENOTDIR
	ErrIsDir     = errors.New("fs: is a directory")                   // EISDIR
	ErrPerm      = errors.New("fs: permission denied")                // EACCES
	ErrNotEmpty  = errors.New("fs: directory not empty")              // ENOTEMPTY
	ErrFileLimit = errors.New("fs: file size limit exceeded")         // EFBIG (ulimit)
	ErrBadFd     = errors.New("fs: bad file descriptor")              // EBADF
	ErrFdFull    = errors.New("fs: descriptor table full")            // EMFILE
	ErrInval     = errors.New("fs: invalid argument")                 // EINVAL
	ErrPipe      = errors.New("fs: broken pipe")                      // EPIPE
	ErrAgain     = errors.New("fs: resource temporarily unavailable") // EAGAIN
)

// Inode is one in-core inode. Ref counts in-core references (open files,
// cdir/rdir pointers, share-block copies); Nlink counts directory entries.
type Inode struct {
	mu     sync.Mutex
	Ino    uint32
	Mode   uint16
	Uid    uint16
	Gid    uint16
	Nlink  int32
	ref    atomic.Int32
	data   []byte            // regular file contents
	dir    map[string]*Inode // directory entries
	parent *Inode            // ".." (directories only)
	fs     *FS
}

// IsDir reports whether the inode is a directory.
func (ip *Inode) IsDir() bool { return ip.Mode&TypeMask == ModeDir }

// Type returns the inode's type bits.
func (ip *Inode) Type() uint16 { return ip.Mode & TypeMask }

// Perm returns the permission bits.
func (ip *Inode) Perm() uint16 { return ip.Mode & PermMask }

// Ref returns the in-core reference count.
func (ip *Inode) Ref() int32 { return ip.ref.Load() }

// Hold takes an in-core reference (iget).
func (ip *Inode) Hold() *Inode {
	ip.ref.Add(1)
	return ip
}

// Release drops an in-core reference (iput). An inode with no references
// and no links is dead; its storage is dropped.
func (ip *Inode) Release() {
	if ip == nil {
		return
	}
	if n := ip.ref.Add(-1); n < 0 {
		panic("fs: inode reference count underflow")
	} else if n == 0 && atomic.LoadInt32(&ip.Nlink) == 0 {
		ip.mu.Lock()
		ip.data = nil
		ip.dir = nil
		ip.mu.Unlock()
		ip.fs.liveInodes.Add(-1)
	}
}

// Size returns the file size in bytes.
func (ip *Inode) Size() int64 {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return int64(len(ip.data))
}

// ReadAt copies file bytes at off into p, returning the count.
func (ip *Inode) ReadAt(p []byte, off int64) int {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if off >= int64(len(ip.data)) {
		return 0
	}
	return copy(p, ip.data[off:])
}

// WriteAt stores p at off, extending the file as needed. limit is the
// process's ulimit (maximum write offset, paper §4: "s_limit — maximum
// write address"); a write that would exceed it fails with ErrFileLimit.
func (ip *Inode) WriteAt(p []byte, off int64, limit int64) (int, error) {
	if off+int64(len(p)) > limit {
		return 0, ErrFileLimit
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(ip.data)) {
		grown := make([]byte, end)
		copy(grown, ip.data)
		ip.data = grown
	}
	copy(ip.data[off:], p)
	return len(p), nil
}

// Truncate clears a regular file's contents.
func (ip *Inode) Truncate() {
	ip.mu.Lock()
	ip.data = nil
	ip.mu.Unlock()
}

// Access checks rwx permission for (uid, gid). want is a bitmask of 4
// (read), 2 (write), 1 (execute/search). Uid 0 bypasses checks, as root
// does.
func (ip *Inode) Access(uid, gid uint16, want uint16) error {
	if uid == 0 {
		return nil
	}
	perm := ip.Perm()
	var got uint16
	switch {
	case uid == ip.Uid:
		got = perm >> 6
	case gid == ip.Gid:
		got = perm >> 3
	default:
		got = perm
	}
	if got&want != want {
		return ErrPerm
	}
	return nil
}

func (ip *Inode) String() string {
	return fmt.Sprintf("inode{ino=%d mode=%o nlink=%d ref=%d}", ip.Ino, ip.Mode, atomic.LoadInt32(&ip.Nlink), ip.ref.Load())
}
