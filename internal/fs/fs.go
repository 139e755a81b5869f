package fs

import (
	"strings"
	"sync"
	"sync/atomic"
)

// FS is the filesystem: a root directory plus inode accounting.
type FS struct {
	mu         sync.Mutex
	root       *Inode
	nextIno    uint32
	liveInodes atomic.Int64
}

// New creates a filesystem with an empty root directory owned by root.
func New() *FS {
	f := &FS{}
	f.root = f.newInode(ModeDir|0o755, 0, 0)
	f.root.parent = f.root
	f.root.dir = map[string]*Inode{}
	atomic.StoreInt32(&f.root.Nlink, 2)
	f.root.Hold() // the filesystem itself keeps the root alive
	return f
}

// Root returns the filesystem root (unheld; callers Hold what they keep).
func (f *FS) Root() *Inode { return f.root }

func (f *FS) newInode(mode uint16, uid, gid uint16) *Inode {
	f.mu.Lock()
	f.nextIno++
	ino := f.nextIno
	f.mu.Unlock()
	f.liveInodes.Add(1)
	return &Inode{Ino: ino, Mode: mode, Uid: uid, Gid: gid, fs: f}
}

// Cred carries the identity and filter state path operations run under:
// the caller's uid/gid for permission checks, umask for creation, and the
// current and root directories for resolution. In a share group these are
// exactly the values that may live in the shared address block.
type Cred struct {
	Uid, Gid uint16
	Umask    uint16
	Cwd      *Inode // start for relative paths
	Root     *Inode // barrier for absolute paths and ".."
}

// resolve walks path from the cred's cwd (or root for absolute paths),
// returning the parent directory, the final component name, and the target
// inode (nil if the final component does not exist). With wantParent the
// caller intends to create/remove the final component.
func (f *FS) resolve(c Cred, path string) (parent *Inode, name string, target *Inode, err error) {
	cur := c.Cwd
	root := c.Root
	if root == nil {
		root = f.root
	}
	if cur == nil {
		cur = root
	}
	if strings.HasPrefix(path, "/") {
		cur = root
	}
	parts := make([]string, 0, 8)
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		// "/" or "." as a whole path.
		return cur, ".", cur, nil
	}
	for i, p := range parts {
		last := i == len(parts)-1
		if !cur.IsDir() {
			return nil, "", nil, ErrNotDir
		}
		if err := cur.Access(c.Uid, c.Gid, 1); err != nil {
			return nil, "", nil, err
		}
		var next *Inode
		switch p {
		case ".":
			next = cur
		case "..":
			if cur == root {
				next = cur // cannot escape the root (chroot barrier)
			} else {
				next = cur.parent
			}
		default:
			cur.mu.Lock()
			next = cur.dir[p]
			cur.mu.Unlock()
		}
		if last {
			return cur, p, next, nil
		}
		if next == nil {
			return nil, "", nil, ErrNotExist
		}
		cur = next
	}
	panic("unreachable")
}

// Lookup resolves path to its inode without holding a new reference.
func (f *FS) Lookup(c Cred, path string) (*Inode, error) {
	_, _, ip, err := f.resolve(c, path)
	if err != nil {
		return nil, err
	}
	if ip == nil {
		return nil, ErrNotExist
	}
	return ip, nil
}

// Create makes a regular file, or returns the existing one (open with
// O_CREAT semantics: creation is conditional, truncation is O_TRUNC's
// job). mode is masked by the cred's umask.
func (f *FS) Create(c Cred, path string, mode uint16) (*Inode, error) {
	parent, name, ip, err := f.resolve(c, path)
	if err != nil {
		return nil, err
	}
	if ip != nil {
		if ip.IsDir() {
			return nil, ErrIsDir
		}
		if err := ip.Access(c.Uid, c.Gid, 2); err != nil {
			return nil, err
		}
		return ip, nil
	}
	if err := parent.Access(c.Uid, c.Gid, 2); err != nil {
		return nil, err
	}
	ip = f.newInode(ModeFile|(mode&PermMask&^c.Umask), c.Uid, c.Gid)
	atomic.StoreInt32(&ip.Nlink, 1)
	parent.mu.Lock()
	parent.dir[name] = ip
	parent.mu.Unlock()
	return ip, nil
}

// Mkdir creates a directory, applying the umask.
func (f *FS) Mkdir(c Cred, path string, mode uint16) (*Inode, error) {
	parent, name, ip, err := f.resolve(c, path)
	if err != nil {
		return nil, err
	}
	if ip != nil {
		return nil, ErrExist
	}
	if err := parent.Access(c.Uid, c.Gid, 2); err != nil {
		return nil, err
	}
	ip = f.newInode(ModeDir|(mode&PermMask&^c.Umask), c.Uid, c.Gid)
	ip.dir = map[string]*Inode{}
	ip.parent = parent
	atomic.StoreInt32(&ip.Nlink, 2)
	parent.mu.Lock()
	parent.dir[name] = ip
	parent.mu.Unlock()
	atomic.AddInt32(&parent.Nlink, 1)
	return ip, nil
}

// Link creates a hard link newpath to the file at oldpath.
func (f *FS) Link(c Cred, oldpath, newpath string) error {
	src, err := f.Lookup(c, oldpath)
	if err != nil {
		return err
	}
	if src.IsDir() {
		return ErrIsDir
	}
	parent, name, ip, err := f.resolve(c, newpath)
	if err != nil {
		return err
	}
	if ip != nil {
		return ErrExist
	}
	if err := parent.Access(c.Uid, c.Gid, 2); err != nil {
		return err
	}
	parent.mu.Lock()
	parent.dir[name] = src
	parent.mu.Unlock()
	atomic.AddInt32(&src.Nlink, 1)
	return nil
}

// Unlink removes the directory entry at path. The inode's storage persists
// while in-core references remain (the classic "unlinked but open" case,
// and the share block's extra reference).
func (f *FS) Unlink(c Cred, path string) error {
	parent, name, ip, err := f.resolve(c, path)
	if err != nil {
		return err
	}
	if ip == nil {
		return ErrNotExist
	}
	if ip.IsDir() {
		ip.mu.Lock()
		n := len(ip.dir)
		ip.mu.Unlock()
		if n > 0 {
			return ErrNotEmpty
		}
	}
	if err := parent.Access(c.Uid, c.Gid, 2); err != nil {
		return err
	}
	parent.mu.Lock()
	delete(parent.dir, name)
	parent.mu.Unlock()
	if ip.IsDir() {
		atomic.AddInt32(&parent.Nlink, -1)
		atomic.AddInt32(&ip.Nlink, -2)
	} else {
		atomic.AddInt32(&ip.Nlink, -1)
	}
	if atomic.LoadInt32(&ip.Nlink) == 0 && ip.Ref() == 0 {
		ip.mu.Lock()
		ip.data = nil
		ip.dir = nil
		ip.mu.Unlock()
		f.liveInodes.Add(-1)
	}
	return nil
}

// Stat describes an inode.
type Stat struct {
	Ino   uint32
	Mode  uint16
	Uid   uint16
	Gid   uint16
	Nlink int32
	Size  int64
}

// StatPath stats the inode at path.
func (f *FS) StatPath(c Cred, path string) (Stat, error) {
	ip, err := f.Lookup(c, path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Ino: ip.Ino, Mode: ip.Mode, Uid: ip.Uid, Gid: ip.Gid,
		Nlink: atomic.LoadInt32(&ip.Nlink), Size: ip.Size(),
	}, nil
}
