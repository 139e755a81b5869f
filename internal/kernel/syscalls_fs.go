package kernel

import (
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
)

// chargePushed charges the caller for the members a share-block update
// brought up to date inline — the eager-push ablation, in which the updater
// pays one attribute sync per sharer at update time. The deferred design
// pushes nobody: each member pays at its own next kernel entry.
func (c *Context) chargePushed(pushed int) {
	if pushed > 0 {
		c.charge(int64(pushed) * c.S.Machine.Cost.AttrSync)
	}
}

// publish pushes an attribute resource the caller has just changed in its
// own user area to the share block, when the caller shares it; the other
// sharers pick it up at their next kernel entry (paper §6.3).
func (c *Context) publish(res proc.Mask) {
	if p := c.P; p.Shares(res) {
		c.chargePushed(groupOf(p).Publish(p, res))
	}
}

// cred snapshots the identity and filter state filesystem operations run
// under. Caller must not hold P.Mu.
func (c *Context) cred() fs.Cred {
	p := c.P
	p.Mu.Lock()
	defer p.Mu.Unlock()
	return fs.Cred{Uid: p.Uid, Gid: p.Gid, Umask: p.Umask, Cwd: p.Cdir, Root: p.Rdir}
}

// updateFds runs change, which edits one slot of the caller's descriptor
// table under P.Mu and returns it. It is the one place that asks whether
// the table is shared: for a member sharing PR_SFDS the change runs inside
// the share block's update protocol (core.UpdateFds, paper §6.3), which
// publishes the slot to the block's shadow table (s_ofile) for the other
// sharers to synchronize from; a change that fails publishes nothing and
// must leave the table as it found it.
func (c *Context) updateFds(change func() (int, error)) (int, error) {
	p := c.P
	if !p.Shares(proc.PRSFDS) {
		p.Mu.Lock()
		defer p.Mu.Unlock()
		return change()
	}
	fd, pushed, err := groupOf(p).UpdateFds(p, change)
	c.chargePushed(pushed)
	return fd, err
}

// installFd places f in the lowest free slot of the caller's descriptor
// table.
func (c *Context) installFd(f *fs.File) (int, error) {
	return c.updateFds(func() (int, error) { return c.P.AllocFd(f) })
}

// closeFd empties descriptor slot fd and drops its reference to the open
// file.
func (c *Context) closeFd(fd int) error {
	_, err := c.updateFds(func() (int, error) {
		f, err := c.P.ClearFd(fd)
		if err != nil {
			return -1, err
		}
		f.Release()
		return fd, nil
	})
	return err
}

// Open opens (or with fs.OCreat creates) the file at path, returning a
// descriptor. When the caller shares descriptors, every sharing member
// sees the new file as immediately available (paper §4).
func (c *Context) Open(path string, flags int, mode uint16) (int, error) {
	return invoke(c, SysOpen, func() (int, error) {
		f, err := c.S.FS.Open(c.cred(), path, flags, mode)
		if err != nil {
			return -1, err
		}
		fd, err := c.installFd(f)
		if err != nil {
			f.Release()
			return -1, err
		}
		return fd, nil
	})
}

// Creat is open(path, O_WRONLY|O_CREAT|O_TRUNC, mode). It is pure
// delegation: the call dispatches (and is accounted) as open.
func (c *Context) Creat(path string, mode uint16) (int, error) {
	return c.Open(path, fs.OWrite|fs.OCreat|fs.OTrunc, mode)
}

// Close releases descriptor fd, propagating the closure to sharing
// members.
func (c *Context) Close(fd int) error {
	return invoke0(c, SysClose, func() error {
		c.pollForget(fd)
		return c.closeFd(fd)
	})
}

// Dup duplicates fd into the lowest free slot; both descriptors share one
// open-file entry and offset.
func (c *Context) Dup(fd int) (int, error) {
	return invoke(c, SysDup, func() (int, error) {
		p := c.P
		p.Mu.Lock()
		f, err := p.GetFd(fd)
		p.Mu.Unlock()
		if err != nil {
			return -1, err
		}
		nfd, err := c.installFd(f.Hold())
		if err != nil {
			f.Release()
			return -1, err
		}
		return nfd, nil
	})
}

// Dup2 duplicates fd onto target, closing target first if open. Both
// descriptors share one open-file entry; the change propagates to sharing
// members like any descriptor-table update.
func (c *Context) Dup2(fd, target int) (int, error) {
	return invoke(c, SysDup2, func() (int, error) {
		p := c.P
		if target < 0 || target >= p.FdCeiling() {
			return -1, fs.ErrBadFd
		}
		return c.updateFds(func() (int, error) {
			f, err := p.GetFd(fd)
			if err != nil {
				return -1, err
			}
			if fd == target {
				return target, nil
			}
			p.GrowFd(target + 1)
			if old := p.Fd[target]; old != nil {
				old.Release()
			}
			p.SetFd(target, f.Hold())
			p.FdFlags[target] = 0
			return target, nil
		})
	})
}

// setFdFlag sets or clears one per-descriptor flag bit (fcntl). The bit
// lives in the fd-flag table, so it reaches descriptor-sharing members with
// the descriptor update protocol.
func (c *Context) setFdFlag(fd int, bit uint8, on bool) error {
	return invoke0(c, SysFcntl, func() error {
		p := c.P
		_, err := c.updateFds(func() (int, error) {
			if _, err := p.GetFd(fd); err != nil {
				return -1, err
			}
			if on {
				p.FdFlags[fd] |= bit
			} else {
				p.FdFlags[fd] &^= bit
			}
			return fd, nil
		})
		return err
	})
}

// SetCloseOnExec marks fd to be closed across exec(2).
func (c *Context) SetCloseOnExec(fd int, on bool) error {
	return c.setFdFlag(fd, proc.FdCloseOnExec, on)
}

// SetNonblock sets or clears per-descriptor non-blocking mode (fcntl
// F_SETFL O_NDELAY): stream operations on fd that would sleep return
// EAGAIN instead.
func (c *Context) SetNonblock(fd int, on bool) error {
	return c.setFdFlag(fd, proc.FdNonblock, on)
}

// fdFile fetches the open file behind fd.
func (c *Context) fdFile(fd int) (*fs.File, error) {
	c.P.Mu.Lock()
	defer c.P.Mu.Unlock()
	return c.P.GetFd(fd)
}

// fdFileNb fetches the open file behind fd along with the descriptor's
// non-blocking mode — the pair every data-moving syscall needs.
func (c *Context) fdFileNb(fd int) (*fs.File, bool, error) {
	c.P.Mu.Lock()
	defer c.P.Mu.Unlock()
	f, err := c.P.GetFd(fd)
	if err != nil {
		return nil, false, err
	}
	return f, c.P.FdFlags[fd]&proc.FdNonblock != 0, nil
}

// xferBuf returns the context's bounce buffer sized to n bytes. Its
// contents are whatever the last transfer left: callers fill it before
// anyone reads it.
func (c *Context) xferBuf(n int) []byte {
	if cap(c.xfer) < n {
		c.xfer = make([]byte, n)
	}
	return c.xfer[:n]
}

// Read reads up to n bytes from fd into the process's memory at va,
// returning the count. The transfer faults pages in as needed.
func (c *Context) Read(fd int, va hw.VAddr, n int) (int, error) {
	return invoke(c, SysRead, func() (int, error) {
		f, nb, err := c.fdFileNb(fd)
		if err != nil {
			return -1, err
		}
		buf := c.xferBuf(n)
		got, err := f.Read(c.P, buf, nb)
		if err != nil {
			return -1, err
		}
		if err := c.StoreBytes(va, buf[:got]); err != nil {
			return -1, err
		}
		return got, nil
	})
}

// Write writes n bytes from the process's memory at va to fd.
func (c *Context) Write(fd int, va hw.VAddr, n int) (int, error) {
	return invoke(c, SysWrite, func() (int, error) {
		f, nb, err := c.fdFileNb(fd)
		if err != nil {
			return -1, err
		}
		buf := c.xferBuf(n)
		if err := c.LoadBytes(va, buf); err != nil {
			return -1, err
		}
		c.P.Mu.Lock()
		limit := c.P.Ulimit
		c.P.Mu.Unlock()
		return f.Write(c.P, buf, limit, nb)
	})
}

// Lseek repositions fd's offset.
func (c *Context) Lseek(fd int, off int64, whence int) (int64, error) {
	return invoke(c, SysLseek, func() (int64, error) {
		f, err := c.fdFile(fd)
		if err != nil {
			return -1, err
		}
		return f.Seek(off, whence)
	})
}

// Mkdir creates a directory.
func (c *Context) Mkdir(path string, mode uint16) error {
	return invoke0(c, SysMkdir, func() error {
		_, err := c.S.FS.Mkdir(c.cred(), path, mode)
		return err
	})
}

// Unlink removes a directory entry.
func (c *Context) Unlink(path string) error {
	return invoke0(c, SysUnlink, func() error {
		return c.S.FS.Unlink(c.cred(), path)
	})
}

// Link creates a hard link.
func (c *Context) Link(oldpath, newpath string) error {
	return invoke0(c, SysLink, func() error {
		return c.S.FS.Link(c.cred(), oldpath, newpath)
	})
}

// Stat describes the file at path.
func (c *Context) Stat(path string) (fs.Stat, error) {
	return invoke(c, SysStat, func() (fs.Stat, error) {
		return c.S.FS.StatPath(c.cred(), path)
	})
}

// Chdir changes the current directory; with PR_SDIR the change applies to
// every sharing member of the group ("the ability to change the working
// directory ... of an entire set of processes at once", paper §4).
func (c *Context) Chdir(path string) error {
	return invoke0(c, SysChdir, func() error {
		dir, err := c.S.FS.Lookup(c.cred(), path)
		if err != nil {
			return err
		}
		if !dir.IsDir() {
			return fs.ErrNotDir
		}
		cr := c.cred()
		if err := dir.Access(cr.Uid, cr.Gid, 1); err != nil {
			return err
		}
		p := c.P
		p.Mu.Lock()
		old := p.Cdir
		p.Cdir = dir.Hold()
		p.Mu.Unlock()
		old.Release()
		c.publish(proc.PRSDIR)
		return nil
	})
}

// Chroot changes the root directory (uid 0 only), propagating with
// PR_SDIR.
func (c *Context) Chroot(path string) error {
	return invoke0(c, SysChroot, func() error {
		cr := c.cred()
		if cr.Uid != 0 {
			return ErrPerm
		}
		dir, err := c.S.FS.Lookup(cr, path)
		if err != nil {
			return err
		}
		if !dir.IsDir() {
			return fs.ErrNotDir
		}
		p := c.P
		p.Mu.Lock()
		old := p.Rdir
		p.Rdir = dir.Hold()
		p.Mu.Unlock()
		old.Release()
		c.publish(proc.PRSDIR)
		return nil
	})
}

// Umask sets the file-creation mask and returns the previous value,
// propagating with PR_SUMASK.
func (c *Context) Umask(mask uint16) uint16 {
	return invoke1(c, SysUmask, func() uint16 {
		p := c.P
		p.Mu.Lock()
		old := p.Umask
		p.Umask = mask & 0o777
		p.Mu.Unlock()
		c.publish(proc.PRSUMASK)
		return old
	})
}

// Ulimit gets (cmd 1) or sets (cmd 2) the maximum file size, propagating
// with PR_SULIMIT.
func (c *Context) Ulimit(cmd int, newLimit int64) (int64, error) {
	return invoke(c, SysUlimit, func() (int64, error) {
		p := c.P
		switch cmd {
		case 1:
			p.Mu.Lock()
			defer p.Mu.Unlock()
			return p.Ulimit, nil
		case 2:
			p.Mu.Lock()
			cur := p.Ulimit
			uid := p.Uid
			if newLimit > cur && uid != 0 {
				p.Mu.Unlock()
				return -1, ErrPerm
			}
			p.Ulimit = newLimit
			p.Mu.Unlock()
			c.publish(proc.PRSULIMIT)
			return newLimit, nil
		default:
			return -1, fs.ErrInval
		}
	})
}

// Setuid changes the effective uid (uid 0 or a no-op change), propagating
// with PR_SID.
func (c *Context) Setuid(uid uint16) error {
	return invoke0(c, SysSetuid, func() error {
		p := c.P
		p.Mu.Lock()
		if p.Uid != 0 && p.Uid != uid {
			p.Mu.Unlock()
			return ErrPerm
		}
		p.Uid = uid
		p.Mu.Unlock()
		c.publish(proc.PRSID)
		return nil
	})
}

// Setgid changes the effective gid, propagating with PR_SID.
func (c *Context) Setgid(gid uint16) error {
	return invoke0(c, SysSetgid, func() error {
		p := c.P
		p.Mu.Lock()
		if p.Uid != 0 && p.Gid != gid {
			p.Mu.Unlock()
			return ErrPerm
		}
		p.Gid = gid
		p.Mu.Unlock()
		c.publish(proc.PRSID)
		return nil
	})
}

// Getuid returns the effective uid.
func (c *Context) Getuid() uint16 {
	return invoke1(c, SysGetuid, func() uint16 {
		c.P.Mu.Lock()
		defer c.P.Mu.Unlock()
		return c.P.Uid
	})
}

// WriteString is a convenience wrapper writing s at va through the MMU and
// then to fd — the common pattern of simulated programs.
func (c *Context) WriteString(fd int, va hw.VAddr, s string) (int, error) {
	if err := c.StoreBytes(va, []byte(s)); err != nil {
		return -1, err
	}
	return c.Write(fd, va, len(s))
}

// ReadString reads up to n bytes from fd via va and returns them as a
// string.
func (c *Context) ReadString(fd int, va hw.VAddr, n int) (string, error) {
	got, err := c.Read(fd, va, n)
	if err != nil {
		return "", err
	}
	buf := make([]byte, got)
	if err := c.LoadBytes(va, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
