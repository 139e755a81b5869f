package proc

import (
	"repro/internal/fs"
)

// Descriptor flag bits (per-fd, not shared through dup).
const (
	FdCloseOnExec uint8 = 1 << 0
	// FdNonblock is per-descriptor non-blocking mode (fcntl F_SETFL
	// O_NDELAY): stream operations that would sleep return EAGAIN
	// instead. Like close-on-exec it travels in the fd-flag table, so a
	// share group propagates it with the descriptor update protocol.
	FdNonblock uint8 = 1 << 1
)

// FdCeiling returns the descriptor-table limit: NOFILE (the V.3 default)
// unless the system raised it at boot (Config.MaxFiles — the C10k serving
// experiments hold tens of thousands of descriptors open at once).
func (p *Proc) FdCeiling() int {
	if p.FdMax > 0 {
		return p.FdMax
	}
	return NOFILE
}

// AllocFd installs f in the lowest free descriptor slot, growing the table
// up to the ceiling only (V.3 has a fixed table; the small start just
// avoids committing every slot to every process). It returns the
// descriptor, or fs.ErrFdFull when the table is full. The caller holds p.Mu.
func (p *Proc) AllocFd(f *fs.File) (int, error) {
	// Resume the lowest-free scan where the last one left off when the
	// table below is known dense — the C10k accept loop would otherwise
	// rescan thousands of occupied slots per connection. Emptying a slot
	// lowers the hint to it, preserving the lowest-free-slot contract.
	start := p.fdHint
	if start >= len(p.Fd) {
		start = 0
	}
	for i := start; i < len(p.Fd); i++ {
		if p.Fd[i] == nil {
			p.Fd[i] = f
			p.FdFlags[i] = 0
			p.fdHint = i + 1
			return i, nil
		}
	}
	if len(p.Fd) < p.FdCeiling() {
		fd := len(p.Fd)
		p.GrowFd(fd * 2)
		p.Fd[fd] = f
		p.fdHint = fd + 1
		return fd, nil
	}
	return -1, fs.ErrFdFull
}

// GrowFd extends the descriptor table to n slots, capped at the ceiling; new
// slots are empty. Capacity doubles (the table never shrinks, so the slack
// is empty): a member syncing to a table its group extends a slot at a time
// — one sync per accept, when the host interleaves them so — copies it
// O(log n) times, not n. The caller holds p.Mu.
func (p *Proc) GrowFd(n int) {
	n = min(n, p.FdCeiling())
	if n <= len(p.Fd) {
		return
	}
	if n > cap(p.Fd) {
		fds := make([]*fs.File, len(p.Fd), max(n, min(2*cap(p.Fd), p.FdCeiling())))
		flags := make([]uint8, len(p.Fd), cap(fds))
		copy(fds, p.Fd)
		copy(flags, p.FdFlags)
		p.Fd, p.FdFlags = fds, flags
	}
	p.Fd, p.FdFlags = p.Fd[:n], p.FdFlags[:n]
}

// GetFd returns the open file at descriptor fd. The caller holds p.Mu.
func (p *Proc) GetFd(fd int) (*fs.File, error) {
	if fd < 0 || fd >= len(p.Fd) || p.Fd[fd] == nil {
		return nil, fs.ErrBadFd
	}
	return p.Fd[fd], nil
}

// SetFd stores f at descriptor fd, growing the table as needed (used when
// synchronizing the table from the share block, whose shadow copy may be
// longer than this member's table). The caller holds p.Mu.
func (p *Proc) SetFd(fd int, f *fs.File) {
	p.GrowFd(fd + 1)
	p.Fd[fd] = f
}

// ClearFd removes the descriptor without releasing the file (the caller
// owns the release). The caller holds p.Mu.
func (p *Proc) ClearFd(fd int) (*fs.File, error) {
	f, err := p.GetFd(fd)
	if err != nil {
		return nil, err
	}
	p.Fd[fd] = nil
	p.FdFlags[fd] = 0
	p.LowerFdHint(fd)
	return f, nil
}

// LowerFdHint tells the lowest-free-slot scan that slot fd was emptied.
// Code that empties a slot without going through ClearFd (the share-block
// fd sync) must call it so AllocFd keeps returning the lowest free slot;
// a slot that was filled or left alone needs no call, every slot below the
// hint is still occupied. The caller holds p.Mu.
func (p *Proc) LowerFdHint(fd int) {
	if fd < p.fdHint {
		p.fdHint = fd
	}
}

// DupFdTable returns a copy of the descriptor table with every open file's
// reference count bumped — the fork(2) path. The caller holds p.Mu.
func (p *Proc) DupFdTable() ([]*fs.File, []uint8) {
	fds := make([]*fs.File, len(p.Fd))
	flags := make([]uint8, len(p.FdFlags))
	copy(flags, p.FdFlags)
	for i, f := range p.Fd {
		if f != nil {
			fds[i] = f.Hold()
		}
	}
	return fds, flags
}

// CloseAllFds releases every descriptor (exit path). The caller holds p.Mu.
func (p *Proc) CloseAllFds() {
	for i, f := range p.Fd {
		if f != nil {
			f.Release()
			p.Fd[i] = nil
		}
	}
	p.fdHint = 0
}

// OpenFdCount counts live descriptors. The caller holds p.Mu.
func (p *Proc) OpenFdCount() int {
	n := 0
	for _, f := range p.Fd {
		if f != nil {
			n++
		}
	}
	return n
}
