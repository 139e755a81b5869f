package kernel

import (
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/ipc"
	"repro/internal/vm"
)

// Pipe creates a pipe, returning the read and write descriptors. With
// shared descriptors both ends appear in every sharing member's table.
func (c *Context) Pipe() (int, int, error) {
	fds, err := invoke(c, sysPipe, func() ([2]int, error) {
		p := ipc.NewPipe()
		p.FI = c.S.faults
		p.PS = c.S.pollStats
		rs, ws := p.Ends()
		ri := c.S.FS.MkInode(fs.ModeFIFO|0o600, 0, 0)
		wi := c.S.FS.MkInode(fs.ModeFIFO|0o600, 0, 0)
		rf := fs.NewFile(ri.Hold(), rs, fs.ORead)
		wf := fs.NewFile(wi.Hold(), ws, fs.OWrite)
		rfd, err := c.installFd(rf)
		if err != nil {
			rf.Release()
			wf.Release()
			return [2]int{-1, -1}, err
		}
		wfd, err := c.installFd(wf)
		if err != nil {
			c.closeFd(rfd) // just installed: cannot fail
			wf.Release()
			return [2]int{-1, -1}, err
		}
		return [2]int{rfd, wfd}, nil
	})
	return fds[0], fds[1], err
}

// Msgget returns the message queue id for key, creating the queue if
// needed (key 0: private queue).
func (c *Context) Msgget(key int) int {
	return invoke1(c, sysMsgget, func() int {
		return c.S.IPC.Msgget(key)
	})
}

// Msgsnd sends n bytes at va as a message of the given type.
func (c *Context) Msgsnd(id int, typ int64, va hw.VAddr, n int) error {
	return invoke0(c, sysMsgsnd, func() error {
		q, err := c.S.IPC.Msgq(id)
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if err := c.LoadBytes(va, buf); err != nil {
			return err
		}
		c.charge(int64(n/64) + 1) // kernel copy
		return q.Send(c.P, ipc.Msg{Type: typ, Data: buf})
	})
}

// msgrcvRet carries msgrcv's two results through the gateway.
type msgrcvRet struct {
	n   int
	typ int64
}

// Msgrcv receives the next message of the given type (0: any) into va,
// returning its length and type.
func (c *Context) Msgrcv(id int, typ int64, va hw.VAddr, max int) (int, int64, error) {
	r, err := invoke(c, sysMsgrcv, func() (msgrcvRet, error) {
		q, err := c.S.IPC.Msgq(id)
		if err != nil {
			return msgrcvRet{n: -1}, err
		}
		m, err := q.Recv(c.P, typ)
		if err != nil {
			return msgrcvRet{n: -1}, err
		}
		if len(m.Data) > max {
			m.Data = m.Data[:max]
		}
		c.charge(int64(len(m.Data)/64) + 1) // kernel copy
		if err := c.StoreBytes(va, m.Data); err != nil {
			return msgrcvRet{n: -1}, err
		}
		return msgrcvRet{n: len(m.Data), typ: m.Type}, nil
	})
	return r.n, r.typ, err
}

// Semget returns the id of the n-semaphore set for key.
func (c *Context) Semget(key, n int) int {
	return invoke1(c, sysSemget, func() int {
		return c.S.IPC.Semget(key, n)
	})
}

// Semop applies delta to semaphore idx of set id, sleeping as required —
// the kernel-interaction synchronization cost of the System V model.
func (c *Context) Semop(id, idx, delta int) error {
	return invoke0(c, sysSemop, func() error {
		s, err := c.S.IPC.Sem(id)
		if err != nil {
			return err
		}
		return s.Op(c.P, idx, delta)
	})
}

// Semval returns the value of semaphore idx of set id.
func (c *Context) Semval(id, idx int) (int, error) {
	return invoke(c, sysSemval, func() (int, error) {
		s, err := c.S.IPC.Sem(id)
		if err != nil {
			return -1, err
		}
		return s.Val(idx), nil
	})
}

// Shmget returns the id of the shared-memory segment for key, creating a
// segment of the given size if needed.
func (c *Context) Shmget(key, pages int) int {
	return invoke1(c, sysShmget, func() int {
		return c.S.IPC.Shmget(key, pages, func(n int) *vm.Region {
			return vm.NewRegion(c.S.Machine.Mem, vm.RShm, n)
		})
	})
}

// Shmat attaches segment id into the caller's address space and returns
// the attach address. For a VM-sharing member the attachment lands on the
// shared list, immediately visible to the whole group.
func (c *Context) Shmat(id int) (hw.VAddr, error) {
	return invoke(c, sysShmat, func() (hw.VAddr, error) {
		seg, err := c.S.IPC.Shm(id)
		if err != nil {
			return 0, err
		}
		seg.Reg.Attach()
		return c.attach(seg.Reg), nil
	})
}

// Shmdt detaches the segment mapped at va. The segment itself survives in
// the registry until removed. Munmap performs the full detach protocol
// (update lock + shootdown for shared attachments); the registry's own
// region reference keeps the frames alive. Pure delegation: the call
// dispatches (and is accounted) as munmap.
func (c *Context) Shmdt(va hw.VAddr) error {
	return c.Munmap(va)
}

// ShmRemove deletes a segment from the registry (shmctl IPC_RMID).
func (c *Context) ShmRemove(id int) error {
	return invoke0(c, sysShmRemove, func() error {
		return c.S.IPC.ShmRemove(id)
	})
}

// NetListen binds a stream listener to name and installs it in the
// descriptor table — a listening socket is a waitable descriptor like any
// other stream, so it can be polled alongside connections. Its open flags
// are zero: read(2)/write(2) on a listening socket reject with EBADF.
func (c *Context) NetListen(name string) (int, error) {
	return invoke(c, sysNetListen, func() (int, error) {
		l, err := c.S.Net.Listen(name)
		if err != nil {
			return -1, err
		}
		ino := c.S.FS.MkInode(fs.ModeSock|0o600, 0, 0)
		f := fs.NewFile(ino.Hold(), l, 0)
		fd, err := c.installFd(f)
		if err != nil {
			f.Release()
			return -1, err
		}
		return fd, nil
	})
}

// NetAccept accepts a connection on listening descriptor lfd, returning a
// descriptor for the server side of the stream. With FdNonblock set on
// lfd an empty backlog returns EAGAIN instead of sleeping — the poll-
// driven accept loop's mode.
func (c *Context) NetAccept(lfd int) (int, error) {
	return invoke(c, sysNetAccept, func() (int, error) {
		f, nb, err := c.fdFileNb(lfd)
		if err != nil {
			return -1, err
		}
		l, ok := f.Stream.(*ipc.Listener)
		if !ok {
			return -1, fs.ErrBadFd
		}
		s, err := l.Accept(c.P, nb)
		if err != nil {
			return -1, err
		}
		return c.streamFd(s)
	})
}

// NetConnect connects to the listener at name, returning a descriptor for
// the client side of the stream.
func (c *Context) NetConnect(name string) (int, error) {
	return invoke(c, sysNetConnect, func() (int, error) {
		s, err := c.S.Net.Connect(c.P, name)
		if err != nil {
			return -1, err
		}
		return c.streamFd(s)
	})
}

// streamFd wraps a duplex stream in an open file and installs it.
func (c *Context) streamFd(s fs.Stream) (int, error) {
	ino := c.S.FS.MkInode(fs.ModeSock|0o600, 0, 0)
	f := fs.NewFile(ino.Hold(), s, fs.ORead|fs.OWrite)
	fd, err := c.installFd(f)
	if err != nil {
		f.Release()
		return -1, err
	}
	return fd, nil
}
