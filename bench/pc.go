package main

import (
	"time"

	irix "repro"
	"repro/internal/uspin"
)

// pc is what a bench-owned program holds instead of a bare *irix.Ctx: the
// same calls, each wrapped in a span when the rep is traced. Calls that can
// sleep are timed in every run (two clock reads beside a sleep/wake), which
// is where sched.wait_host_us_per_op comes from. Programs never reach for
// p.c directly except to hand it to a uspin primitive through the wrappers
// below, so every kernel crossing and memory touch they make is on record.
type pc struct {
	c  *irix.Ctx
	r  *rep
	sh *shard // nil when untraced
}

// proc wraps a process's context. Call it on that process's goroutine.
func (r *rep) proc(c *irix.Ctx) *pc {
	p := &pc{c: c, r: r}
	if r.tr != nil {
		p.sh = r.tr.newShard(c.P.PID)
	}
	return p
}

func (p *pc) enter(name, layer string) bool {
	if p.sh == nil {
		return false
	}
	p.sh.begin(name, layer, 0, p.c.P.Cycles.Load())
	return true
}

func (p *pc) leave(traced bool) {
	if traced {
		p.sh.end(p.c.P.Cycles.Load())
	}
}

// opBegin opens an op segment: the work this process does for op id (ids
// start at 1). Every span until opEnd carries the id, so the spans of one op
// can be collected across processes. Calls that serve many ops at once (a
// poll over a thousand connections) sit in a segment with the shared id
// sharedOp.
func (p *pc) opBegin(id int64) {
	if p.sh != nil {
		p.sh.begin("op", lBench, id, p.c.P.Cycles.Load())
	}
}

func (p *pc) opEnd() { p.leave(p.sh != nil) }

// opRetag names the open segment's op once the process has learnt it.
func (p *pc) opRetag(id int64) {
	if p.sh != nil {
		p.sh.retag(id)
	}
}

const sharedOp = -1

// slept adds the host time of one possibly-sleeping call to the rep.
func (p *pc) slept(t0 time.Time) { p.r.waitNs.Add(int64(time.Since(t0))) }

// ─── proc ────────────────────────────────────────────────────────────────

func (p *pc) Fork(name string, main func(*pc)) (int, error) {
	t := p.enter("sys.fork", lProc)
	pid, err := p.c.Fork(name, func(cc *irix.Ctx) { main(p.r.proc(cc)) })
	p.leave(t)
	return pid, err
}

func (p *pc) Sproc(name string, entry func(*pc, int64), mask irix.Mask, arg int64) (int, error) {
	t := p.enter("sys.sproc", lProc)
	pid, err := p.c.Sproc(name, func(cc *irix.Ctx, a int64) { entry(p.r.proc(cc), a) }, mask, arg)
	p.leave(t)
	return pid, err
}

func (p *pc) ThreadCreate(name string, entry func(*pc, int64), arg int64) (int, error) {
	t := p.enter("sys.thread_create", lProc)
	pid, err := p.c.ThreadCreate(name, func(cc *irix.Ctx, a int64) { entry(p.r.proc(cc), a) }, arg)
	p.leave(t)
	return pid, err
}

func (p *pc) Wait() (int, int, error) {
	t := p.enter("sys.wait", lProc)
	t0 := time.Now()
	pid, st, err := p.c.Wait()
	p.slept(t0)
	p.leave(t)
	return pid, st, err
}

func (p *pc) Blockproc() error {
	t := p.enter("sys.blockproc", lProc)
	t0 := time.Now()
	err := p.c.Blockproc(0)
	p.slept(t0)
	p.leave(t)
	return err
}

func (p *pc) Unblockproc(pid int) error {
	t := p.enter("sys.unblockproc", lProc)
	err := p.c.Unblockproc(pid)
	p.leave(t)
	return err
}

func (p *pc) SetStackSize(bytes int64) {
	t := p.enter("sys.prctl", lProc)
	p.c.SetStackSize(bytes)
	p.leave(t)
}

// ─── kernel (the gateway's null call) ────────────────────────────────────

func (p *pc) Getpid() int {
	t := p.enter("sys.getpid", lKernel)
	pid := p.c.Getpid()
	p.leave(t)
	return pid
}

func (p *pc) Ckpt(opts irix.CkptOpts) (*irix.CkptImage, irix.CkptInfo, error) {
	t := p.enter("sys.ckpt", lKernel)
	img, info, err := p.c.Ckpt(opts)
	p.leave(t)
	return img, info, err
}

func (p *pc) Restore(img *irix.CkptImage, entry func(*pc, int64)) (int, error) {
	t := p.enter("sys.restore", lKernel)
	n, err := p.c.Restore(img, func(cc *irix.Ctx, a int64) { entry(p.r.proc(cc), a) })
	p.leave(t)
	return n, err
}

// ─── vm ──────────────────────────────────────────────────────────────────

func (p *pc) Load32(va irix.VAddr) (uint32, error) {
	t := p.enter("mem.touch", lVM)
	v, err := p.c.Load32(va)
	p.leave(t)
	return v, err
}

func (p *pc) Store32(va irix.VAddr, v uint32) error {
	t := p.enter("mem.touch", lVM)
	err := p.c.Store32(va, v)
	p.leave(t)
	return err
}

func (p *pc) LoadBytes(va irix.VAddr, dst []byte) error {
	t := p.enter("mem.copy", lVM)
	err := p.c.LoadBytes(va, dst)
	p.leave(t)
	return err
}

func (p *pc) StoreBytes(va irix.VAddr, src []byte) error {
	t := p.enter("mem.copy", lVM)
	err := p.c.StoreBytes(va, src)
	p.leave(t)
	return err
}

func (p *pc) Mmap(npages int) (irix.VAddr, error) {
	t := p.enter("sys.mmap", lVM)
	va, err := p.c.Mmap(npages)
	p.leave(t)
	return va, err
}

func (p *pc) Munmap(va irix.VAddr) error {
	t := p.enter("sys.munmap", lVM)
	err := p.c.Munmap(va)
	p.leave(t)
	return err
}

func (p *pc) Sbrk(delta int64) (irix.VAddr, error) {
	t := p.enter("sys.sbrk", lVM)
	va, err := p.c.Sbrk(delta)
	p.leave(t)
	return va, err
}

func (p *pc) StackBase() irix.VAddr { return p.c.StackBase() }

// ─── ipc ─────────────────────────────────────────────────────────────────

func (p *pc) Pipe() (int, int, error) {
	t := p.enter("sys.pipe", lIPC)
	r, w, err := p.c.Pipe()
	p.leave(t)
	return r, w, err
}

func (p *pc) NetListen(name string) (int, error) {
	t := p.enter("sys.netlisten", lIPC)
	fd, err := p.c.NetListen(name)
	p.leave(t)
	return fd, err
}

func (p *pc) NetAccept(lfd int) (int, error) {
	t := p.enter("sys.accept", lIPC)
	t0 := time.Now()
	fd, err := p.c.NetAccept(lfd)
	p.slept(t0)
	p.leave(t)
	return fd, err
}

func (p *pc) NetConnect(name string) (int, error) {
	t := p.enter("sys.connect", lIPC)
	fd, err := p.c.NetConnect(name)
	p.leave(t)
	return fd, err
}

func (p *pc) Poll(fds []irix.PollFd) (int, error) {
	t := p.enter("sys.poll", lIPC)
	t0 := time.Now()
	n, err := p.c.Poll(fds, -1)
	p.slept(t0)
	p.leave(t)
	return n, err
}

// Read and Write move bytes on a stream descriptor (pipe or connection).
func (p *pc) Read(fd int, va irix.VAddr, n int) (int, error) {
	t := p.enter("sys.read", lIPC)
	got, err := p.c.Read(fd, va, n)
	p.leave(t)
	return got, err
}

func (p *pc) Write(fd int, va irix.VAddr, n int) (int, error) {
	t := p.enter("sys.write", lIPC)
	put, err := p.c.Write(fd, va, n)
	p.leave(t)
	return put, err
}

func (p *pc) SetNonblock(fd int, on bool) error {
	t := p.enter("sys.fcntl", lFS)
	err := p.c.SetNonblock(fd, on)
	p.leave(t)
	return err
}

// ─── fs ──────────────────────────────────────────────────────────────────

func (p *pc) Open(path string, flags int, mode uint16) (int, error) {
	t := p.enter("sys.open", lFS)
	fd, err := p.c.Open(path, flags, mode)
	p.leave(t)
	return fd, err
}

func (p *pc) Close(fd int) error {
	t := p.enter("sys.close", lFS)
	err := p.c.Close(fd)
	p.leave(t)
	return err
}

func (p *pc) Mkdir(path string, mode uint16) error {
	t := p.enter("sys.mkdir", lFS)
	err := p.c.Mkdir(path, mode)
	p.leave(t)
	return err
}

func (p *pc) Stat(path string) (irix.Stat, error) {
	t := p.enter("sys.stat", lFS)
	st, err := p.c.Stat(path)
	p.leave(t)
	return st, err
}

func (p *pc) Lseek(fd int, off int64, whence int) (int64, error) {
	t := p.enter("sys.lseek", lFS)
	pos, err := p.c.Lseek(fd, off, whence)
	p.leave(t)
	return pos, err
}

// ─── core (shared attributes: the update lands in the share block) ───────

func (p *pc) Umask(mask uint16) uint16 {
	t := p.enter("sys.umask", lCore)
	old := p.c.Umask(mask)
	p.leave(t)
	return old
}

func (p *pc) SetUlimit(limit int64) error {
	t := p.enter("sys.ulimit", lCore)
	_, err := p.c.Ulimit(2, limit)
	p.leave(t)
	return err
}

func (p *pc) GetUlimit() (int64, error) {
	t := p.enter("sys.ulimit", lCore)
	v, err := p.c.Ulimit(1, 0)
	p.leave(t)
	return v, err
}

func (p *pc) Chdir(path string) error {
	t := p.enter("sys.chdir", lCore)
	err := p.c.Chdir(path)
	p.leave(t)
	return err
}

// ─── uspin ───────────────────────────────────────────────────────────────

func (p *pc) WordStore(w uspin.Word, v uint32) error {
	t := p.enter("uspin.store", lUspin)
	err := w.Store(p.c, v)
	p.leave(t)
	return err
}

func (p *pc) WordAdd(w uspin.Word, delta uint32) (uint32, error) {
	t := p.enter("uspin.add", lUspin)
	v, err := w.Add(p.c, delta)
	p.leave(t)
	return v, err
}

func (p *pc) AwaitMin(w uspin.Word, v uint32) error {
	t := p.enter("uspin.await", lUspin)
	t0 := time.Now()
	_, err := w.AwaitMin(p.c, v)
	p.slept(t0)
	p.leave(t)
	return err
}

func (p *pc) BarrierInit(b uspin.Barrier) error {
	t := p.enter("uspin.barrier_init", lUspin)
	err := b.Init(p.c)
	p.leave(t)
	return err
}

func (p *pc) BarrierEnter(b uspin.Barrier) error {
	t := p.enter("uspin.barrier", lUspin)
	t0 := time.Now()
	err := b.Enter(p.c)
	p.slept(t0)
	p.leave(t)
	return err
}

// span times harness-side work done on behalf of an op (encode, decode,
// boot of a second system) on this process's shard.
func (p *pc) span(name, layer string, fn func()) {
	t := p.enter(name, layer)
	fn()
	p.leave(t)
}
