package core

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// rig builds a filesystem, memory and a creator process with a canonical
// address space (text, data, PRDA) and cdir/rdir set to the root.
type rig struct {
	fs  *fs.FS
	mem *hw.Memory
}

func newRig() *rig {
	return &rig{fs: fs.New(), mem: hw.NewMemory(4096)}
}

func (r *rig) newProc(pid int) *proc.Proc {
	p := proc.New(pid, "t")
	p.ASID = hw.ASID(pid)
	p.Cdir = r.fs.Root().Hold()
	p.Rdir = r.fs.Root().Hold()
	p.Private = vm.NewSpace(
		&vm.PRegion{Reg: vm.NewRegion(r.mem, vm.RText, 4), Base: vm.TextBase},
		&vm.PRegion{Reg: vm.NewRegion(r.mem, vm.RData, 8), Base: vm.DataBase},
		&vm.PRegion{Reg: vm.NewRegion(r.mem, vm.RPRDA, vm.PRDAPages), Base: vm.PRDABase},
	)
	return p
}

// regions snapshots sa's shared pregion list through the read side.
func regions(sa *ShAddr, p *proc.Proc) (regs []*vm.PRegion) {
	sa.ViewVM(p, func(sp *vm.Space) { regs = sp.Regions() })
	return regs
}

// findShared locates the shared pregion containing va through the read side.
func findShared(sa *ShAddr, p *proc.Proc, va hw.VAddr) (pr *vm.PRegion) {
	sa.ViewVM(p, func(sp *vm.Space) { pr = sp.Find(va) })
	return pr
}

// carve runs CarveStack inside the update bracket, as the kernel does.
func carve(sa *ShAddr, p, child *proc.Proc, mem *hw.Memory, at hw.VAddr, pages int, shared bool) (st *vm.PRegion, err error) {
	sa.UpdateVM(p, func(sp *vm.Space, _ vm.Shoot) error {
		into := sp
		if !shared {
			into = &child.Private // a member outside the space maps its stack in its own image
		}
		st, err = sa.CarveStack(sp, into, child, mem, at, pages)
		return err
	})
	return st, err
}

func (r *rig) cred() fs.Cred {
	return fs.Cred{Uid: 0, Cwd: r.fs.Root(), Root: r.fs.Root()}
}

func TestNewGroupMovesSharablePregions(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	if priv := p.Private.Regions(); len(priv) != 1 || priv[0].Reg.Type != vm.RPRDA {
		t.Fatalf("private list after group creation: %v", priv)
	}
	regs := regions(sa, p)
	if len(regs) != 2 {
		t.Fatalf("shared list has %d regions, want 2", len(regs))
	}
	if p.ShMask() != proc.PRSALL {
		t.Fatalf("creator mask = %v, want PR_SALL", p.ShMask())
	}
	if p.ShareGrp() != proc.ShareGroup(sa) {
		t.Fatal("creator not linked to block")
	}
	if sa.Size() != 1 {
		t.Fatalf("Size = %d", sa.Size())
	}
}

func TestBlockHoldsReferences(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	file, _ := r.fs.Open(r.cred(), "/f", fs.OWrite|fs.OCreat, 0o644)
	p.Mu.Lock()
	p.AllocFd(file)
	p.Mu.Unlock()
	rootRefBefore := r.fs.Root().Ref()
	sa := New(p)
	if file.Ref() != 2 {
		t.Fatalf("file ref = %d, want 2 (fd + block)", file.Ref())
	}
	if r.fs.Root().Ref() != rootRefBefore+2 {
		t.Fatalf("root ref = %d, want +2 (cdir+rdir shadows)", r.fs.Root().Ref())
	}
	// Last member leaving tears the block down.
	sa.Leave(p)
	if file.Ref() != 1 {
		t.Fatalf("file ref after teardown = %d, want 1", file.Ref())
	}
	if r.fs.Root().Ref() != rootRefBefore {
		t.Fatalf("root ref after teardown = %d, want %d", r.fs.Root().Ref(), rootRefBefore)
	}
	if p.ShareGrp() != nil || p.ShMask() != 0 {
		t.Fatal("leaver still linked")
	}
}

func TestMembershipLifecycle(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	kids := make([]*proc.Proc, 3)
	for i := range kids {
		kids[i] = r.newProc(i + 2)
		kids[i].SetShMask(proc.PRSALL)
		sa.AddMember(kids[i])
	}
	if sa.Size() != 4 {
		t.Fatalf("Size = %d", sa.Size())
	}
	ms := sa.Members()
	if len(ms) != 4 || ms[0] != p {
		t.Fatalf("Members = %v", ms)
	}
	sa.Leave(p) // creator may leave first; block survives
	if sa.Size() != 3 {
		t.Fatalf("Size after creator left = %d", sa.Size())
	}
	for _, k := range kids {
		sa.Leave(k)
	}
	if sa.Size() != 0 {
		t.Fatal("members remain")
	}
}

func TestAttrPropagationAndSync(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)

	// p changes umask, ulimit, ids; q must see them after SyncEntry.
	p.Mu.Lock()
	p.Umask = 0o077
	p.Ulimit = 12345
	p.Uid, p.Gid = 7, 8
	p.Mu.Unlock()
	sa.Publish(p, proc.PRSUMASK)
	sa.Publish(p, proc.PRSULIMIT)
	sa.Publish(p, proc.PRSID)

	if q.Flag.Load()&proc.FSyncAny == 0 {
		t.Fatal("no sync bits set on q")
	}
	if p.Flag.Load()&proc.FSyncAny != 0 {
		t.Fatal("updater marked dirty")
	}
	sa.SyncEntry(q)
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if q.Umask != 0o077 || q.Ulimit != 12345 || q.Uid != 7 || q.Gid != 8 {
		t.Fatalf("q after sync: umask=%o ulimit=%d uid=%d gid=%d", q.Umask, q.Ulimit, q.Uid, q.Gid)
	}
	if sa.Syncs.Load() != 1 || sa.Propagations.Load() != 3 {
		t.Fatalf("stats: syncs=%d props=%d", sa.Syncs.Load(), sa.Propagations.Load())
	}
}

func TestSyncHonoursMemberMask(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSUMASK) // shares umask only
	sa.AddMember(q)
	q.Mu.Lock()
	q.Ulimit = 999
	q.Mu.Unlock()

	p.Mu.Lock()
	p.Umask = 0o007
	p.Ulimit = 555
	p.Mu.Unlock()
	sa.Publish(p, proc.PRSUMASK)
	sa.Publish(p, proc.PRSULIMIT) // q does not share ulimit: no bit set for it

	sa.SyncEntry(q)
	q.Mu.Lock()
	defer q.Mu.Unlock()
	if q.Umask != 0o007 {
		t.Fatalf("umask not synced: %o", q.Umask)
	}
	if q.Ulimit != 999 {
		t.Fatalf("ulimit synced despite mask: %d", q.Ulimit)
	}
}

func TestDirPropagation(t *testing.T) {
	r := newRig()
	r.fs.Mkdir(r.cred(), "/work", 0o755)
	work, _ := r.fs.Lookup(r.cred(), "/work")
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)

	// p chdirs to /work.
	p.Mu.Lock()
	old := p.Cdir
	p.Cdir = work.Hold()
	p.Mu.Unlock()
	old.Release()
	sa.Publish(p, proc.PRSDIR)

	sa.SyncEntry(q)
	q.Mu.Lock()
	got := q.Cdir
	q.Mu.Unlock()
	if got != work {
		t.Fatalf("q cdir = %v, want /work", got)
	}
	// Reference accounting: work is held by p, q, and the block.
	if work.Ref() != 3 {
		t.Fatalf("work ref = %d, want 3", work.Ref())
	}
	sa.Leave(q)
	sa.Leave(p)
	q.Mu.Lock()
	q.Cdir.Release()
	q.Rdir.Release()
	q.Mu.Unlock()
	p.Mu.Lock()
	p.Cdir.Release()
	p.Rdir.Release()
	p.Mu.Unlock()
	if work.Ref() != 0 {
		t.Fatalf("work ref after teardown = %d", work.Ref())
	}
}

func TestFdPropagation(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	// Initialize q's table from the block (the sproc child path).
	sa.AddMember(q)
	sa.Adopt(p, q, proc.PRSFDS)

	// p opens a file; q must see the descriptor after sync.
	file, _ := r.fs.Open(r.cred(), "/data", fs.ORead|fs.OWrite|fs.OCreat, 0o644)
	fd, _, _ := sa.UpdateFds(p, func() (int, error) { return p.AllocFd(file) })

	if q.Flag.Load()&proc.FSyncFds == 0 {
		t.Fatal("q not marked for fd sync")
	}
	sa.SyncEntry(q)
	q.Mu.Lock()
	got, err := q.GetFd(fd)
	q.Mu.Unlock()
	if err != nil || got != file {
		t.Fatalf("q fd %d = (%v,%v), want shared file", fd, got, err)
	}
	// file refs: p's fd, q's fd, block copy.
	if file.Ref() != 3 {
		t.Fatalf("file ref = %d, want 3", file.Ref())
	}

	// p closes: q must lose the descriptor after sync.
	sa.UpdateFds(p, func() (int, error) {
		f, err := p.ClearFd(fd)
		f.Release()
		return fd, err
	})
	sa.SyncEntry(q)
	q.Mu.Lock()
	_, err = q.GetFd(fd)
	q.Mu.Unlock()
	if err != fs.ErrBadFd {
		t.Fatalf("q still sees closed fd: %v", err)
	}
	if file.Ref() != 0 {
		t.Fatalf("file ref after close everywhere = %d", file.Ref())
	}
}

func TestSecondUpdaterSyncsBeforeUpdate(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)
	sa.Adopt(p, q, proc.PRSFDS)

	// p opens fd 0; q is now dirty. Without syncing first, q's own open
	// would also pick slot 0 and the two tables would diverge.
	fileA, _ := r.fs.Open(r.cred(), "/a", fs.OWrite|fs.OCreat, 0o644)
	fdA, _, _ := sa.UpdateFds(p, func() (int, error) { return p.AllocFd(fileA) })

	fileB, _ := r.fs.Open(r.cred(), "/b", fs.OWrite|fs.OCreat, 0o644)
	// Must reconcile q with p's open first.
	fdB, _, _ := sa.UpdateFds(q, func() (int, error) { return q.AllocFd(fileB) })

	if fdA == fdB {
		t.Fatalf("descriptor collision: both opens landed on fd %d", fdA)
	}
	q.Mu.Lock()
	gotA, _ := q.GetFd(fdA)
	q.Mu.Unlock()
	if gotA != fileA {
		t.Fatal("q lost p's descriptor during its own update")
	}
}

// TestFdFlagSurvivesSiblingUpdate: a sibling's update that lands after a
// member's kernel-entry test of p_flag and before it holds the semaphore
// leaves the member flagged (markOthers' SetSyncBits) and its table stale.
// Its own change — an fcntl flag — must be made to the resynchronized
// table, not before the resync overwrites it, and is what gets published.
func TestFdFlagSurvivesSiblingUpdate(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)
	file, _ := r.fs.Open(r.cred(), "/data", fs.ORead|fs.OCreat, 0o644)
	fd, _, _ := sa.UpdateFds(p, func() (int, error) { return p.AllocFd(file) })
	sa.SyncEntry(q) // q enters the kernel up to date

	setFlag := func(m *proc.Proc, bit uint8) {
		sa.UpdateFds(m, func() (int, error) {
			m.FdFlags[fd] |= bit
			return fd, nil
		})
	}
	setFlag(p, proc.FdCloseOnExec)
	if q.Flag.Load()&proc.FSyncFds == 0 {
		t.Fatal("the sibling's update did not flag q")
	}
	setFlag(q, proc.FdNonblock)
	const both = proc.FdCloseOnExec | proc.FdNonblock
	if q.FdFlags[fd] != both {
		t.Errorf("q's flags after its fcntl = %#x, want its bit on top of the sibling's (%#x)", q.FdFlags[fd], both)
	}
	if q.Flag.Load()&proc.FSyncFds != 0 {
		t.Error("q still flagged after updating under the semaphore")
	}
	sa.SyncEntry(p)
	if p.FdFlags[fd] != both {
		t.Errorf("published flags, as p adopts them = %#x, want %#x", p.FdFlags[fd], both)
	}
}

// TestFailedFdUpdatePublishesNothing: a change that fails releases the
// semaphore, tells nobody and leaves the block alone.
func TestFailedFdUpdatePublishesNothing(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)
	before := sa.Propagations.Load()
	fd, pushed, err := sa.UpdateFds(p, func() (int, error) {
		_, err := p.ClearFd(5)
		return -1, err
	})
	if err != fs.ErrBadFd || fd != -1 || pushed != 0 {
		t.Fatalf("failed update = (%d, %d, %v), want (-1, 0, ErrBadFd)", fd, pushed, err)
	}
	if sa.Propagations.Load() != before || q.Flag.Load()&proc.FSyncFds != 0 {
		t.Error("a failed update propagated")
	}
	// The semaphore is free again: this would sleep forever otherwise.
	file, _ := r.fs.Open(r.cred(), "/data", fs.ORead|fs.OCreat, 0o644)
	if _, _, err := sa.UpdateFds(q, func() (int, error) { return q.AllocFd(file) }); err != nil {
		t.Fatal(err)
	}
}

// TestFdUpdateShadowGrowsGeometrically: a group that opens its 4 096th
// descriptor has reallocated the block's shadow table a handful of times,
// not once per descriptor — and the shadow stays exactly as long as the
// highest published slot, which is what every sync walks.
func TestFdUpdateShadowGrowsGeometrically(t *testing.T) {
	const nfds = 4096
	r := newRig()
	p := r.newProc(1)
	p.FdMax = nfds
	sa := New(p)
	file, _ := r.fs.Open(r.cred(), "/data", fs.ORead|fs.OCreat, 0o644)
	defer file.Release()
	reallocs, backing := 0, &sa.ofile[:1][0]
	for i := 0; i < nfds; i++ {
		fd, _, err := sa.UpdateFds(p, func() (int, error) { return p.AllocFd(file.Hold()) })
		if err != nil || fd != i {
			t.Fatalf("open %d = (%d, %v)", i, fd, err)
		}
		if now := &sa.ofile[0]; now != backing {
			reallocs, backing = reallocs+1, now
		}
		if want := max(i+1, proc.NFdInit); len(sa.ofile) != want || len(sa.pofile) != want {
			t.Fatalf("after fd %d the shadow is %d/%d slots long, want %d", i, len(sa.ofile), len(sa.pofile), want)
		}
	}
	if reallocs > 16 {
		t.Errorf("%d shadow-table reallocations for %d descriptors, want at most 16", reallocs, nfds)
	}
	if cap(sa.ofile) > nfds {
		t.Errorf("shadow capacity %d exceeds the descriptor ceiling %d", cap(sa.ofile), nfds)
	}
	if _, _, err := sa.UpdateFds(p, func() (int, error) { return p.AllocFd(file) }); err != fs.ErrFdFull {
		t.Errorf("open past the ceiling = %v, want ErrFdFull", err)
	}
	// A late joiner adopts every one of them from the shadow.
	q := r.newProc(2)
	q.FdMax = nfds
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)
	sa.Adopt(p, q, proc.PRSFDS)
	if got := q.OpenFdCount(); got != nfds {
		t.Errorf("joiner holds %d descriptors, want %d", got, nfds)
	}
}

// TestFdUpdateSyncKeepsScanHint: a sync lowers the lowest-free-slot scan
// hint to the lowest slot it emptied, so the next open still lands there,
// and leaves the hint alone when it emptied nothing. The hint is private to
// proc, so the second half looks at it the only way it shows: a slot
// emptied behind its back (here, by hand, in member and shadow alike, so
// the sync has nothing to reconcile) is not found by a scan that did not
// restart from zero.
func TestFdUpdateSyncKeepsScanHint(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	q := r.newProc(2)
	q.SetShMask(proc.PRSALL)
	sa.AddMember(q)
	file, _ := r.fs.Open(r.cred(), "/data", fs.ORead|fs.OCreat, 0o644)
	defer file.Release()
	open := func(m *proc.Proc) int {
		fd, _, err := sa.UpdateFds(m, func() (int, error) { return m.AllocFd(file.Hold()) })
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}
	closeFd := func(m *proc.Proc, fd int) {
		sa.UpdateFds(m, func() (int, error) {
			f, err := m.ClearFd(fd)
			f.Release()
			return fd, err
		})
	}
	for i := 0; i < 8; i++ {
		open(q) // q's hint is 8, p is flagged
	}
	closeFd(p, 5) // syncs p first; q is flagged
	closeFd(p, 3)
	if fd := open(q); fd != 3 { // q syncs under the semaphore: slots 3 and 5 emptied
		t.Errorf("open after a sync that emptied slots 3 and 5 landed on %d, want 3", fd)
	}
	if fd := open(q); fd != 5 {
		t.Errorf("next open landed on %d, want 5", fd)
	}
	if fd := open(q); fd != 8 {
		t.Errorf("next open landed on %d, want 8", fd)
	}

	// q's hint is 9. Empty slot 2 by hand everywhere, then make q sync a
	// change that empties nothing (p sets a descriptor flag).
	sa.SyncEntry(p)
	for _, tab := range [][]*fs.File{p.Fd, q.Fd, sa.ofile} {
		tab[2].Release()
		tab[2] = nil
	}
	sa.UpdateFds(p, func() (int, error) {
		p.FdFlags[0] |= proc.FdCloseOnExec
		return 0, nil
	})
	if fd := open(q); fd != 9 || q.FdFlags[0] != proc.FdCloseOnExec {
		t.Errorf("open after a sync that emptied nothing landed on %d (fd 0 flags %#x), want 9 with p's flag adopted: the scan restarted from zero", fd, q.FdFlags[0])
	}
}

func TestResolveShared(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	pfn, w, res, _, found, err := sa.ResolveShared(p, vm.DataBase+hw.PageSize, true)
	if err != nil || !found || !w || pfn == hw.NoPFN || res != vm.FillZeroed {
		t.Fatalf("ResolveShared = (%v,%v,%v,%v,%v)", pfn, w, res, found, err)
	}
	if _, _, _, _, found, _ := sa.ResolveShared(p, vm.ShmBase, false); found {
		t.Fatal("resolved an unmapped address")
	}
	if sa.Acc.Readers() != 0 {
		t.Fatal("read lock leaked")
	}
}

func TestAttachDetachShared(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	seg := &vm.PRegion{Reg: vm.NewRegion(r.mem, vm.RShm, 4), Base: vm.ShmBase}
	mapAt := func(pr *vm.PRegion) error {
		return sa.UpdateVM(p, func(sp *vm.Space, _ vm.Shoot) error { return sp.MapAt(pr) })
	}
	unmap := func(pr *vm.PRegion) error {
		return sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error { return sp.Unmap(pr, shoot) })
	}
	if err := mapAt(seg); err != nil {
		t.Fatal(err)
	}
	if err := mapAt(&vm.PRegion{Reg: vm.NewRegion(r.mem, vm.RShm, 1), Base: vm.ShmBase + hw.PageSize}); err == nil {
		t.Fatal("overlapping attach accepted")
	}
	// Touch a page so detach has something to free.
	if _, _, _, _, found, err := sa.ResolveShared(p, vm.ShmBase, true); !found || err != nil {
		t.Fatal("attached region not faultable")
	}
	used := r.mem.InUse()
	if err := unmap(seg); err != nil {
		t.Fatal(err)
	}
	if shot := sa.Shootdowns.Load(); shot != 1 {
		t.Fatalf("shootdowns = %d, want 1", shot)
	}
	if r.mem.InUse() != used-1 {
		t.Fatal("detached frames not freed")
	}
	if err := unmap(seg); err == nil {
		t.Fatal("double detach accepted")
	}
	if shot := sa.Shootdowns.Load(); shot != 1 {
		t.Fatalf("rejected detach still shot down: shootdowns = %d", shot)
	}
}

func TestGrowShrinkShared(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	data := regions(sa, p)[1] // the data region
	if data.Reg.Type != vm.RData {
		t.Fatalf("expected data region, got %v", data.Reg.Type)
	}
	shrink := func(n int) (freed int, err error) {
		err = sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
			freed, err = sp.Shrink(data, n, shoot)
			return err
		})
		return freed, err
	}
	if err := sa.UpdateVM(p, func(sp *vm.Space, _ vm.Shoot) error { return sp.Grow(data, 4) }); err != nil {
		t.Fatal(err)
	}
	if data.Reg.Pages() != 12 {
		t.Fatalf("pages after grow = %d", data.Reg.Pages())
	}
	// Touch the new pages; then shrink them away.
	va := vm.DataBase + hw.VAddr(10*hw.PageSize)
	if _, _, _, _, found, err := sa.ResolveShared(p, va, true); !found || err != nil {
		t.Fatal("grown page not faultable")
	}
	freed, err := shrink(4)
	if err != nil {
		t.Fatal(err)
	}
	if shot := sa.Shootdowns.Load(); freed != 1 || shot != 1 {
		t.Fatalf("shrink freed=%d shot=%d", freed, shot)
	}
	// Over-shrinking is rejected under the update lock, without a shootdown.
	if _, err := shrink(data.Reg.Pages() + 1); err == nil {
		t.Fatal("shrink past the region's extent succeeded")
	}
	if shot := sa.Shootdowns.Load(); shot != 1 {
		t.Fatalf("rejected shrink still shot down: shot=%d", shot)
	}
	if _, _, _, _, found, _ := sa.ResolveShared(p, va, false); found {
		t.Fatal("shrunk page still resolvable")
	}
}

func TestCarveStack(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	c1 := r.newProc(2)
	c2 := r.newProc(3)
	s1, _ := carve(sa, p, c1, r.mem, 0, 64, true)
	s2, _ := carve(sa, p, c2, r.mem, 0, 64, true)
	if s1.Base == s2.Base {
		t.Fatal("stacks overlap")
	}
	if s2.Base < s1.End()+hw.VAddr(StackGapPages*hw.PageSize) {
		t.Fatal("no guard gap between stacks")
	}
	// Both stacks are visible in the shared space.
	if findShared(sa, p, s1.Base) != s1 || findShared(sa, p, s2.Base+hw.PageSize) != s2 {
		t.Fatal("stacks not on shared list")
	}
	// Member exit detaches its stack.
	c1.SetShMask(proc.PRSALL)
	c2.SetShMask(proc.PRSALL)
	sa.AddMember(c1)
	sa.AddMember(c2)
	sa.ResolveShared(c1, s1.Base, true) // make a page resident
	used := r.mem.InUse()
	sa.Leave(c1)
	if findShared(sa, p, s1.Base) != nil {
		t.Fatal("dead member's stack still shared")
	}
	if r.mem.InUse() != used-1 {
		t.Fatal("dead member's stack frames not freed")
	}
	// Exact placement (restore): a base inside a shared region is refused;
	// one beyond the cursor lands there and moves the cursor past it, so
	// the next fresh carve cannot collide.
	if st, err := carve(sa, p, r.newProc(4), r.mem, s2.Base+hw.PageSize, 64, true); err == nil {
		t.Fatalf("exact carve inside a shared stack succeeded at %#x", st.Base)
	}
	far := s2.End() + hw.VAddr(1024*hw.PageSize)
	s4, err := carve(sa, p, r.newProc(5), r.mem, far, 64, true)
	if err != nil || s4.Base != far || findShared(sa, p, far) != s4 {
		t.Fatalf("exact carve at %#x = (%v, %v)", far, s4, err)
	}
	s5, _ := carve(sa, p, r.newProc(6), r.mem, 0, 96, true) // no 96-page range to recycle
	if s5.Base < s4.End()+hw.VAddr(StackGapPages*hw.PageSize) {
		t.Fatalf("fresh carve at %#x did not clear the exact one ending %#x", s5.Base, s4.End())
	}
}

func TestCarveStackPrivate(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	c := r.newProc(2)
	st, _ := carve(sa, p, c, r.mem, 0, 32, false)
	if findShared(sa, p, st.Base) != nil {
		t.Fatal("non-shared stack visible in shared space (paper: must not be)")
	}
}

func TestCOWImageIsolation(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	// Write a value into the shared data region.
	va := vm.DataBase
	pfn, _, _, _, _, err := sa.ResolveShared(p, va, true)
	if err != nil {
		t.Fatal(err)
	}
	r.mem.StoreWord(pfn, 0, 41)

	// The image a forking member gets: its private list and the shared one.
	var image vm.Space
	sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
		var flush bool
		if image, flush = p.Private.Dup(false, sp); flush {
			shoot(0, vm.WholeSpace)
		}
		return nil
	})
	if sa.Shootdowns.Load() != 1 {
		t.Fatal("duplicating a written space did not shoot down stale translations")
	}
	child := image.Find(va)
	if child == nil {
		t.Fatal("image misses data region")
	}
	// Child read sees the snapshot; group write after the image copies.
	cpfn, w, _, _ := child.Reg.Fill(child.PageIndex(va), false)
	if w {
		t.Fatal("aliased page writable")
	}
	if r.mem.LoadWord(cpfn, 0) != 41 {
		t.Fatal("image lost data")
	}
	gp, _, _, _, _, _ := sa.ResolveShared(p, va, true) // group write: breaks alias
	r.mem.StoreWord(gp, 0, 99)
	cpfn2, _, _, _ := child.Reg.Fill(child.PageIndex(va), false)
	if r.mem.LoadWord(cpfn2, 0) != 41 {
		t.Fatal("group write leaked into COW image")
	}
	// And the group still sees its own update.
	gp2, _, _, _, _, _ := sa.ResolveShared(p, va, false)
	if r.mem.LoadWord(gp2, 0) != 99 {
		t.Fatal("group lost its own write")
	}
	image.Clear()
}

func TestShadowEnv(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	p.Mu.Lock()
	p.Umask = 0o027
	p.Ulimit = 777
	p.Uid, p.Gid = 3, 4
	p.Mu.Unlock()
	sa := New(p)
	cdir, rdir, umask, ulimit, uid, gid := sa.ShadowEnv()
	if cdir != r.fs.Root() || rdir != r.fs.Root() {
		t.Fatal("shadow dirs wrong")
	}
	if umask != 0o027 || ulimit != 777 || uid != 3 || gid != 4 {
		t.Fatalf("shadow env = %o %d %d %d", umask, ulimit, uid, gid)
	}
}
