package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Live checkpoint/restore of a running share group (DESIGN.md §17).
//
// ckpt(2) snapshots the caller's share group by iterative pre-copy: the
// regions' writable PTE bits are cleared and a dirty bitmap armed
// (vm.TrackDirty), the whole resident set is copied while every member
// keeps running, and each subsequent pass re-copies only the pages members
// re-dirtied in the meantime (vm.TakeDirty). When the requested passes are
// spent, the group is frozen — every member is parked at its next
// safepoint (Context.freezePark) or found already asleep — and only the
// final dirty delta is copied inside the stop-the-world window, together
// with the register-level member state and the share block's attributes.
// The window's length is therefore proportional to the last pass's dirty
// delta, not to the image: that is the whole point of pre-copy, and the
// S10 benchmark pins it.
//
// restore(2) is the inverse: a group-less caller adopts the image's
// creator role (identity, descriptor table, PRDA, stack geometry), a fresh
// share block is built around it, the shared regions are reconciled to the
// image's geometry, page contents are written back through vm.WritePage
// (never through raw PTE words — the boundary internal/lint pins), and the
// remaining members are respawned at their recorded stack addresses with
// their recorded entry arguments. Respawned members begin their entry
// functions from the top: the simulation checkpoints memory and kernel
// state, not Go execution state, so restartable workloads structure their
// entries in phases keyed off the shared memory they find.

// Checkpoint/restore errors. Both quiescence failure and a lost initiator
// race surface as EAGAIN with the group thawed and tracking disarmed, so
// the gateway's sfRetry backoff can safely re-run the call.
var (
	ErrCkptBusy    = errors.New("kernel: another checkpoint is in progress") // EAGAIN
	ErrCkptQuiesce = errors.New("kernel: share group failed to quiesce")     // EAGAIN
)

// The image's lines are the line map's: a page captured by vm.ReadPage is
// stored as is. (The constant overflows unless the two sizes agree.)
const _ = uint(ckpt.LineSize-hw.LineSize) + uint(hw.LineSize-ckpt.LineSize)

// putCaptures puts a pass's copies into a region's older ones, both
// ascending by page index, and returns the result: a page in both takes
// the pass's copy in place, and a page old lacks, one first found resident
// after the first pass, is inserted.
func putCaptures(old, pass []ckpt.PageImage) []ckpt.PageImage {
	if len(old) == 0 {
		return pass
	}
	for _, pg := range pass {
		i, found := slices.BinarySearchFunc(old, pg.Index, cmpIndex)
		if found {
			old[i] = pg
		} else {
			old = slices.Insert(old, i, pg)
		}
	}
	return old
}

// cmpIndex orders a page's copy against a page index.
func cmpIndex(c ckpt.PageImage, idx int) int { return cmp.Compare(c.Index, idx) }

// quiesceMaxIters bounds the freeze protocol's wait for every member to
// reach a safepoint or a sleep; a group that stays runnable past it (a
// member spinning without touching memory) fails the checkpoint with
// EAGAIN rather than wedging the initiator.
const quiesceMaxIters = 100000

// CkptOpts selects how a checkpoint trades live copying for stop time.
type CkptOpts struct {
	// Passes is the number of pre-copy passes run while members execute
	// (the first pass copies the whole resident set, later ones only the
	// re-dirtied delta). 0 skips pre-copy entirely: a naive stop-everything
	// snapshot, the differential baseline the validation layers compare
	// against.
	Passes int
	// PassGap is the simulated cycles the initiator idles between
	// consecutive pre-copy passes, charged in small slices so its CPU
	// actually rotates to the running members. Iterative pre-copy only
	// converges if the passes are spaced against the workload's dirtying
	// rate (CRIU spaces its pre-dump iterations the same way); 0 runs the
	// passes back to back, which is right for an already-quiet group.
	PassGap int64
}

// CkptInfo reports what a checkpoint cost — the S10 benchmark's row.
type CkptInfo struct {
	Passes     int   // pre-copy passes actually run (early-converged loops run fewer)
	PrePages   int   // pages copied live, members running
	STWPages   int   // pages copied inside the stop-the-world window
	STWCycles  int64 // simulated cycles the initiator charged while the group was stopped
	ImageBytes int   // encoded image size
}

// Ckpt checkpoints the caller's share group into a deterministic image
// (ckpt(2)). Every member must share the address space (PR_SADDR): private
// COW images are not captured, so a mixed group fails with EINVAL. One
// checkpoint runs at a time system-wide; a racing initiator gets EAGAIN.
func (c *Context) Ckpt(opts CkptOpts) (*ckpt.Image, CkptInfo, error) {
	type result struct {
		img  *ckpt.Image
		info CkptInfo
	}
	r, err := invoke(c, SysCkpt, func() (result, error) {
		img, info, err := c.ckpt(opts)
		return result{img, info}, err
	})
	return r.img, r.info, err
}

func (c *Context) ckpt(opts CkptOpts) (*ckpt.Image, CkptInfo, error) {
	p := c.P
	sa := groupOf(p)
	if sa == nil {
		return nil, CkptInfo{}, fmt.Errorf("kernel: ckpt outside a share group")
	}
	for _, m := range sa.Members() {
		if m.ShMask()&proc.PRSADDR == 0 {
			return nil, CkptInfo{}, fmt.Errorf("kernel: ckpt of member %d (%s) outside the shared address space", m.PID, m.Name)
		}
	}
	if !c.S.ckptMu.TryLock() {
		return nil, CkptInfo{}, ErrCkptBusy
	}
	defer c.S.ckptMu.Unlock()

	mach := c.S.Machine
	cpu := c.cpu()
	cpuIdx := int(p.CPU.Load())
	pl := c.S.faults

	// pages accumulates the newest copy of every captured page, ascending
	// by page within its pregion; keyed by pregion so a region detached
	// mid-flight simply drops out when the list is re-snapshotted at
	// stop-the-world.
	pages := map[*vm.PRegion][]ckpt.PageImage{}
	tracked := map[*vm.PRegion]bool{}
	armed := map[*vm.Region]bool{}
	frozen := map[*proc.Proc]bool{}
	var gate *proc.FreezeGate
	var info CkptInfo

	// snapshot attaches every region it lists, under the read lock: a member
	// may unmap one meanwhile, and only the cleanup below, once tracking is
	// disarmed, may make the last detach that hands it to vm.NewRegion.
	var held []*vm.Region
	snapshot := func() (regs []*vm.PRegion) {
		sa.ViewVM(p, func(sp *vm.Space) {
			regs = sp.Regions()
			for _, pr := range regs {
				pr.Reg.Attach()
				held = append(held, pr.Reg)
			}
		})
		return regs
	}

	// The cleanup runs on every exit — success, EAGAIN abort, or a kill
	// unwinding the initiator mid-checkpoint: disarm tracking, flush the
	// cleared writable bits' stale TLB entries, drop the snapshots'
	// attachments, then thaw. Thaw order matters: clear every member's
	// freeze pointer before opening the gate, so a member that races past
	// Freeze() cannot re-park on a gate that will never open again.
	defer func() {
		for r := range armed {
			r.UntrackDirty()
		}
		if len(armed) > 0 {
			mach.ShootdownSpace(cpu, sa.ASID)
		}
		for _, r := range held {
			r.Detach()
		}
		for m := range frozen {
			m.ClearFreeze(gate)
		}
		if gate != nil {
			gate.Open()
		}
	}()

	// copyInto cuts a pass's copies of one region's resident pages from
	// one slab, sized by the lines the pages' line maps mark; only a page
	// its members store into meanwhile can outgrow that, and then the slab
	// grows by append. idxs is ascending (allPages, TakeDirty), so the
	// pass's copies are too, and they go into the region's by putCaptures.
	copyInto := func(pr *vm.PRegion, idxs []int) int {
		marked, resident := 0, 0
		for _, idx := range idxs {
			if pfn := pr.Reg.Frame(idx); pfn != hw.NoPFN {
				marked += bits.OnesCount64(mach.Mem.Lines(pfn))
				resident++
			}
		}
		slab := make([]byte, 0, marked*hw.LineSize)
		pass := make([]ckpt.PageImage, 0, resident)
		for _, idx := range idxs {
			at := len(slab)
			lines, out, ok := pr.Reg.ReadPage(idx, slab)
			if ok {
				slab = out
				pass = append(pass, ckpt.PageImage{Index: idx, Lines: lines, Data: slab[at:len(slab):len(slab)]})
			}
		}
		pages[pr] = putCaptures(pages[pr], pass)
		c.charge(int64(len(pass)) * mach.Cost.RegionDup)
		return len(pass)
	}
	// allPages is every index of pr, in one slice the call reuses: each
	// list is spent by the copyInto it is passed to.
	var all []int
	allPages := func(pr *vm.PRegion) []int {
		for i := len(all); i < pr.Reg.Pages(); i++ {
			all = append(all, i)
		}
		return all[:pr.Reg.Pages()]
	}
	// A lazy-dup clone's contents live in its parent's table until a first
	// touch materializes it; nudge one fill through so ReadPage sees the
	// real resident set before the snapshot relies on it.
	materialize := func(pr *vm.PRegion) error {
		if !pr.Reg.Lazy() {
			return nil
		}
		_, _, _, lazyPages, err := pr.Reg.FillAccounted(0, false, cpuIdx, sa.FrameAcct())
		c.charge(int64(lazyPages) * mach.Cost.RegionDup)
		return err
	}

	// Pre-copy: arm dirty tracking on the current region list, flush so
	// the cleared writable bits take effect, then copy pass by pass while
	// the members keep running.
	regs := snapshot()
	if opts.Passes > 0 {
		for _, pr := range regs {
			if err := materialize(pr); err != nil {
				return nil, info, err
			}
			pr.Reg.TrackDirty()
			tracked[pr] = true
			armed[pr.Reg] = true
		}
		mach.ShootdownSpace(cpu, sa.ASID)
		for pass := 0; pass < opts.Passes; pass++ {
			copied := 0
			if pass == 0 {
				for _, pr := range regs {
					copied += copyInto(pr, allPages(pr))
				}
			} else {
				// Harvest every region's delta first, then flush once:
				// a store through a stale writable TLB entry before the
				// flush lands in a frame this pass still copies; after
				// it, the store faults and marks the next pass's bitmap.
				deltas := make([][]int, len(regs))
				for i, pr := range regs {
					deltas[i] = pr.Reg.TakeDirty()
				}
				mach.ShootdownSpace(cpu, sa.ASID)
				for i, pr := range regs {
					copied += copyInto(pr, deltas[i])
				}
			}
			info.Passes++
			info.PrePages += copied
			c.S.ckptPasses.Add(1)
			c.S.ckptPrePages.Add(int64(copied))
			mach.Trace.Record(trace.EvCkptPass, int32(p.PID), p.CPU.Load(), uint64(copied), uint32(pass))

			// Pass-boundary fault injection: half the draws stretch the
			// pre-copy window (members re-dirty more, the next delta
			// grows), the other half abort the checkpoint — tracking is
			// disarmed and nothing was frozen yet, so EAGAIN is clean.
			if pl.Armed(faultinject.SiteCkpt) {
				if hit, draw := pl.Decide(faultinject.SiteCkpt, uint32(pass)); hit {
					if draw>>10&1 == 0 {
						pl.Note(faultinject.SiteCkpt, faultinject.FaultDelay, uint32(pass))
						c.charge(int64(256 + draw%2048))
					} else {
						pl.Note(faultinject.SiteCkpt, faultinject.FaultEAGAIN, uint32(pass))
						return nil, info, ErrCkptBusy
					}
				}
			}
			if pass > 0 && copied == 0 {
				break // converged: nothing re-dirtied since the last pass
			}
			if pass+1 < opts.Passes && opts.PassGap > 0 {
				for left := opts.PassGap; left > 0; left -= 512 {
					c.charge(512)
					runtime.Gosched()
				}
			}
		}
	}

	// Freeze: every other member must reach a safepoint (parked on the
	// gate) or already be off-CPU in a sleep or zombie state. The member
	// list is re-snapshotted every iteration so children sproc'd while we
	// were freezing get a freeze pointer too; the charge keeps the
	// initiator's clock honest while it waits, and Gosched lets runnable
	// members actually reach their safepoints.
	gate = proc.NewFreezeGate()
	for iter := 0; ; iter++ {
		quiet := true
		for _, m := range sa.Members() {
			if m == p {
				continue
			}
			if !frozen[m] {
				m.SetFreeze(gate)
				frozen[m] = true
			}
			if st := m.State(); !m.FrozenAt(gate) && st != proc.SSleep && st != proc.SZomb {
				quiet = false
			}
		}
		if quiet {
			break
		}
		if iter >= quiesceMaxIters {
			return nil, info, ErrCkptQuiesce
		}
		c.charge(32)
		runtime.Gosched()
	}

	// Stop-the-world window: re-snapshot the region list (regions attached
	// mid-pre-copy were never tracked and are copied whole; detached ones
	// drop out), harvest the final delta, and capture the member and
	// attribute state no store can now be racing.
	stwStart := p.Cycles.Load()
	regsNow := snapshot()
	for _, pr := range regsNow {
		if err := materialize(pr); err != nil {
			return nil, info, err
		}
		var idxs []int
		if tracked[pr] {
			idxs = pr.Reg.TakeDirty()
		} else {
			idxs = allPages(pr)
		}
		info.STWPages += copyInto(pr, idxs)
	}

	members := sa.Members()
	img := &ckpt.Image{Version: ckpt.Version, PageSize: hw.PageSize}
	_, _, umask, ulimit, uid, gid := sa.ShadowEnv()
	img.Attr = ckpt.GroupAttr{
		Umask: umask, Ulimit: ulimit, Uid: uid, Gid: gid,
		CPUShares:  sa.CPUAcct().Shares(),
		FrameQuota: sa.FrameAcct().Quota(),
		MemberCap:  sa.MemberCap(),
		Gang:       sa.Gang(),
	}
	for _, pr := range regsNow {
		ri := ckpt.RegionImage{
			Base:  uint64(pr.Base),
			Pages: pr.Reg.Pages(),
			Type:  uint8(pr.Reg.Type),
		}
		// A region that shrank since a pass drops the pages past its end.
		captured := pages[pr]
		n, _ := slices.BinarySearchFunc(captured, ri.Pages, cmpIndex)
		ri.Resid = captured[:n]
		img.Regions = append(img.Regions, ri)
	}
	for _, m := range members {
		if m.State() == proc.SZomb || m.Stack == nil {
			continue
		}
		img.Members = append(img.Members, ckpt.MemberImage{
			PID:        m.PID,
			Name:       m.Name,
			Mask:       uint32(m.ShMask()),
			Prio:       m.Prio.Load(),
			Arg:        m.Arg,
			StackBase:  uint64(m.Stack.Base),
			StackPages: m.Stack.Reg.Pages(),
			PRDA:       capturePRDA(m),
			Fds:        captureFds(m),
		})
	}
	img.Normalize()
	if err := img.Validate(); err != nil {
		return nil, info, err
	}
	info.STWCycles = p.Cycles.Load() - stwStart
	info.ImageBytes = img.EncodedSize()

	c.S.ckpts.Add(1)
	c.S.ckptSTWPages.Add(int64(info.STWPages))
	c.S.ckptSTWCycles.Add(info.STWCycles)
	c.S.ckptImageBytes.Add(int64(info.ImageBytes))
	mach.Trace.Record(trace.EvCkptSTW, int32(p.PID), p.CPU.Load(), uint64(info.STWPages), uint32(len(frozen)))
	return img, info, nil
}

// capturePRDA copies a member's PRDA page contents, nil when the page was
// never touched (demand-zero, restored as such).
func capturePRDA(m *proc.Proc) *ckpt.PageImage {
	pr := m.Private.Find(vm.PRDABase)
	if pr == nil {
		return nil
	}
	lines, data, ok := pr.Reg.ReadPage(0, nil)
	if !ok {
		return nil
	}
	return &ckpt.PageImage{Lines: lines, Data: data}
}

// captureFds records a member's descriptor table: path, flags and offset
// for regular files (the CRIU convention — enough to reacquire them),
// structural presence only for anonymous stream endpoints.
func captureFds(m *proc.Proc) []ckpt.FdImage {
	m.Mu.Lock()
	defer m.Mu.Unlock()
	var out []ckpt.FdImage
	for fd, f := range m.Fd {
		if f == nil {
			continue
		}
		// OCreat/OTrunc describe how the file was opened, not what the
		// descriptor is; the restore reopens without them, so capturing
		// them would make a round-tripped image differ from its source.
		fi := ckpt.FdImage{
			Fd: fd, Path: f.Path(), Flags: f.Flags &^ (fs.OCreat | fs.OTrunc), FdFlags: m.FdFlags[fd],
			Stream: f.Stream != nil,
		}
		if f.Stream == nil {
			fi.Offset = f.Offset()
		}
		out = append(out, fi)
	}
	return out
}

// Restore rebuilds a checkpointed share group around the caller
// (restore(2)). The caller must not already be in a group; it adopts the
// image's creator role — identity, umask/ulimit, descriptor table, PRDA
// and stack geometry — and the remaining members are respawned inside the
// new group at their recorded stack addresses, each executing entry with
// its recorded argument. Respawned members do not start running until the
// whole image is written back. Returns the number of members respawned.
//
// Restore is not atomic against failure: an error partway (a vanished
// file, the process limit) leaves the caller with whatever was rebuilt.
func (c *Context) Restore(img *ckpt.Image, entry func(*Context, int64)) (int, error) {
	return invoke(c, SysRestore, func() (int, error) {
		return c.restore(img, entry)
	})
}

func (c *Context) restore(img *ckpt.Image, entry func(*Context, int64)) (int, error) {
	p := c.P
	if groupOf(p) != nil {
		return -1, fmt.Errorf("kernel: restore inside a share group")
	}
	if err := img.Validate(); err != nil {
		return -1, err
	}
	if img.PageSize != hw.PageSize {
		return -1, fmt.Errorf("kernel: image page size %d, machine uses %d", img.PageSize, hw.PageSize)
	}
	// The geometry is checked before anything is built from it: a base past
	// 4 GiB would be truncated to a 32-bit address, and a page count is a
	// page table's length.
	for _, ri := range img.Regions {
		if !inAddressSpace(ri.Base, ri.Pages) {
			return -1, fmt.Errorf("kernel: image region at %#x, %d pages, is not a page-aligned range below 4 GiB", ri.Base, ri.Pages)
		}
	}
	for _, m := range img.Members {
		if !inAddressSpace(m.StackBase, m.StackPages) {
			return -1, fmt.Errorf("kernel: image stack of %q at %#x, %d pages, is not a page-aligned range below 4 GiB", m.Name, m.StackBase, m.StackPages)
		}
	}
	// The caller takes the creator's place, so its stack must be where the
	// creator's was; checked here, before the caller's state is touched.
	creator := &img.Members[0]
	if p.Stack == nil || uint64(p.Stack.Base) != creator.StackBase {
		return -1, fmt.Errorf("kernel: restore caller stack at %#x, image creator stack at %#x (stack geometry must match)", stackBaseOf(p), creator.StackBase)
	}
	mach := c.S.Machine
	cpu := c.cpu()
	cpuIdx := int(p.CPU.Load())

	// The caller adopts the creator's identity and descriptor table BEFORE
	// the share block exists, so the block's shadow state is built from
	// restored values rather than synchronized after the fact.
	p.Mu.Lock()
	p.Umask = img.Attr.Umask
	p.Ulimit = img.Attr.Ulimit
	p.Uid, p.Gid = img.Attr.Uid, img.Attr.Gid
	p.Mu.Unlock()
	if err := c.restoreFds(p, creator.Fds); err != nil {
		return -1, err
	}
	p.Name = creator.Name
	p.Arg = creator.Arg
	p.Prio.Store(creator.Prio)

	sa := c.shareGroup()
	p.SetShMask(proc.Mask(creator.Mask))

	// Member stacks are carved per respawned member at their recorded
	// bases; every other image region is reconciled against the fresh
	// group's list — matched by base and resized, or attached anew.
	memberStack := map[uint64]bool{}
	for _, m := range img.Members[1:] {
		memberStack[m.StackBase] = true
	}
	inImage := map[uint64]*ckpt.RegionImage{}
	err := sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
		for i := range img.Regions {
			ri := &img.Regions[i]
			inImage[ri.Base] = ri
			if memberStack[ri.Base] {
				continue
			}
			pr := sp.Find(hw.VAddr(ri.Base))
			if pr == nil || uint64(pr.Base) != ri.Base {
				pr = &vm.PRegion{Reg: vm.NewRegion(mach.Mem, vm.RegionType(ri.Type), ri.Pages), Base: hw.VAddr(ri.Base)}
				if err := sp.MapAt(pr); err != nil {
					return err
				}
				continue
			}
			if uint8(pr.Reg.Type) != ri.Type {
				return fmt.Errorf("kernel: region at %#x is %v, image says %v", ri.Base, pr.Reg.Type, vm.RegionType(ri.Type))
			}
			if n := pr.Reg.Pages(); n < ri.Pages {
				if err := sp.Grow(pr, ri.Pages-n); err != nil {
					return err
				}
			} else if n > ri.Pages {
				if _, err := sp.Shrink(pr, n-ri.Pages, shoot); err != nil {
					return err
				}
			}
		}
		// Regions the caller brought in that the image does not know (beyond
		// its own stack, which was geometry-checked above) would reappear in
		// a re-checkpoint and break the restore-and-diff layer; unmap them.
		for _, pr := range sp.Regions() {
			if inImage[uint64(pr.Base)] == nil && pr != p.Stack {
				if err := sp.Unmap(pr, shoot); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return -1, err
	}

	// Respawn members[1:]: proc-table identity from the restored caller,
	// stack at the recorded base, descriptors from the block or reopened
	// from the recorded paths. They are built and counted but not started —
	// no restored member runs before the memory it expects is written back.
	// If the restore fails from here on, the members already built are
	// started with a no-op body so they exit and the caller can reap them:
	// restore is not atomic, but it never strands an unstartable process.
	var spawned []*proc.Proc
	started := false
	defer func() {
		if started {
			return
		}
		for _, child := range spawned {
			c.S.startProc(child, func(*Context) {})
		}
	}()
	for i := range img.Members[1:] {
		m := &img.Members[1:][i]
		child, err := c.spawn(spawnSpec{
			name: m.Name, arg: m.Arg, join: true, mask: proc.Mask(m.Mask),
			stackAt: hw.VAddr(m.StackBase), stackPages: m.StackPages,
			reopenFds: true, fdImage: m.Fds,
			cost: mach.Cost.ProcCreate, kind: trace.CreateSproc,
		})
		if err != nil {
			return -1, err
		}
		child.Prio.Store(m.Prio)
		spawned = append(spawned, child)
	}

	// Write page contents back through vm.WritePage, so the bytes land in
	// frames this group owns: a new frame, filled before its PTE names it,
	// where the slot was empty or aliased the caller's copy-on-write past;
	// in place where the caller already owns the page. Text pages are only
	// written when the image actually recorded non-zero contents (text is
	// immutable and never made writable). Pages resident in a matched
	// region but absent from the image are demand-zero in the image's
	// world — zero them, or the restore-and-diff layer sees ghosts of the
	// caller's past.
	acct := sa.FrameAcct()
	written := 0
	restored := sharedRegions(sa, p)
	for _, pr := range restored {
		ri := inImage[uint64(pr.Base)]
		if ri == nil {
			continue
		}
		resid := ri.Resid // ascending by index (Validate), walked in step with idx
		for idx := 0; idx < pr.Reg.Pages(); idx++ {
			var pg ckpt.PageImage // a page the image lacks is all zero
			if len(resid) > 0 && resid[0].Index == idx {
				pg, resid = resid[0], resid[1:]
			} else if pr.Reg.Frame(idx) == hw.NoPFN {
				continue // demand-zero on both sides
			}
			if pr.Reg.Type == vm.RText && pg.Lines == 0 {
				continue
			}
			lazyPages, err := pr.Reg.WritePage(idx, pg.Lines, pg.Data, cpuIdx, acct)
			if err != nil {
				return -1, err
			}
			c.charge(int64(lazyPages) * mach.Cost.RegionDup)
			written++
		}
	}
	// PRDA contents: the creator's own page, then each respawned member's.
	prdaProcs := append([]*proc.Proc{p}, spawned...)
	for i, mp := range prdaProcs {
		if i >= len(img.Members) {
			break
		}
		pr := mp.Private.Find(vm.PRDABase)
		if pr == nil {
			continue
		}
		var pg ckpt.PageImage
		if prda := img.Members[i].PRDA; prda != nil {
			pg = *prda
		} else if pr.Reg.Frame(0) == hw.NoPFN {
			continue
		}
		if _, err := pr.Reg.WritePage(0, pg.Lines, pg.Data, cpuIdx, acct); err != nil {
			return -1, err
		}
		written++
	}
	c.charge(int64(written) * mach.Cost.RegionDup)

	// Entitlements last: applying the frame quota before the content
	// writes would refuse the restore's own fills.
	if img.Attr.CPUShares > 0 {
		sa.CPUAcct().SetShares(img.Attr.CPUShares)
		c.S.Sched.SetFairShare()
	}
	if img.Attr.FrameQuota > 0 {
		sa.FrameAcct().SetQuota(img.Attr.FrameQuota)
	}
	if img.Attr.MemberCap > 0 {
		sa.SetMemberCap(img.Attr.MemberCap)
	}
	sa.SetGang(img.Attr.Gang)

	// The write-mode fills rewired translations under the caller's feet;
	// flush before anyone runs on the restored space.
	mach.ShootdownSpace(cpu, sa.ASID)
	c.S.restores.Add(1)
	mach.Trace.Record(trace.EvRestore, int32(p.PID), p.CPU.Load(), uint64(len(spawned)), 0)
	started = true
	for _, child := range spawned {
		arg := child.Arg
		c.S.startProc(child, func(cc *Context) { entry(cc, arg) })
	}
	return len(spawned), nil
}

// inAddressSpace reports whether pages pages from base are a page-aligned
// range of the 32-bit virtual address space.
func inAddressSpace(base uint64, pages int) bool {
	const top = 1 << 32
	return base%hw.PageSize == 0 && base < top && uint64(pages) <= (top-base)/hw.PageSize
}

// restoreFds replaces a process's descriptor table with the image's:
// path-backed files are reopened (never created or truncated — restore
// reacquires, it does not author) and repositioned; anonymous stream
// records are structural only and leave their slot empty.
func (c *Context) restoreFds(p *proc.Proc, fds []ckpt.FdImage) error {
	cred := c.cred()
	p.Mu.Lock()
	p.CloseAllFds()
	p.Mu.Unlock()
	for _, fi := range fds {
		if fi.Stream || fi.Path == "" {
			continue
		}
		if fi.Fd >= p.FdCeiling() {
			return fmt.Errorf("kernel: restore fd %d: %w", fi.Fd, fs.ErrFdFull)
		}
		f, err := c.S.FS.Open(cred, fi.Path, fi.Flags&^(fs.OCreat|fs.OTrunc), 0)
		if err != nil {
			return fmt.Errorf("kernel: restore fd %d: reopen %q: %w", fi.Fd, fi.Path, err)
		}
		if _, err := f.Seek(fi.Offset, fs.SeekSet); err != nil {
			f.Release()
			return fmt.Errorf("kernel: restore fd %d: seek %q: %w", fi.Fd, fi.Path, err)
		}
		p.Mu.Lock()
		p.SetFd(fi.Fd, f)
		p.FdFlags[fi.Fd] = fi.FdFlags
		p.Mu.Unlock()
	}
	return nil
}
