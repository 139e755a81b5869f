// Package core implements process share groups — the paper's contribution.
//
// A share group is a set of processes with a common ancestor that have not
// exec'd, selectively sharing resources according to per-process share
// masks. All members reference a single shared address block (shaddr_t,
// paper §6.1) holding:
//
//   - the shared pregion list and its shared read lock (s_region,
//     s_acclck/s_acccnt/s_waitcnt/s_updwait);
//   - the member list (s_plink, s_refcnt, s_flag, s_listlock);
//   - the open-file update semaphore and shadow descriptor table
//     (s_fupdsema, s_ofile, s_pofile);
//   - shadow copies of the current/root directory, umask, ulimit and ids
//     (s_cdir, s_rdir, s_cmask, s_limit, s_uid, s_gid) with a misc update
//     lock (s_rupdlock).
//
// Resources with reference counts (files, inodes) have their counts bumped
// once for the shared address block itself, so the member that changed a
// resource may exit before the others synchronize (paper §6.3).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/klock"
	"repro/internal/percpu"
	"repro/internal/proc"
	"repro/internal/vm"
)

// StackGapPages separates consecutive sproc stacks in the shared space so
// a runaway stack cannot silently walk into its neighbour.
const StackGapPages = 16

// ShAddr is the shared address block: one per share group.
type ShAddr struct {
	// Shared pregion handling. space is edited only inside UpdateVM and
	// read only under the Acc read lock (ResolveShared, ViewVM).
	Acc   klock.MRLock // s_acclck / s_acccnt / s_waitcnt / s_updwait
	space vm.Space     // s_region: the shared pregion list, and the group's mapping arena
	ASID  hw.ASID      // the shared virtual space's identifier

	// updater is the process inside UpdateVM, whose CPU pays for the
	// bracket's shootdowns.
	updater *proc.Proc

	// gen is the shared-list generation: bumped by every UpdateVM, it
	// validates the members' last-hit pregion caches — a fault whose
	// cached generation still matches may skip the list scan. nregions
	// mirrors the list's length for lock-free diagnostics (String, sgtop).
	gen      atomic.Uint64
	nregions atomic.Int32

	// Membership.
	listLock klock.Spin   // s_listlock
	members  []*proc.Proc // s_plink
	refcnt   int          // s_refcnt

	// Single-threaded open-file updating.
	fupdSema *klock.Sema   // s_fupdsema (initialized to 1: a sleeping mutex)
	fdSleeps *atomic.Int64 // counts sleeps on fupdSema (CountFdSleeps)
	ofile    []*fs.File    // s_ofile: block's copy of the descriptor table
	pofile   []uint8       // s_pofile: copy of the descriptor flags

	// Misc shared attributes, guarded by rupdLock.
	rupdLock klock.Spin // s_rupdlock
	cdir     *fs.Inode  // s_cdir (held)
	rdir     *fs.Inode  // s_rdir (held)
	cmask    uint16     // s_cmask: umask
	limit    int64      // s_limit: ulimit
	uid      uint16     // s_uid
	gid      uint16     // s_gid

	// The group's stack arena, and the stack sproc carved for each member,
	// so the range can be recycled (and, for VM-sharing members, the
	// pregion unmapped from the shared space) when the member exits. Both
	// are guarded by the Acc update lock: CarveStack and ReleaseStack run
	// inside UpdateVM.
	stacks      vm.Arena
	memberStack map[*proc.Proc]memberStack

	// Options (ablation and §8-extension switches).
	opts Options

	// gang is the per-group gang-scheduling request (§8, SetGang).
	gang atomic.Bool

	// Resource-principal state (setshares(2)/getusage(2)): the fair-share
	// CPU account the scheduler charges at quantum boundaries, the frame
	// account every member's page fills charge, and the member ceiling
	// sproc enforces (0 = unlimited).
	cpuAcct   *proc.CPUAcct
	frameAcct hw.FrameAcct
	memberCap atomic.Int32

	// Quota-reclaim statistics (the over-quota degradation path).
	QuotaReclaims  atomic.Int64 // reclaim passes run for this group
	ReclaimedZeros atomic.Int64 // all-zero frames the passes released

	// Statistics.
	Propagations atomic.Int64   // shared-resource updates pushed to the block
	Syncs        atomic.Int64   // member entry synchronizations performed
	Shootdowns   atomic.Int64   // region shrink/detach shootdowns
	CacheHits    percpu.Counter // faults resolved from a member's pregion cache
	CacheMisses  percpu.Counter // faults that scanned the shared list
}

// touchRegions records a mutation of the shared pregion list (or of a
// listed region's extent): it invalidates every member's lookup cache by
// bumping the generation and refreshes the lock-free region count. Caller
// holds the Acc update lock (or is the teardown's last member).
func (sa *ShAddr) touchRegions() {
	sa.gen.Add(1)
	sa.nregions.Store(int32(sa.space.Len()))
}

// Generation returns the shared-list generation (tests, diagnostics).
func (sa *ShAddr) Generation() uint64 { return sa.gen.Load() }

// Options selects implementation variants, used by the ablation
// experiments to measure the design choices the paper made.
type Options struct {
	// ExclusiveVMLock replaces the shared read lock on the pregion list
	// with an exclusive lock — the design the paper rejected because
	// every member's page fault would serialize.
	ExclusiveVMLock bool
	// EagerAttrSync pushes attribute changes into every member's user
	// area at update time instead of deferring to each member's next
	// kernel entry — the design the paper rejected because members may
	// not be available ("it could even be waiting for a resource that
	// the examining process controls").
	EagerAttrSync bool
	// Machine is the machine the group runs on: its TLBs are what UpdateVM
	// shoots. Nil (unit tests) flushes nothing.
	Machine *hw.Machine
	// EagerDup makes UnshareVM duplicate regions with the spawn-time table
	// walk instead of the lazy O(1) clone — the pre-lazy fork path, kept so
	// benchtab E1c can measure the O(pages) cost the lazy protocol removes.
	EagerDup bool
}

// Gang implements proc.ShareGroup: whether the group asked for gang
// scheduling.
func (sa *ShAddr) Gang() bool { return sa.gang.Load() }

// SetGang records the group's gang-scheduling request.
func (sa *ShAddr) SetGang(on bool) { sa.gang.Store(on) }

// CPUAcct implements proc.ShareGroup: the group's fair-share CPU account.
func (sa *ShAddr) CPUAcct() *proc.CPUAcct { return sa.cpuAcct }

// FrameAcct returns the group's frame account; member page fills charge it.
func (sa *ShAddr) FrameAcct() *hw.FrameAcct { return &sa.frameAcct }

// CountFdSleeps makes every later sleep on the group's descriptor
// semaphore add one to n. The kernel passes its machine-wide counter
// (Stats.FdSemaSleeps) when it creates the group.
func (sa *ShAddr) CountFdSleeps(n *atomic.Int64) { sa.fdSleeps = n }

// MemberCap returns the group's member ceiling (0 = unlimited).
func (sa *ShAddr) MemberCap() int32 { return sa.memberCap.Load() }

// SetMemberCap replaces the member ceiling. An existing overshoot is not
// evicted; further sprocs are refused until attrition brings it back down.
func (sa *ShAddr) SetMemberCap(n int32) {
	if n < 0 {
		n = 0
	}
	sa.memberCap.Store(n)
}

var _ proc.ShareGroup = (*ShAddr)(nil)

// New creates a share group around its first member with default options.
func New(creator *proc.Proc) *ShAddr { return NewWithOptions(creator, Options{}) }

// NewWithOptions creates a share group around its first member. The creator's
// sharable pregions move to the shared list (paper §6.2: "when a process
// first creates a share group all of its sharable pregions are moved to
// the list of pregions in the shared address block"); the PRDA stays
// private. The block takes its own references on the creator's open files
// and directories. The creator's share mask becomes PR_SALL ("the original
// process in a share group is given a mask indicating that all resources
// are shared").
func NewWithOptions(creator *proc.Proc, opts Options) *ShAddr {
	sa := &ShAddr{
		fupdSema:    klock.NewSema(1),
		cpuAcct:     proc.NewCPUAcct(),
		ASID:        creator.ASID,
		stacks:      vm.NewArena(vm.SprocStackBase, StackGapPages),
		memberStack: map[*proc.Proc]memberStack{},
		opts:        opts,
	}

	// Move sharable pregions to the shared list; only the PRDA stays
	// private, and the creator's mapping arena becomes the group's.
	sa.space = creator.Private.Split(func(pr *vm.PRegion) bool { return pr.Reg.Type == vm.RPRDA })
	// A creator forked from a member of another group holds copies of that
	// group's sproc stacks: carve past them.
	for _, pr := range sa.space.Regions() {
		if pr.Base >= vm.SprocStackBase && pr.End() < vm.MainStackTop {
			sa.stacks.Reserve(pr.Base, pr.Reg.Pages())
		}
	}
	sa.touchRegions()

	// Shadow the environment, bumping reference counts for the block.
	creator.Mu.Lock()
	sa.ofile = make([]*fs.File, len(creator.Fd))
	sa.pofile = make([]uint8, len(creator.FdFlags))
	copy(sa.pofile, creator.FdFlags)
	for i, f := range creator.Fd {
		if f != nil {
			sa.ofile[i] = f.Hold()
		}
	}
	if creator.Cdir != nil {
		sa.cdir = creator.Cdir.Hold()
	}
	if creator.Rdir != nil {
		sa.rdir = creator.Rdir.Hold()
	}
	sa.cmask = creator.Umask
	sa.limit = creator.Ulimit
	sa.uid = creator.Uid
	sa.gid = creator.Gid
	creator.Mu.Unlock()

	sa.members = []*proc.Proc{creator}
	sa.refcnt = 1
	creator.SetShare(sa)
	creator.SetShMask(proc.PRSALL)
	return sa
}

// AddMember links p into the group.
func (sa *ShAddr) AddMember(p *proc.Proc) {
	sa.listLock.Lock()
	sa.members = append(sa.members, p)
	sa.refcnt++
	sa.listLock.Unlock()
	p.SetShare(sa)
}

// memberStack records the stack sproc carved for a member.
type memberStack struct {
	pr     *vm.PRegion
	pages  int // carved size, for range recycling
	shared bool
}

// Leave removes p from the group (exit or exec). The last member out
// tears the block down, releasing the block's own references. The stack
// sproc carved for p is withdrawn — unmapped from the shared space if p
// shares it — and its range recycled for future sproc children. A member
// sharing PR_SADDR leaves behind translations other members may hold (its
// stack) and ones only it could make (its private list, under the group's
// ASID), so its departure flushes the whole space here, inside the bracket:
// no member can refill a translation while the update lock is held, so the
// flush has emptied the stack's range before it is unlisted and freed. The
// flush is the machine's, like reap's of a process that shares no space,
// and is charged to nobody.
func (sa *ShAddr) Leave(p *proc.Proc) {
	sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
		if p.ShMask()&proc.PRSADDR != 0 {
			sa.updater = nil
			shoot(0, vm.WholeSpace)
		}
		sa.ReleaseStack(sp, p, vm.NoShoot)
		return nil
	})

	sa.listLock.Lock()
	for i, m := range sa.members {
		if m == p {
			sa.members = append(sa.members[:i], sa.members[i+1:]...)
			break
		}
	}
	sa.refcnt--
	last := sa.refcnt == 0
	sa.listLock.Unlock()
	p.SetShare(nil)
	p.SetShMask(0)
	// The lookup cache must not outlive the membership: generations are
	// per-group counters, so a stale entry carried into a later group
	// could validate against a colliding generation.
	p.VMC.Clear()

	if last {
		sa.teardown()
	}
}

// teardown releases everything the block holds. Only the last leaving
// member calls it, so no locks are needed.
func (sa *ShAddr) teardown() {
	sa.space.Clear()
	sa.touchRegions()
	for i, f := range sa.ofile {
		if f != nil {
			f.Release()
			sa.ofile[i] = nil
		}
	}
	// The creator's directories can be nil (embryonic or torn-down
	// processes); NewWithOptions only takes references that exist.
	if sa.cdir != nil {
		sa.cdir.Release()
	}
	if sa.rdir != nil {
		sa.rdir.Release()
	}
	sa.cdir, sa.rdir = nil, nil
}

// Size returns the number of members.
func (sa *ShAddr) Size() int {
	sa.listLock.Lock()
	defer sa.listLock.Unlock()
	return sa.refcnt
}

// Members returns a snapshot of the member list.
func (sa *ShAddr) Members() []*proc.Proc {
	sa.listLock.Lock()
	defer sa.listLock.Unlock()
	out := make([]*proc.Proc, len(sa.members))
	copy(out, sa.members)
	return out
}

// markOthers tells every member sharing res, except the updater, that its
// copy is out of date: the p_flag update walk of §6.3, which sets the sync
// bits each member tests on its next kernel entry and returns 0. Under the
// eager-sync ablation the walk instead applies the change to each member
// now — while it may be running, sleeping, or waiting on a resource the
// updater holds — and returns how many it pushed, the work the updater did
// inline and is charged for. For descriptors the caller holds fupdSema.
func (sa *ShAddr) markOthers(updater *proc.Proc, res proc.Mask) (pushed int) {
	sa.Propagations.Add(1)
	if sa.opts.EagerAttrSync {
		for _, m := range sa.Members() {
			shared := m.ShMask() & res
			if m == updater || shared == 0 {
				continue
			}
			if shared&proc.PRSFDS != 0 {
				sa.syncFdsLocked(m)
			}
			sa.copyAttrs(m, shared, false)
			sa.Syncs.Add(1)
			pushed++
		}
		return pushed
	}
	sa.listLock.Lock()
	for _, m := range sa.members {
		if bits := uint32(m.ShMask() & res); m != updater && bits != 0 {
			m.SetSyncBits(bits)
		}
	}
	sa.listLock.Unlock()
	return 0
}

func (sa *ShAddr) String() string {
	sa.listLock.Lock()
	n := sa.refcnt
	sa.listLock.Unlock()
	// nregions mirrors the shared list's length atomically: reading the
	// space here would race with UpdateVM.
	return fmt.Sprintf("shaddr{members=%d, regions=%d, asid=%d}", n, sa.nregions.Load(), sa.ASID)
}
