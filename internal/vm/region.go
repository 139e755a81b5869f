// Package vm implements the System V.3 region model of virtual memory
// [Bach 1986] that the share-group implementation is built on: regions
// describe contiguous virtual spaces and hold the page-table information;
// pregions are linked per process (or, for a share group, per shared
// address block) and describe where a region is attached.
//
// The package supplies the pieces the paper's §6.2 needs: copy-on-write
// duplication for fork and non-VM-sharing sproc, demand zero-fill, region
// grow/shrink for sbrk and stack autogrow, and fault resolution that scans
// a private pregion list first and a shared list second. The fault path is
// built so the common case — page resident, permission adequate — takes no
// lock at all: the page table is an array of atomic PTE words (fillfast.go)
// and only the fill slow paths (zero-fill, copy-on-write, permission
// upgrade) serialize, on a per-page-range stripe rather than a region-wide
// mutex.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
)

// ErrTextWrite reports a store into a text region, which is never
// writable: System V shares text between processes, so a breakpoint-style
// modification requires a private text region instead.
var ErrTextWrite = errors.New("vm: store to text region")

// RegionType classifies a region.
type RegionType int

const (
	RText  RegionType = iota // program text (read-only, shared on fork)
	RData                    // heap/data (grows up via brk)
	RStack                   // stack (grows down, autogrow)
	RShm                     // System V shared memory / mmap
	RPRDA                    // process data area: always private (paper §5.1)
)

var regionTypeNames = map[RegionType]string{
	RText: "text", RData: "data", RStack: "stack", RShm: "shm", RPRDA: "prda",
}

func (t RegionType) String() string {
	if s, ok := regionTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("region(%d)", int(t))
}

// The packed PTE word. An empty slot is 0; a filled slot carries the frame
// number in the low 32 bits, ptePresent, and pteWritable if a store through
// this region may hit the frame directly. The writable bit is a cached
// permission, not the authority: it is set only while the region holds the
// sole reference to the frame (or on a fresh zero fill), cleared by Dup
// when aliases are created, and re-derived from the frame reference count
// on the fill slow path. A clear bit therefore never permits a wrong store;
// at worst it costs one extra fault that upgrades it.
const (
	ptePFNMask  uint64 = 1<<32 - 1
	ptePresent  uint64 = 1 << 32
	pteWritable uint64 = 1 << 33
)

// outOfRange builds the fill bounds error (shared by the fast and slow
// paths; it lives here so fillfast.go stays free of fmt).
func outOfRange(r *Region, idx, npages int) error {
	return fmt.Errorf("vm: page %d outside %s region of %d pages", idx, r.Type, npages)
}

func pteEncode(pfn hw.PFN, writable bool) uint64 {
	w := uint64(pfn) | ptePresent
	if writable {
		w |= pteWritable
	}
	return w
}

// pteTable is an immutable-length page table: the slot values mutate
// atomically, but the slice itself is only ever swapped wholesale (Grow,
// Shrink) under every stripe, so a reader holding a *pteTable can index it
// freely within len(slots).
type pteTable struct {
	slots []atomic.Uint64
}

// regionStripes is the number of fill-path locks per region. Slot idx is
// protected by stripe idx&(regionStripes-1); structural operations (grow,
// shrink, duplicate, final detach) hold all stripes.
const regionStripes = 8

// Region is a contiguous virtual space: its page table (one atomic PTE per
// page, empty until demand-filled), a type, and a reference count of
// attachments. A region attached by several pregions (shared text, SysV
// shm, a share group's shared list) is one object; copy-on-write
// duplication creates a second Region whose slots alias the same frames
// with bumped frame reference counts.
//
// Concurrency: Fill/FillOn may be called from any number of CPUs at once
// with no external lock. Structural mutations (Grow, Shrink, Dup, the
// final Detach) exclude the fill slow paths by taking every stripe, but
// the lock-free fast path can still be concurrently reading the old table.
// What it returns reaches memory only through a TLB entry, and the kernel
// installs that entry against the share group's update generation and
// touches under the TLB's lock (kernel.Context.fault and access), so the
// update-lock + TLB-shootdown protocol (paper §6.2) flushes it, or refuses
// it, before a frame it names is freed.
//
// Layout: the header every fault reads comes first, then one line of
// padding, then what the fill slow path writes (resident, everWritable, the
// stripe mutexes), so a zero fill on one CPU does not evict the header from
// another CPU's resident fault.
type Region struct {
	Type  RegionType
	table atomic.Pointer[pteTable]
	refs  atomic.Int32 // pregion attachments
	mem   *hw.Memory

	// Lazy-duplication state (DESIGN.md §16). A region created by DupLazy
	// starts with an empty table and a pointer back to its source; the
	// source keeps the clone on lazyKids until the first slow-path fault on
	// either side (or a structural operation) materializes every pending
	// clone in one walk. lazyPend counts the pending relationships the
	// region participates in — one per pending clone for a source, one for
	// an unmaterialized clone — so both fill paths detect "lazy work
	// pending" with a single atomic load. Invariant: a region with pending
	// clones is never itself unmaterialized (DupLazy resolves an
	// unmaterialized source first), so resolution never chains.
	lazySrc  atomic.Pointer[Region]
	lazyKids []*Region // pending clones; guarded by lockAll
	lazyPend atomic.Int32

	// dirty, when non-nil, is the armed checkpoint dirty bitmap (dirty.go):
	// the fill slow path records every writable install in it so iterative
	// pre-copy can harvest the pages re-dirtied between passes.
	dirty atomic.Pointer[dirtyMap]

	_ [64]byte // the header above is read by every fault; below is written by fills

	resident atomic.Int64 // filled slots, maintained so Resident is O(1)

	// everWritable latches when the region first installs a writable PTE.
	// A region that never held one (text, never-stored data) has no
	// writable bits to clear at duplication time and its address space
	// cannot cache a writable TLB entry, so its dup skips the source-side
	// flush entirely.
	everWritable atomic.Bool

	stripes [regionStripes]sync.Mutex
}

// NewRegion creates a region of npages demand-zero pages.
func NewRegion(mem *hw.Memory, typ RegionType, npages int) *Region {
	r := &Region{Type: typ, mem: mem}
	r.refs.Store(1)
	r.table.Store(&pteTable{slots: make([]atomic.Uint64, npages)})
	return r
}

// lockAll takes every stripe (in index order; all callers use this helper,
// so the order is consistent and deadlock-free).
func (r *Region) lockAll() {
	for i := range r.stripes {
		r.stripes[i].Lock()
	}
}

func (r *Region) unlockAll() {
	for i := range r.stripes {
		r.stripes[i].Unlock()
	}
}

// lockAllResolved materializes any pending lazy duplication, then takes
// every stripe, retrying if a new clone slipped in between. The structural
// operations (grow, shrink, reclaim, eager dup) go through this: they
// mutate the table, and a pending clone's deferred snapshot depends on the
// table staying exactly as it was at DupLazy time.
func (r *Region) lockAllResolved() {
	for {
		r.materialize()
		r.lockAll()
		if r.lazyPend.Load() == 0 {
			return
		}
		r.unlockAll()
	}
}

// Pages returns the current length of the region in pages.
func (r *Region) Pages() int { return len(r.table.Load().slots) }

// Refs returns the attachment count.
func (r *Region) Refs() int32 { return r.refs.Load() }

// Attach bumps the attachment count (a new pregion references the region).
func (r *Region) Attach() { r.refs.Add(1) }

// Detach drops one attachment; the last detach frees every resident frame.
// It returns the remaining count.
func (r *Region) Detach() int32 {
	n := r.refs.Add(-1)
	if n < 0 {
		panic("vm: Detach below zero")
	}
	if n == 0 {
		// A clone dying untouched just unlinks from its source: no frame
		// was ever aliased, so there is nothing to free and the source
		// keeps its writable bits — the O(1) exit half of the O(1) spawn.
		if src := r.lazySrc.Load(); src != nil && src.dropKid(r) {
			return 0
		}
		// Pending clones of this region alias into its frames; they must
		// materialize before the frames are released.
		r.materialize()
		r.lockAll()
		t := r.table.Load()
		for i := range t.slots {
			if w := t.slots[i].Load(); w&ptePresent != 0 {
				r.mem.DecRef(hw.PFN(w & ptePFNMask))
				t.slots[i].Store(0)
			}
		}
		r.resident.Store(0)
		r.unlockAll()
	}
	return n
}

// Frame returns the frame backing page idx, or NoPFN if not yet filled.
func (r *Region) Frame(idx int) hw.PFN {
	t := r.table.Load()
	if idx < 0 || idx >= len(t.slots) {
		return hw.NoPFN
	}
	if w := t.slots[idx].Load(); w&ptePresent != 0 {
		return hw.PFN(w & ptePFNMask)
	}
	return hw.NoPFN
}

// Resident counts demand-filled pages. O(1): the count is maintained on
// fill, shrink and detach (sgtop and the conservation audits call this
// per group member). An unmaterialized lazy clone reports zero — it
// genuinely occupies no frames until its first touch.
func (r *Region) Resident() int { return int(r.resident.Load()) }

// EverWritable reports whether the region has ever installed a writable
// PTE — and so whether its address space may cache a writable TLB entry
// that a COW duplication must flush.
func (r *Region) EverWritable() bool { return r.everWritable.Load() }

// Lazy reports whether the region is an unmaterialized clone or has
// unmaterialized clones pending (the storm tests use it to assert the
// steady state drains).
func (r *Region) Lazy() bool { return r.lazyPend.Load() != 0 }

// FillResult says how a fault was resolved, so the fault handler can
// charge the right cost.
type FillResult int

const (
	FillCached FillResult = iota // frame was already resident and adequate
	FillZeroed                   // demand zero-fill allocated a frame
	FillCopied                   // copy-on-write broke an alias
)

// Fill resolves a fault on page idx for the given access. It demand-fills
// an absent page with a zero frame and, on a write to a frame whose
// reference count exceeds one (a copy-on-write alias created by Dup),
// replaces it with a private copy. It returns the frame to map and whether
// the mapping may be writable. writable is true exactly when this region
// holds the sole reference to the frame, so a TLB entry installed from the
// result can never allow a store to an aliased frame.
func (r *Region) Fill(idx int, write bool) (pfn hw.PFN, writable bool, res FillResult, err error) {
	return r.FillOn(idx, write, -1)
}

// lockStripeResolved takes page idx's stripe with no lazy duplication
// pending on the region, and returns it with the page-table slots it had
// to walk to get there.
func (r *Region) lockStripeResolved(idx int) (stripe *sync.Mutex, lazyPages int) {
	stripe = &r.stripes[idx&(regionStripes-1)]
	for {
		stripe.Lock()
		if r.lazyPend.Load() == 0 {
			return stripe, lazyPages
		}
		// A lazy duplication is pending on this region (it is an untouched
		// clone, or clones of it are). The stripe cannot be held across the
		// resolution — materialize takes every stripe — so drop it, walk,
		// and retry. The pending count is stable under the stripe (DupLazy
		// and resolveKids both require all stripes), so the re-check after
		// relock is decisive.
		stripe.Unlock()
		lazyPages += r.materialize()
	}
}

// fillSlow is the locked half of FillOn: lazy-dup materialization, zero
// fill, copy-on-write break, and writable upgrade, serialized per page on
// the slot's stripe. The caller (the lock-free fast path in fillfast.go)
// has already failed the unlocked check; everything is re-checked here
// because another CPU may have filled the slot between the check and the
// lock. lazyPages reports the page-table slots a materialization walked on
// this call, so the kernel can charge the deferred duplication cost to the
// faulting CPU.
func (r *Region) fillSlow(idx int, write bool, cpu int, acct *hw.FrameAcct) (pfn hw.PFN, writable bool, res FillResult, lazyPages int, err error) {
	stripe, lazyPages := r.lockStripeResolved(idx)
	defer stripe.Unlock()
	// Re-load the table under the stripe: holding any stripe excludes the
	// structural operations, so this snapshot cannot be swapped out from
	// under us.
	t := r.table.Load()
	if idx >= len(t.slots) {
		return hw.NoPFN, false, FillCached, lazyPages, fmt.Errorf("vm: page %d outside %s region of %d pages", idx, r.Type, len(t.slots))
	}
	slot := &t.slots[idx]
	w := slot.Load()
	if w&ptePresent == 0 {
		// Demand zero fill, charged to the faulting principal.
		pfn, err = r.mem.AllocFor(cpu, acct)
		if err != nil {
			return hw.NoPFN, false, FillCached, lazyPages, err
		}
		writable = r.Type != RText
		if writable {
			r.everWritable.Store(true)
			r.noteDirty(idx)
		}
		slot.Store(pteEncode(pfn, writable))
		r.resident.Add(1)
		return pfn, writable, FillZeroed, lazyPages, nil
	}
	pfn = hw.PFN(w & ptePFNMask)
	if r.Type == RText {
		return pfn, false, FillCached, lazyPages, nil
	}
	if w&pteWritable != 0 {
		// Another CPU resolved this page (zero fill or COW break) between
		// our fast-path check and taking the stripe.
		return pfn, true, FillCached, lazyPages, nil
	}
	if r.mem.Ref(pfn) == 1 {
		if !write && r.dirty.Load() != nil {
			// Tracking armed: a read must not re-install the writable bit,
			// or pages merely read between pre-copy passes would count as
			// dirtied. The store that eventually comes re-faults and lands
			// in the upgrade below with write == true.
			return pfn, false, FillCached, lazyPages, nil
		}
		// Sole owner again (the alias detached since Dup cleared the bit):
		// upgrade in place.
		r.everWritable.Store(true)
		r.noteDirty(idx)
		slot.Store(pteEncode(pfn, true))
		return pfn, true, FillCached, lazyPages, nil
	}
	if !write {
		return pfn, false, FillCached, lazyPages, nil
	}
	// Copy-on-write: break the alias; the copy is the faulter's charge.
	cp, err := r.mem.CopyFrameFor(pfn, cpu, acct)
	if err != nil {
		return hw.NoPFN, false, FillCached, lazyPages, err
	}
	r.mem.DecRefOn(pfn, cpu)
	r.everWritable.Store(true)
	r.noteDirty(idx)
	slot.Store(pteEncode(cp, true))
	return cp, true, FillCopied, lazyPages, nil
}

// WritePage makes page idx hold data (at most one page, from byte 0; bytes
// past len(data) keep their value) — ReadPage's counterpart, the surface
// restore writes a checkpoint image back through. A page that needs a new
// frame anyway — an absent slot, or a copy-on-write alias that a whole page
// of data would overwrite entirely — gets one allocated, filled with plain
// stores while no PTE names it (hw.FillFrame) and only then published, so
// nothing about who else may be running has to be argued. Any other page is
// resolved as a store fault would (text: a load fault, text is never
// writable) and written in place with atomic word stores. Frames are
// charged to acct; lazyPages is the deferred duplication walked on the way,
// for the caller to charge as FillAccounted's.
func (r *Region) WritePage(idx int, data []byte, cpu int, acct *hw.FrameAcct) (lazyPages int, err error) {
	if len(data) > hw.PageSize {
		data = data[:hw.PageSize]
	}
	if n := r.Pages(); idx < 0 || idx >= n {
		return 0, outOfRange(r, idx, n)
	}
	stripe, lazyPages := r.lockStripeResolved(idx)
	fresh, err := r.writeFresh(idx, data, cpu, acct)
	stripe.Unlock()
	if fresh || err != nil {
		return lazyPages, err
	}
	pfn, _, _, walked, err := r.FillAccounted(idx, r.Type != RText, cpu, acct)
	if err == nil {
		r.mem.WriteBytes(pfn, 0, data)
	}
	return lazyPages + walked, err
}

// writeFresh is WritePage's new-frame case, called with idx's stripe held
// and no lazy duplication pending. It reports false, having done nothing,
// when the slot holds a frame data can be written into in place.
func (r *Region) writeFresh(idx int, data []byte, cpu int, acct *hw.FrameAcct) (bool, error) {
	t := r.table.Load()
	if idx >= len(t.slots) {
		return false, outOfRange(r, idx, len(t.slots))
	}
	slot := &t.slots[idx]
	w := slot.Load()
	old := hw.PFN(w & ptePFNMask)
	if w&ptePresent != 0 && (r.Type == RText || len(data) < hw.PageSize || w&pteWritable != 0 || r.mem.Ref(old) == 1) {
		return false, nil
	}
	r.mem.SlowFills.AddOn(cpu, 1)
	pfn, err := r.mem.AllocFor(cpu, acct)
	if err != nil {
		return false, err
	}
	r.mem.FillFrame(pfn, data)
	writable := r.Type != RText
	if writable {
		r.everWritable.Store(true)
		r.noteDirty(idx)
	}
	slot.Store(pteEncode(pfn, writable))
	if w&ptePresent != 0 {
		r.mem.DecRefOn(old, cpu)
	} else {
		r.resident.Add(1)
	}
	return true, nil
}

// ReclaimZero counts the region's resident, sole-referenced, all-zero
// frames charged to acct (every frame when acct is nil) and, when free is
// set, releases them. Dropping an all-zero page is semantically lossless —
// the next touch demand-zero-fills an identical frame — which makes this
// the cheapest way for an over-quota principal to get back under its
// ceiling before the allocator has to report ENOMEM. A page is zero for
// good only once no processor can store to it: see Space.ReclaimZero.
func (r *Region) ReclaimZero(acct *hw.FrameAcct, cpu int, free bool) int {
	if r.Type == RText {
		return 0 // text never holds zero garbage worth refaulting
	}
	r.lockAllResolved()
	defer r.unlockAll()
	t := r.table.Load()
	n := 0
	for i := range t.slots {
		w := t.slots[i].Load()
		if w&ptePresent == 0 {
			continue
		}
		pfn := hw.PFN(w & ptePFNMask)
		if r.mem.Ref(pfn) != 1 {
			continue // a COW alias: freeing it would not uncharge anyway
		}
		if acct != nil && r.mem.OwnerOf(pfn) != acct {
			continue
		}
		if !r.mem.FrameZero(pfn) {
			continue
		}
		n++
		if free {
			t.slots[i].Store(0)
			r.mem.DecRefOn(pfn, cpu)
			r.resident.Add(-1)
		}
	}
	return n
}

// Dup creates an eager copy-on-write duplicate of the region: a new
// Region whose page table aliases the same frames with incremented frame
// reference counts, built with a full table walk at spawn time. Subsequent
// writes through either region break the alias page by page (the fork path
// of paper §6.2). When the source has ever held a writable PTE its
// writable bits are cleared too — a later store through the source
// re-faults and the slow path re-derives the permission — and the caller
// is then responsible for flushing stale writable TLB entries for the
// source space. A source that never installed a writable PTE has nothing
// to clear and needs no flush, so the walk is pure aliasing.
//
// Fork no longer uses this path by default: DupLazy defers the whole walk
// to first touch, making creation O(1) in image size. Dup remains the
// measured ablation (Config.EagerDup, benchtab E1c) and the simple API for
// callers that want a materialized copy immediately.
func (r *Region) Dup() *Region {
	r.lockAllResolved()
	defer r.unlockAll()
	t := r.table.Load()
	d := &Region{Type: r.Type, mem: r.mem}
	d.refs.Store(1)
	dt := &pteTable{slots: make([]atomic.Uint64, len(t.slots))}
	clearSrc := r.everWritable.Load()
	n := int64(0)
	for i := range t.slots {
		w := t.slots[i].Load()
		if w&ptePresent == 0 {
			continue
		}
		pfn := hw.PFN(w & ptePFNMask)
		r.mem.IncRef(pfn)
		if clearSrc && w&pteWritable != 0 {
			t.slots[i].Store(pteEncode(pfn, false))
		}
		dt.slots[i].Store(pteEncode(pfn, false))
		n++
	}
	d.table.Store(dt)
	d.resident.Store(n)
	return d
}

// DupLazy creates a copy-on-write duplicate in O(1) of the region size:
// only the region header is cloned — the clone's table is empty and the
// source merely records the clone on its pending list. The PTE aliasing,
// frame refcount bumps, and source writable-bit clearing that Dup does at
// spawn time are deferred to the first slow-path fault on either region
// (materialize), riding the striped fill locks; a clone that exits
// untouched unlinks in O(1) and the walk never happens at all.
//
// The caller owes the same source-space TLB flush as Dup when the source
// has ever held a writable PTE (EverWritable): that flush cannot be
// deferred, because a store through a stale writable TLB entry would never
// fault, and an unfaulted store cannot be retroactively excluded from the
// clone's snapshot. After the flush the fast path keeps the source honest —
// it refuses to reinstall a writable mapping while a duplication is
// pending — so materialization itself needs no shootdown.
func (r *Region) DupLazy() *Region {
	// An unmaterialized clone cannot serve as a source (its table is still
	// empty); resolve it first so pending chains stay one level deep and
	// the resolution walk never recurses.
	if r.lazySrc.Load() != nil {
		r.materialize()
	}
	r.lockAll()
	defer r.unlockAll()
	d := &Region{Type: r.Type, mem: r.mem}
	d.refs.Store(1)
	d.table.Store(&pteTable{slots: make([]atomic.Uint64, len(r.table.Load().slots))})
	if r.resident.Load() == 0 {
		// Nothing resident: the clone is an ordinary demand-zero region
		// and needs no link back to the source.
		return d
	}
	d.lazySrc.Store(r)
	d.lazyPend.Store(1)
	r.lazyKids = append(r.lazyKids, d)
	r.lazyPend.Add(1)
	r.mem.LazyDups.Add(1)
	return d
}

// materialize resolves every lazy relationship the region is pending in:
// as an unmaterialized clone, by resolving its source (which populates
// this clone along with its siblings); as a source, by resolving its own
// pending clones. It returns the number of page-table slots walked — the
// deferred duplication work the kernel charges to the faulting CPU. Safe
// to call from any number of CPUs at once; the walk happens once and
// racers contribute zero.
func (r *Region) materialize() int {
	walked := 0
	for r.lazyPend.Load() != 0 {
		if src := r.lazySrc.Load(); src != nil {
			walked += src.resolveKids()
			continue
		}
		walked += r.resolveKids()
	}
	return walked
}

// resolveKids is the deferred half of DupLazy: one walk over the source
// table aliases every present frame into every pending clone at once,
// bumps the frame refcounts, and — only when the source has ever held a
// writable PTE — clears the source's writable bits so its next store
// re-faults and breaks the alias. The spawn-time flush already removed
// any writable TLB entries for the source space, and the fill fast path
// refuses to reinstall one while the duplication is pending, so no
// shootdown happens here. Lock order is source-then-clone, and a clone
// never resolves while it has a pending source, so the order is acyclic.
func (r *Region) resolveKids() int {
	r.lockAll()
	kids := r.lazyKids
	r.lazyKids = nil
	if len(kids) == 0 {
		r.unlockAll()
		return 0
	}
	for _, k := range kids {
		k.lockAll()
	}
	t := r.table.Load()
	clearSrc := r.everWritable.Load()
	aliased := int64(0)
	for i := range t.slots {
		w := t.slots[i].Load()
		if w&ptePresent == 0 {
			continue
		}
		pfn := hw.PFN(w & ptePFNMask)
		for _, k := range kids {
			r.mem.IncRef(pfn)
			k.table.Load().slots[i].Store(pteEncode(pfn, false))
		}
		if clearSrc && w&pteWritable != 0 {
			t.slots[i].Store(pteEncode(pfn, false))
		}
		aliased++
	}
	walked := len(t.slots) * len(kids)
	r.mem.LazyBreaks.Add(int64(len(kids)))
	r.mem.LazyBreakPages.Add(int64(walked))
	for _, k := range kids {
		k.resident.Store(aliased)
		k.lazySrc.Store(nil)
		k.lazyPend.Add(-1)
		k.unlockAll()
	}
	r.lazyPend.Add(-int32(len(kids)))
	r.unlockAll()
	return walked
}

// dropKid unlinks a dying, never-touched clone from its source: no frame
// was aliased yet, so the clone's teardown has nothing to free and the
// source keeps its writable bits. It reports false when a concurrent
// materialization resolved the clone first — the caller then tears it
// down normally.
func (r *Region) dropKid(k *Region) bool {
	r.lockAll()
	defer r.unlockAll()
	for i, kid := range r.lazyKids {
		if kid != k {
			continue
		}
		r.lazyKids = append(r.lazyKids[:i], r.lazyKids[i+1:]...)
		k.lazySrc.Store(nil)
		k.lazyPend.Add(-1)
		r.lazyPend.Add(-1)
		r.mem.LazyDrops.Add(1)
		return true
	}
	return false
}

// Grow extends the region by n demand-zero pages (sbrk, stack autogrow).
func (r *Region) Grow(n int) {
	if n < 0 {
		panic("vm: Grow with negative count")
	}
	r.lockAllResolved()
	defer r.unlockAll()
	t := r.table.Load()
	nt := &pteTable{slots: make([]atomic.Uint64, len(t.slots)+n)}
	for i := range t.slots {
		nt.slots[i].Store(t.slots[i].Load())
	}
	r.table.Store(nt)
}

// Shrink removes the last n pages, releasing their frames. The caller must
// hold the share group's update lock and complete a TLB shootdown before
// the freed frames can be considered unreachable (paper §6.2: the physical
// pages must not be freed until all members have agreed not to reference
// them; the synchronous shootdown provides that agreement). It returns the
// number of frames released.
func (r *Region) Shrink(n int) int {
	r.lockAllResolved()
	defer r.unlockAll()
	t := r.table.Load()
	if n < 0 || n > len(t.slots) {
		panic("vm: Shrink out of range")
	}
	freed := 0
	for i := len(t.slots) - n; i < len(t.slots); i++ {
		if w := t.slots[i].Load(); w&ptePresent != 0 {
			r.mem.DecRef(hw.PFN(w & ptePFNMask))
			t.slots[i].Store(0)
			freed++
		}
	}
	r.resident.Add(int64(-freed))
	r.table.Store(&pteTable{slots: t.slots[:len(t.slots)-n]})
	return freed
}
