package vm

import (
	"sync/atomic"

	"repro/internal/hw"
)

// Checkpoint dirty tracking (DESIGN.md §17). The iterative pre-copy
// protocol snapshots a region pass by pass while members keep running; in
// between passes it needs to know exactly which pages were re-dirtied.
// The mechanism is the same one copy-on-write duplication already uses:
// clear every writable PTE bit so the next store through the region takes
// the fill slow path, and have that slow path record the page in a bitmap
// before it re-installs the writable mapping. The writable bit is a cached
// permission, not the authority (region.go), so clearing it is always
// safe — at worst it costs one extra fault per page per pass.
//
// The caller's obligations mirror Dup's: after TrackDirty or TakeDirty
// returns, stale writable TLB entries must be flushed (a space shootdown
// for the group's ASID) before the cleared bits actually force stores back
// through the slow path. Both entry points take every stripe, so they
// serialize against fills, grow/shrink, and lazy-dup materialization.

// dirtyMap is a fixed-size dirty bitmap, one bit per page of the table it
// was sized against. Bits are set with a CAS loop from the fill slow path
// and only ever read or reset under all stripes.
type dirtyMap struct {
	bits []atomic.Uint64
}

func newDirtyMap(npages int) *dirtyMap {
	return &dirtyMap{bits: make([]atomic.Uint64, (npages+63)/64)}
}

func (d *dirtyMap) set(idx int) {
	word := idx >> 6
	if word < 0 || word >= len(d.bits) {
		// A page grown in after arming: TakeDirty treats everything past
		// the bitmap's coverage as dirty, so nothing is lost.
		return
	}
	mask := uint64(1) << (idx & 63)
	for {
		old := d.bits[word].Load()
		if old&mask != 0 || d.bits[word].CompareAndSwap(old, old|mask) {
			return
		}
	}
}

func (d *dirtyMap) get(idx int) bool {
	word := idx >> 6
	if word >= len(d.bits) {
		return false
	}
	return d.bits[word].Load()&(uint64(1)<<(idx&63)) != 0
}

// noteDirty records a writable install while tracking is armed. Called
// from fillSlow with the page's stripe held, so the bitmap pointer cannot
// be swapped mid-call (TakeDirty holds every stripe).
func (r *Region) noteDirty(idx int) {
	if d := r.dirty.Load(); d != nil {
		d.set(idx)
	}
}

// Tracking reports whether checkpoint dirty tracking is armed.
func (r *Region) Tracking() bool { return r.dirty.Load() != nil }

// TrackDirty arms dirty tracking: every writable PTE bit is cleared so the
// next store through the region faults into the slow path, which records
// the page in a fresh bitmap before re-installing the writable mapping.
// The caller must complete a TLB shootdown for every address space mapping
// the region before relying on the tracking (paper §6.2 — a stale writable
// TLB entry lets a store bypass the fault path, exactly as in Dup).
func (r *Region) TrackDirty() {
	r.lockAllResolved()
	defer r.unlockAll()
	t := r.table.Load()
	if r.everWritable.Load() {
		for i := range t.slots {
			w := t.slots[i].Load()
			if w&ptePresent != 0 && w&pteWritable != 0 {
				t.slots[i].Store(pteEncode(hw.PFN(w&ptePFNMask), false))
			}
		}
	}
	r.dirty.Store(newDirtyMap(len(t.slots)))
}

// TakeDirty harvests the pages dirtied since TrackDirty (or the previous
// TakeDirty), re-arms tracking for the next pass, and returns the dirty
// page indices in ascending order. Pages that appeared beyond the armed
// bitmap's coverage (a concurrent Grow) are conservatively reported dirty.
// Returns nil when tracking is not armed. The caller owes the same TLB
// shootdown as TrackDirty before trusting the new pass.
func (r *Region) TakeDirty() []int {
	r.lockAllResolved()
	defer r.unlockAll()
	d := r.dirty.Load()
	if d == nil {
		return nil
	}
	t := r.table.Load()
	covered := len(d.bits) * 64
	var out []int
	for i := range t.slots {
		w := t.slots[i].Load()
		if i < covered {
			if d.get(i) {
				out = append(out, i)
			}
		} else if w&ptePresent != 0 {
			out = append(out, i)
		}
		if w&ptePresent != 0 && w&pteWritable != 0 {
			t.slots[i].Store(pteEncode(hw.PFN(w&ptePFNMask), false))
		}
	}
	r.dirty.Store(newDirtyMap(len(t.slots)))
	return out
}

// UntrackDirty disarms tracking. Writable bits repopulate lazily through
// the ordinary sole-owner upgrade on the next store fault; no flush is
// owed (clearing permission was the conservative direction).
func (r *Region) UntrackDirty() {
	r.lockAllResolved()
	defer r.unlockAll()
	r.dirty.Store(nil)
}

// ReadPage appends the packed form of page idx to dst (hw.ReadFrame: the
// lines holding a non-zero byte, in order, and their mask) and reports
// whether the page was resident. This is the serialization surface of the
// checkpoint image builder: contents flow out through the region, never
// through raw PTE words, so the image layer stays independent of the PTE
// encoding.
func (r *Region) ReadPage(idx int, dst []byte) (lines uint64, packed []byte, ok bool) {
	pfn := r.Frame(idx)
	if pfn == hw.NoPFN {
		return 0, dst, false
	}
	lines, packed = r.mem.ReadFrame(pfn, dst)
	return lines, packed, true
}
