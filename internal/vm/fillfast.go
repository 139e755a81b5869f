// The resident-fault fast path. This file is the lock-free half of the
// region fault handler and is kept separate so the build can enforce its
// one structural invariant mechanically: `make lint` rejects any mutex
// acquisition in this file. The common fault — page already resident,
// permission adequate — must complete with three atomic loads, no lock, and
// no store but its own CPU's FastFills shard (paper §6.2's hot path; the
// slow cases live in region.go).
package vm

import "repro/internal/hw"

// FillOn is Fill with CPU affinity: frames allocated or freed on the fault
// path go through cpu's frame cache, so concurrent faults on different
// processors never contend on the global frame pool. cpu < 0 uses the
// global pool.
//
// Fast path: load the page table pointer, check that no lazy duplication
// is pending, load the PTE. If the page is present and the access is
// permitted by the cached writable bit, the fault is resolved with no lock
// and no shared store. Everything else — absent page, write to a non-writable
// PTE, a pending lazy dup — falls to the striped slow path, which
// re-checks under the slot's stripe (the state may have changed between
// the unlocked check and the lock).
//
// The lazy-dup gate keeps the source of a DupLazy honest: while a clone
// is pending, the source's writable bits are still set (clearing them is
// exactly the work being deferred), so the fast path must not reinstall a
// writable mapping from them. Checking the pending count *before* loading
// the slot makes the gate decisive — if the count reads zero after a
// materialization finished, the subsequent slot load is ordered after the
// walk's stores and sees the cleared bit.
//
// The unlocked read is safe against every concurrent mutation: slot words
// change atomically and only ever under a stripe lock, and the table
// pointer is swapped only with all stripes held, so a loaded snapshot is
// internally consistent. A fast-path read racing a structural teardown
// (shrink, final detach) behaves exactly like a hardware TLB that has not
// yet been shot down — and is excluded the same way, by the share group's
// update-lock + shootdown protocol, before any frame is freed.
func (r *Region) FillOn(idx int, write bool, cpu int) (pfn hw.PFN, writable bool, res FillResult, err error) {
	pfn, writable, res, _, err = r.FillAccounted(idx, write, cpu, nil)
	return pfn, writable, res, err
}

// FillAccounted is the full fill entry point: FillOn charging any frame the
// fill allocates (zero fill, COW copy) to acct, the faulting process's
// resource principal — the fast path is unchanged, a resident fault
// allocates nothing and costs no quota — and additionally reporting how
// many page-table slots a lazy-dup materialization walked on this call
// (zero on the fast path and on already-materialized slow fills), so the
// kernel can charge the deferred duplication cost to the faulting CPU
// instead of pretending first touch is free.
func (r *Region) FillAccounted(idx int, write bool, cpu int, acct *hw.FrameAcct) (pfn hw.PFN, writable bool, res FillResult, lazyPages int, err error) {
	t := r.table.Load()
	if idx < 0 || idx >= len(t.slots) {
		return hw.NoPFN, false, FillCached, 0, outOfRange(r, idx, len(t.slots))
	}
	if r.Type == RText && write {
		return hw.NoPFN, false, FillCached, 0, ErrTextWrite
	}
	if r.lazyPend.Load() == 0 {
		if w := t.slots[idx].Load(); w&ptePresent != 0 {
			if w&pteWritable != 0 {
				r.mem.FastFills.AddOn(cpu, 1)
				return hw.PFN(w & ptePFNMask), true, FillCached, 0, nil
			}
			if !write && r.Type == RText {
				r.mem.FastFills.AddOn(cpu, 1)
				return hw.PFN(w & ptePFNMask), false, FillCached, 0, nil
			}
			// Non-writable data page: a read could be served here, but the
			// frame may have become sole-owned again (COW partner detached),
			// in which case the slow path upgrades the PTE so the *next*
			// access is a fast hit. Taking the stripe once now is cheaper
			// than pinning the page read-only forever.
		}
	}
	r.mem.SlowFills.AddOn(cpu, 1)
	return r.fillSlow(idx, write, cpu, acct)
}
