package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// resolve faults va through the shared fast path and fails the test if no
// shared pregion covers it.
func resolve(t *testing.T, sa *ShAddr, p *proc.Proc, va hw.VAddr) {
	t.Helper()
	if _, _, _, _, found, err := sa.ResolveShared(p, va, false); err != nil || !found {
		t.Fatalf("ResolveShared(%#x) = found=%v err=%v", uint32(va), found, err)
	}
}

// TestLookupCacheHitsAndInvalidation drives the per-process last-hit
// pregion cache through its whole protocol: a first fault misses and
// seeds the cache, a repeat fault in the same pregion hits, and every
// list/extent mutation (map, grow, shrink, unmap, member leave) bumps
// the generation so the next fault re-scans instead of trusting a stale
// hit.
func TestLookupCacheHitsAndInvalidation(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)

	hits := func() int64 { return sa.CacheHits.Load() }
	misses := func() int64 { return sa.CacheMisses.Load() }
	// update runs one change in the bracket and checks it moved the generation.
	update := func(what string, change func(sp *vm.Space, shoot vm.Shoot) error) {
		t.Helper()
		gen := sa.Generation()
		if err := sa.UpdateVM(p, change); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if sa.Generation() == gen {
			t.Fatalf("%s did not bump the generation", what)
		}
	}

	resolve(t, sa, p, vm.DataBase)
	if hits() != 0 || misses() != 1 {
		t.Fatalf("first fault: hits=%d misses=%d, want 0/1", hits(), misses())
	}
	resolve(t, sa, p, vm.DataBase+hw.PageSize)
	if hits() != 1 || misses() != 1 {
		t.Fatalf("repeat fault: hits=%d misses=%d, want 1/1", hits(), misses())
	}

	// Attach invalidates: the generation moves, the cached hit is stale.
	var base hw.VAddr
	update("Map", func(sp *vm.Space, _ vm.Shoot) error {
		base = sp.Map(vm.NewRegion(r.mem, vm.RShm, 2))
		return nil
	})
	resolve(t, sa, p, vm.DataBase)
	if hits() != 1 || misses() != 2 {
		t.Fatalf("post-attach fault: hits=%d misses=%d, want 1/2", hits(), misses())
	}

	// Extent changes invalidate too: grow, then shrink.
	data := findShared(sa, p, vm.DataBase)
	update("Grow", func(sp *vm.Space, _ vm.Shoot) error { return sp.Grow(data, 2) })
	update("Shrink", func(sp *vm.Space, shoot vm.Shoot) error {
		_, err := sp.Shrink(data, 2, shoot)
		return err
	})
	resolve(t, sa, p, vm.DataBase)
	if hits() != 1 || misses() != 3 {
		t.Fatalf("post-resize fault: hits=%d misses=%d, want 1/3", hits(), misses())
	}

	// Cache the mapped pregion, detach it, and fault elsewhere: the evicted
	// entry must not resurface as a hit.
	resolve(t, sa, p, base) // miss 4, caches the anon pregion
	pr := findShared(sa, p, base)
	update("Unmap", func(sp *vm.Space, shoot vm.Shoot) error { return sp.Unmap(pr, shoot) })
	resolve(t, sa, p, vm.DataBase)
	if hits() != 1 || misses() != 5 {
		t.Fatalf("post-detach fault: hits=%d misses=%d, want 1/5", hits(), misses())
	}
	// And the refreshed cache serves hits again.
	resolve(t, sa, p, vm.DataBase)
	if hits() != 2 {
		t.Fatalf("refreshed cache: hits=%d, want 2", hits())
	}
}

// TestLookupCacheClearedOnLeave: generations are per-group counters, so a
// cached pregion must not survive the owner's departure — carried into a
// later group, a colliding generation would validate it against a list it
// is not on.
func TestLookupCacheClearedOnLeave(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	resolve(t, sa, p, vm.DataBase)
	gen := sa.Generation()
	if p.VMC.Get(gen) == nil {
		t.Fatal("fault did not seed the cache")
	}
	sa.Leave(p)
	if p.VMC.Get(gen) != nil {
		t.Fatal("Leave left a cached shared pregion behind")
	}
}

// TestLookupCacheClearedOnUnshareVM: same hazard when a member keeps its
// group membership but stops sharing VM.
func TestLookupCacheClearedOnUnshareVM(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	resolve(t, sa, p, vm.DataBase)
	if p.VMC.Get(sa.Generation()) == nil {
		t.Fatal("fault did not seed the cache")
	}
	gen := sa.Generation()
	img := sa.UnshareVM(p)
	if img.Len() == 0 {
		t.Fatal("UnshareVM returned no image")
	}
	if p.VMC.Get(gen) != nil || p.VMC.Get(sa.Generation()) != nil {
		t.Fatal("UnshareVM left a cached shared pregion behind")
	}
	img.Clear()
}

// TestLookupCacheStaleGenerationMisses checks the cache object itself: a
// Put under one generation is invisible to Gets under any other.
func TestLookupCacheStaleGenerationMisses(t *testing.T) {
	var c vm.LookupCache
	m := hw.NewMemory(8)
	pr := &vm.PRegion{Reg: vm.NewRegion(m, vm.RData, 1), Base: vm.DataBase}
	if c.Get(0) != nil {
		t.Fatal("empty cache returned a pregion")
	}
	c.Put(3, pr)
	if c.Get(3) != pr {
		t.Fatal("cache missed its own generation")
	}
	if c.Get(4) != nil || c.Get(2) != nil {
		t.Fatal("cache hit across a generation change")
	}
}

// A fault installs its translation only if the generation has not moved
// since before it resolved the page (kernel.Context.fault), and the update's
// flush must find that translation or the install must see the move: so the
// generation already differs inside change, before anything is unlisted or
// flushed, not only once the update is over.
func TestUpdateBumpsGenerationOnEntry(t *testing.T) {
	r := newRig()
	p := r.newProc(1)
	sa := New(p)
	before := sa.Generation()
	var inside uint64
	if err := sa.UpdateVM(p, func(*vm.Space, vm.Shoot) error {
		inside = sa.Generation()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if inside == before {
		t.Fatalf("generation is still %d inside the update: a fill resolved before it could be installed after its flush", before)
	}
}
