package vm

import (
	"fmt"
	"math"

	"repro/internal/hw"
)

// Space is an address space as the kernel edits it: an ordered pregion list
// and the mapping arena that places what is mapped without an address, kept
// as one value so neither can be changed behind the other's back — a listed
// range is never one the arena will hand out, and an unmapped one goes back
// to it. A process's private image is a Space and so is a share block's
// shared list. A space made by Split or Annex maps from the arena of the
// space it came from (a share group is one stretch of addresses, whichever
// list a mapping sits on), so the two are edited under one lock: the kernel
// reaches every Space through Context.updateVM. Space is not synchronized
// and must not be copied while both copies are in use.
type Space struct {
	list  []*PRegion
	arena *Arena
}

// Shoot is §6.2's synchronous flush as Unmap and Shrink need it: when it
// returns no processor holds a translation for the npages pages from vpn,
// so their frames may be freed. A count above hw.DefaultPageShootdownMax
// flushes the whole space; WholeSpace asks for that by name.
type Shoot func(vpn uint32, npages int)

// WholeSpace is the page count that makes a Shoot flush every translation.
const WholeSpace = math.MaxInt32

// NoShoot is the Shoot of a space no processor has run in yet: a child
// image still being built.
func NoShoot(uint32, int) {}

// NewSpace returns a space holding prs with a fresh mapping arena; prs must
// not overlap.
func NewSpace(prs ...*PRegion) Space {
	a := NewArena(ShmBase, 1)
	return newSpace(&a, prs)
}

func newSpace(arena *Arena, prs []*PRegion) Space {
	s := Space{arena: arena}
	for _, pr := range prs {
		s.mustMapAt(pr)
	}
	return s
}

// Annex returns a space holding prs that maps from s's arena: the private
// list of a member running in the shared space s.
func (s *Space) Annex(prs ...*PRegion) Space { return newSpace(s.arena, prs) }

// Split moves every pregion stay rejects into a new space that maps from
// s's arena and returns it; s keeps the rest. It is share-group creation:
// the creator's sharable pregions move to the block, the PRDA stays.
func (s *Space) Split(stay func(*PRegion) bool) Space {
	out := Space{arena: s.arena}
	var kept []*PRegion
	for _, pr := range s.list {
		if stay(pr) {
			kept = append(kept, pr)
		} else {
			out.list = append(out.list, pr)
		}
	}
	s.list = kept
	return out
}

// Find returns the pregion containing va, or nil.
func (s *Space) Find(va hw.VAddr) *PRegion { return Find(s.list, va) }

// Regions returns a snapshot of the pregion list, in address order.
func (s *Space) Regions() []*PRegion { return append([]*PRegion(nil), s.list...) }

// Len returns the number of pregions.
func (s *Space) Len() int { return len(s.list) }

// Pages sums the mapped pages.
func (s *Space) Pages() int {
	n := 0
	for _, pr := range s.list {
		n += pr.Reg.Pages()
	}
	return n
}

// Resident sums the demand-filled pages.
func (s *Space) Resident() int {
	n := 0
	for _, pr := range s.list {
		n += pr.Reg.Resident()
	}
	return n
}

// inArena reports whether base lies in the stretch the mapping arena places.
func inArena(base hw.VAddr) bool { return base >= ShmBase && base < SprocStackBase }

// Map attaches reg at a range of the arena and returns its base.
func (s *Space) Map(reg *Region) hw.VAddr {
	pr := &PRegion{Reg: reg, Base: s.arena.Alloc(reg.Pages())}
	s.mustMapAt(pr)
	return pr.Base
}

// mustMapAt is MapAt for a range that cannot be taken — the arena just
// placed it, another space held it, the kernel is laying out an image — so
// an overlap is a kernel bug and panics. The check is the index's O(log n)
// search and is always on.
func (s *Space) mustMapAt(pr *PRegion) {
	if err := s.MapAt(pr); err != nil {
		panic(err)
	}
}

// MapAt attaches pr at the base it names, refusing a range that overlaps a
// listed one, and takes the range out of the arena's hands.
func (s *Space) MapAt(pr *PRegion) error {
	if Overlaps(s.list, pr.Base, pr.Reg.Pages()) {
		return fmt.Errorf("vm: map at %#x..%#x overlaps a mapped region", uint32(pr.Base), uint32(pr.End()))
	}
	s.list = Insert(s.list, pr)
	s.reserve(pr)
	return nil
}

func (s *Space) reserve(pr *PRegion) {
	if inArena(pr.Base) {
		s.arena.Reserve(pr.Base, pr.Reg.Pages())
	}
}

// Unmap removes pr in §6.2's order: unlist it, flush its translations, and
// only then drop the region's attachment (freeing its frames if this was
// the last) and give the range back to the arena.
func (s *Space) Unmap(pr *PRegion, shoot Shoot) error {
	n := len(s.list)
	if s.list = Remove(s.list, pr); len(s.list) == n {
		return fmt.Errorf("vm: unmap of a pregion the space does not list")
	}
	pages := pr.Reg.Pages()
	shoot(pr.Base.VPN(), pages)
	pr.Reg.Detach()
	if inArena(pr.Base) {
		s.arena.Free(pr.Base, pages)
	}
	return nil
}

// Grow extends pr by n demand-zero pages, refusing to run into the next
// listed range. Nothing dies, so nothing is flushed.
func (s *Space) Grow(pr *PRegion, n int) error {
	if Overlaps(s.list, pr.End(), n) {
		return fmt.Errorf("vm: growing %v by %d pages runs into a mapped region", pr, n)
	}
	pr.Reg.Grow(n)
	s.reserve(pr)
	return nil
}

// Shrink removes pr's last n pages — flush the tail, then free it — and
// returns the frames released.
func (s *Space) Shrink(pr *PRegion, n int, shoot Shoot) (int, error) {
	pages := pr.Reg.Pages()
	if n < 0 || n > pages {
		return 0, fmt.Errorf("vm: shrink of %d pages exceeds region's %d", n, pages)
	}
	shoot(pr.Base.VPN()+uint32(pages-n), n)
	return pr.Reg.Shrink(n), nil
}

// Dup returns a copy-on-write duplicate of s and of every space in more as
// one image — the fork path, for a caller whose address space is its
// private list plus its group's shared one. Text regions are shared rather
// than duplicated (System V shares text on fork) and shm regions stay
// attached to the same segment; everything else is cloned lazily
// (Region.DupLazy: O(1) per region, the table walk deferred to first
// touch), or with the spawn-time walk when eager (the Config.EagerDup
// ablation, benchtab E1c). The image's arena is its own and starts past
// every mapping it inherited. flush reports that some duplicated region has
// ever held a writable PTE: the source space may cache a writable
// translation that would let an unfaulted store leak into the clone, so the
// caller flushes it before either side runs.
func (s *Space) Dup(eager bool, more ...*Space) (img Space, flush bool) {
	img = NewSpace()
	flush = img.dupFrom(s, eager)
	for _, src := range more {
		flush = img.dupFrom(src, eager) || flush
	}
	return img, flush
}

// dupFrom maps a duplicate of every pregion of src in img — through MapAt,
// never by appending to the list (lint-pregion checks it stays that way) —
// and reports whether any of them has ever held a writable PTE.
func (img *Space) dupFrom(src *Space, eager bool) (flush bool) {
	for _, pr := range src.list {
		nr := pr.Reg
		switch {
		case nr.Type == RText || nr.Type == RShm:
			nr.Attach()
		case eager:
			flush = flush || nr.EverWritable()
			nr = nr.Dup()
		default:
			flush = flush || nr.EverWritable()
			nr = nr.DupLazy()
		}
		img.mustMapAt(&PRegion{Reg: nr, Base: pr.Base})
	}
	return flush
}

// ReclaimZero releases the space's all-zero frames (Region.ReclaimZero) in
// §6.2's order — find the candidates, flush every translation, free those
// still all zero now that no store can reach them — and returns how many.
// Nothing is flushed when nothing qualifies. The caller holds the update lock.
func (s *Space) ReclaimZero(acct *hw.FrameAcct, cpu int, shoot Shoot) int {
	scan := func(free bool) (n int) {
		for _, pr := range s.list {
			n += pr.Reg.ReclaimZero(acct, cpu, free)
		}
		return n
	}
	if scan(false) == 0 {
		return 0
	}
	shoot(0, WholeSpace)
	return scan(true)
}

// Clear detaches every region and empties the list: the end of an image.
func (s *Space) Clear() {
	for _, pr := range s.list {
		pr.Reg.Detach()
	}
	s.list = nil
}
