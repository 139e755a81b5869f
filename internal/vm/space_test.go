package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hw"
)

// TestSpaceAgainstIntervalModel drives a share group's worth of spaces — a
// shared one and its creator's private list, split from one image the way
// core.New does it, and a second member's private list annexed to it the
// way sproc does it — through seeded random Map / MapAt / Unmap / Grow /
// Shrink / Dup, against a page → owner map that is trivially right, and
// compares after every step: each list is sorted, disjoint and holds
// exactly the model's pregions at the model's extents; no page of the group
// has two owners (the arena never hands out a live range, in either list);
// and the Shoot of an Unmap or Shrink names exactly the dying pages and
// runs while every frame is still allocated.
//
// Mutations that must each fail it (checked by hand when this was written):
// drop s.reserve from MapAt, or from Grow; have Arena.Reserve keep released
// ranges it touches; have dupFrom splice the list without MapAt's reserve
// (the child's arena starts under what it inherited); call pr.Reg.Detach or Reg.Shrink before shoot;
// give Split's or Annex's result an arena of its own.
func TestSpaceAgainstIntervalModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSpaceModel(t, seed, 500) })
	}
}

// spaceModel is the reference for one Space: which pregions it lists, and
// how many pages each has.
type spaceModel struct {
	sp   *Space
	regs map[*PRegion]int
}

// groupModel is the reference for spaces that map from one arena.
type groupModel struct {
	t      *testing.T
	m      *hw.Memory
	spaces []*spaceModel
	owner  map[uint32]*spaceModel // vpn → the space whose pregion holds it
}

func (g *groupModel) pagesOf(base hw.VAddr, n int, fn func(vpn uint32)) {
	for i := 0; i < n; i++ {
		fn(base.VPN() + uint32(i))
	}
}

// own records that sm now lists pages [base, base+n), failing on a page
// that already has an owner.
func (g *groupModel) own(sm *spaceModel, base hw.VAddr, n int, what string) {
	g.t.Helper()
	g.pagesOf(base, n, func(vpn uint32) {
		if g.owner[vpn] != nil {
			g.t.Fatalf("%s: page %#x handed out while a pregion still holds it", what, vpn<<hw.PageShift)
		}
		g.owner[vpn] = sm
	})
}

func (g *groupModel) disown(base hw.VAddr, n int) {
	g.pagesOf(base, n, func(vpn uint32) { delete(g.owner, vpn) })
}

// hits reports whether [base, base+n) touches a page of sm, and of any
// other space of the group.
func (g *groupModel) hits(sm *spaceModel, base hw.VAddr, n int) (own, other bool) {
	g.pagesOf(base, n, func(vpn uint32) {
		switch o := g.owner[vpn]; {
		case o == sm:
			own = true
		case o != nil:
			other = true
		}
	})
	return own, other
}

// check compares every space with its model.
func (g *groupModel) check(step int, what string) {
	g.t.Helper()
	total := 0
	for i, sm := range g.spaces {
		list := sm.sp.list
		if len(list) != len(sm.regs) {
			g.t.Fatalf("step %d (%s): space %d lists %d pregions, model %d", step, what, i, len(list), len(sm.regs))
		}
		var end hw.VAddr
		for j, pr := range list {
			pages, ok := sm.regs[pr]
			if !ok || pages != pr.Reg.Pages() {
				g.t.Fatalf("step %d (%s): space %d has %v, model says %d pages (listed: %v)", step, what, i, pr, pages, ok)
			}
			if j > 0 && pr.Base < list[j-1].Base {
				g.t.Fatalf("step %d (%s): space %d out of order at %v", step, what, i, pr)
			}
			if pages > 0 {
				if pr.Base < end {
					g.t.Fatalf("step %d (%s): space %d: %v overlaps the pregion before it", step, what, i, pr)
				}
				end = pr.End()
			}
			total += pages
		}
	}
	if total != len(g.owner) {
		g.t.Fatalf("step %d (%s): %d pages listed, model owns %d", step, what, total, len(g.owner))
	}
}

// watch returns a Shoot that checks it is called once, for exactly the
// pages [base, base+n), while no frame has been freed yet.
func (g *groupModel) watch(base hw.VAddr, n int, called *bool) Shoot {
	inUse := g.m.InUse()
	return func(vpn uint32, npages int) {
		g.t.Helper()
		if *called {
			g.t.Fatalf("shoot called twice")
		}
		*called = true
		if vpn != base.VPN() || npages != n {
			g.t.Fatalf("shoot of %d pages at %#x, want %d at %#x", npages, vpn<<hw.PageShift, n, base)
		}
		if now := g.m.InUse(); now != inUse {
			g.t.Fatalf("frames in use went %d → %d before the shoot: freed under a live translation", inUse, now)
		}
	}
}

func (g *groupModel) pick(rng *rand.Rand) (*spaceModel, *PRegion) {
	sm := g.spaces[rng.Intn(len(g.spaces))]
	if len(sm.sp.list) == 0 {
		return sm, nil
	}
	return sm, sm.sp.list[rng.Intn(len(sm.sp.list))]
}

// newGroupModel splits img the way share-group creation does — stay keeps a
// pregion on the creator's private list — annexes a second member's empty
// private list, and builds the model of the result: shared space first.
func newGroupModel(t *testing.T, m *hw.Memory, img Space, stay func(*PRegion) bool) *groupModel {
	creator := &spaceModel{sp: &img, regs: map[*PRegion]int{}}
	shared := img.Split(stay)
	home := &spaceModel{sp: &shared, regs: map[*PRegion]int{}}
	annex := shared.Annex()
	member := &spaceModel{sp: &annex, regs: map[*PRegion]int{}}
	g := &groupModel{t: t, m: m, spaces: []*spaceModel{home, creator, member}, owner: map[uint32]*spaceModel{}}
	for _, sm := range g.spaces {
		for _, pr := range sm.sp.list {
			sm.regs[pr] = pr.Reg.Pages()
			g.own(sm, pr.Base, pr.Reg.Pages(), "split")
		}
	}
	return g
}

func runSpaceModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := hw.NewMemory(1 << 14)
	page := func(n int) hw.VAddr { return hw.VAddr(n * hw.PageSize) }
	newReg := func(n int) *Region {
		typ := RShm
		if rng.Intn(2) == 0 {
			typ = RData // duplicated lazily by Dup, where shm is shared
		}
		r := NewRegion(m, typ, n)
		for i := 0; i < n; i++ { // some resident frames for Unmap and Shrink to free
			if rng.Intn(2) == 0 {
				if _, _, _, err := r.Fill(i, true); err != nil {
					t.Fatalf("fill: %v", err)
				}
			}
		}
		return r
	}
	prda := &PRegion{Reg: NewRegion(m, RPRDA, 1), Base: PRDABase}
	g := newGroupModel(t, m, NewSpace(
		&PRegion{Reg: NewRegion(m, RData, 4), Base: DataBase},
		prda,
	), func(pr *PRegion) bool { return pr == prda })
	g.check(0, "split")

	for step := 1; step <= steps; step++ {
		what := ""
		switch rng.Intn(8) {
		case 0, 1: // Map: the arena places it, in either list
			sm := g.spaces[rng.Intn(len(g.spaces))]
			n := 1 + rng.Intn(4)
			what = fmt.Sprintf("Map %d pages", n)
			reg := newReg(n)
			base := sm.sp.Map(reg)
			if !inArena(base) {
				t.Fatalf("step %d: Map placed %d pages at %#x, outside the arena", step, n, base)
			}
			pr := sm.sp.Find(base)
			if pr == nil || pr.Base != base || pr.Reg != reg {
				t.Fatalf("step %d: Map returned %#x but Find there gives %v", step, base, pr)
			}
			sm.regs[pr] = n
			g.own(sm, base, n, what)
		case 2: // MapAt: near the arena's cursor, now and then below the arena
			sm := g.spaces[rng.Intn(len(g.spaces))]
			n := 1 + rng.Intn(4)
			base := ShmBase + page(rng.Intn(96))
			if rng.Intn(5) == 0 {
				base = DataBase + page(8+rng.Intn(32))
			}
			own, other := g.hits(sm, base, n)
			if other && !own {
				continue // only the other list could see the collision: the kernel never asks
			}
			what = fmt.Sprintf("MapAt %#x+%d", base, n)
			pr := &PRegion{Reg: newReg(n), Base: base}
			if err := sm.sp.MapAt(pr); (err != nil) != own {
				t.Fatalf("step %d: %s: err = %v, model says overlap = %v", step, what, err, own)
			} else if err != nil {
				pr.Reg.Detach()
				break
			}
			sm.regs[pr] = n
			g.own(sm, base, n, what)
		case 3: // Unmap
			sm, pr := g.pick(rng)
			if pr == nil {
				continue
			}
			what = fmt.Sprintf("Unmap %v", pr)
			n, shot := pr.Reg.Pages(), false
			if err := sm.sp.Unmap(pr, g.watch(pr.Base, n, &shot)); err != nil || !shot {
				t.Fatalf("step %d: %s: err = %v, shot = %v", step, what, err, shot)
			}
			if err := sm.sp.Unmap(pr, NoShoot); err == nil {
				t.Fatalf("step %d: %s twice succeeded", step, what)
			}
			delete(sm.regs, pr)
			g.disown(pr.Base, n)
		case 4: // Grow
			sm, pr := g.pick(rng)
			if pr == nil {
				continue
			}
			n := 1 + rng.Intn(3)
			own, other := g.hits(sm, pr.End(), n)
			if other && !own {
				continue
			}
			what = fmt.Sprintf("Grow %v by %d", pr, n)
			if err := sm.sp.Grow(pr, n); (err != nil) != own {
				t.Fatalf("step %d: %s: err = %v, model says overlap = %v", step, what, err, own)
			} else if err != nil {
				break
			}
			g.own(sm, pr.Base+page(sm.regs[pr]), n, what)
			sm.regs[pr] += n
		case 5: // Shrink, sometimes past the region
			sm, pr := g.pick(rng)
			if pr == nil {
				continue
			}
			pages := sm.regs[pr]
			n := rng.Intn(pages + 2)
			what = fmt.Sprintf("Shrink %v by %d", pr, n)
			shot := false
			_, err := sm.sp.Shrink(pr, n, g.watch(pr.Base+page(pages-n), n, &shot))
			if n > pages {
				if err == nil || shot {
					t.Fatalf("step %d: %s: err = %v, shot = %v", step, what, err, shot)
				}
				break
			}
			if err != nil || !shot {
				t.Fatalf("step %d: %s: err = %v, shot = %v", step, what, err, shot)
			}
			sm.regs[pr] -= n
			g.disown(pr.Base+page(pages-n), n)
		case 6, 7: // Dup what one member sees into one image, as its fork does
			what = "Dup"
			home, annex := g.spaces[0], g.spaces[1+rng.Intn(2)]
			img, _ := annex.sp.Dup(rng.Intn(4) == 0, home.sp)
			if n, pages := len(home.regs)+len(annex.regs), home.sp.Pages()+annex.sp.Pages(); img.Len() != n || img.Pages() != pages {
				t.Fatalf("step %d: image of %d pregions / %d pages, the member sees %d / %d", step, img.Len(), img.Pages(), n, pages)
			}
			for _, pr := range img.list {
				if pr.Reg.Pages() == 0 {
					continue
				}
				src := home.sp.Find(pr.Base)
				if src == nil {
					src = annex.sp.Find(pr.Base)
				}
				if src == nil || src.Base != pr.Base || src.Reg.Pages() != pr.Reg.Pages() {
					t.Fatalf("step %d: image has %v, the group has %v there", step, pr, src)
				}
			}
			// The child's arena is its own and clear of all it inherited:
			// its model starts from the image, in one list.
			child := newGroupModel(t, m, img, func(*PRegion) bool { return rng.Intn(4) == 0 })
			for i := 0; i < 6; i++ {
				sm := child.spaces[rng.Intn(len(child.spaces))]
				n := 1 + rng.Intn(4)
				base := sm.sp.Map(NewRegion(m, RShm, n))
				sm.regs[sm.sp.Find(base)] = n
				child.own(sm, base, n, "Map in the child")
			}
			child.check(step, "Map in the child")
			if rng.Intn(3) == 0 {
				g, child = child, g // carry on in the child; the parent exits
			}
			for _, sm := range child.spaces {
				sm.sp.Clear()
			}
		}
		g.check(step, what)
	}
	for _, sm := range g.spaces {
		sm.sp.Clear()
	}
	if used := m.InUse(); used != 0 {
		t.Fatalf("%d frames in use after every space was cleared", used)
	}
}
