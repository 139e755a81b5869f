package kernel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// Regressions for the defects that came from editing a pregion list and its
// mapping arena apart (each fails on the tree before vm.Space), and the
// storm that races every updateVM caller against faulting siblings.

// imageRegions lists every pregion of the caller's address space.
func imageRegions(c *Context) (regs []*vm.PRegion) {
	c.viewVM(func(sp *vm.Space) {
		for _, s := range c.spaces(sp) {
			regs = append(regs, s.Regions()...)
		}
	})
	return regs
}

// A PR_SADDR member unmaps its own MmapPrivate range: a load there then
// faults, and the range goes back to the group's arena.
func TestMunmapPrivateMappingInGroup(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		c.Sproc("member", func(cc *Context, _ int64) {
			cc.Signal(proc.SIGSEGV, func(int) {})
			va, err := cc.MmapPrivate(3)
			if err != nil {
				t.Errorf("mmap private: %v", err)
				return
			}
			cc.Store32(va, 7)
			if err := cc.Munmap(va); err != nil {
				t.Errorf("munmap of the member's own private mapping: %v", err)
				return
			}
			if v, err := cc.Load32(va); err == nil {
				t.Errorf("load from the unmapped private range read %d, want a fault", v)
			}
			if again, _ := cc.MmapPrivate(3); again != va {
				t.Errorf("next same-size private mapping at %#x, want the released %#x back", again, va)
			}
		}, proc.PRSALL, 0)
		c.Wait()
	})
	waitIdle(t, s)
	if used := s.Machine.Mem.InUse(); used != 0 {
		t.Errorf("%d frames leaked", used)
	}
}

// After every transition that hands a process an image somebody else
// mapped into, the next mmap lands clear of everything the image holds and
// a word written before is still there.
func TestMmapNeverOverlapsInheritedImage(t *testing.T) {
	const pages, word = 4, 0x5eed
	// check runs in the process holding the inherited image.
	check := func(t *testing.T, c *Context, old hw.VAddr, want uint32) {
		before := imageRegions(c)
		va, err := c.Mmap(pages)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		end := va + hw.VAddr(pages*hw.PageSize)
		for _, pr := range before {
			if pr.Reg.Pages() > 0 && va < pr.End() && pr.Base < end {
				t.Errorf("new mapping %#x..%#x lands on %v", va, end, pr)
			}
		}
		c.Store32(va, 0)
		if v, err := c.Load32(old); err != nil || v != want {
			t.Errorf("word at %#x reads %#x (%v) after the mmap, want %#x", old, v, err, want)
		}
	}
	// groupWithMapping makes the caller a group's creator holding a mapping
	// placed by the group's arena, not its own.
	groupWithMapping := func(t *testing.T, c *Context) hw.VAddr {
		c.Sproc("first", func(*Context, int64) {}, proc.PRSALL, 0)
		c.Wait()
		va, err := c.Mmap(pages)
		if err != nil {
			t.Errorf("mmap: %v", err)
		}
		c.Store32(va, word)
		return va
	}

	t.Run("fork from a member", func(t *testing.T) {
		s := NewSystem(testConfig())
		s.Start("creator", func(c *Context) {
			old := groupWithMapping(t, c)
			c.Fork("child", func(cc *Context) { check(t, cc, old, word) })
			c.Wait()
		})
		waitIdle(t, s)
	})
	t.Run("sproc without PR_SADDR from a member", func(t *testing.T) {
		s := NewSystem(testConfig())
		s.Start("creator", func(c *Context) {
			old := groupWithMapping(t, c)
			c.Sproc("child", func(cc *Context, _ int64) { check(t, cc, old, word) }, proc.PRSALL&^proc.PRSADDR, 0)
			c.Wait()
		})
		waitIdle(t, s)
	})
	t.Run("unshare PR_SADDR", func(t *testing.T) {
		s := NewSystem(testConfig())
		s.Start("creator", func(c *Context) {
			old := groupWithMapping(t, c)
			c.Sproc("rebel", func(cc *Context, _ int64) {
				if err := cc.Unshare(proc.PRSADDR); err != nil {
					t.Errorf("unshare: %v", err)
					return
				}
				check(t, cc, old, word)
			}, proc.PRSALL, 0)
			c.Wait()
		})
		waitIdle(t, s)
	})
	t.Run("restore then a group mmap", func(t *testing.T) {
		enc, _, _ := runCkptWorkload(t, 2, 1, false)
		img, err := ckpt.Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		s := NewSystem(testConfig())
		s.Start("blank", func(c *Context) {
			n, err := c.Restore(img, func(*Context, int64) {})
			if err != nil {
				t.Errorf("restore: %v", err)
				return
			}
			check(t, c, shmBaseOf(t, img), ckptPattern(0, 0))
			for i := 0; i < n; i++ {
				c.Wait()
			}
		})
		waitIdle(t, s)
	})
}

// A process forked from a sproc'd member holds a copy of the old group's
// carved stacks; the group it then creates must carve past them.
func TestSprocInForkOfMemberCarvesPastInheritedStacks(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		c.Sproc("member", func(cc *Context, _ int64) {
			cc.Store32(cc.StackBase()+64, 0xabc)
			cc.Fork("forked", func(f *Context) {
				_, err := f.Sproc("grandchild", func(g *Context, _ int64) {
					if g.StackBase() < f.StackTop() && f.StackBase() < g.StackTop() {
						t.Errorf("new member's stack %#x..%#x lands on its creator's %#x..%#x", g.StackBase(), g.StackTop(), f.StackBase(), f.StackTop())
					}
					g.Store32(g.StackBase()+64, 0xdef)
				}, proc.PRSALL, 0)
				if err != nil {
					t.Errorf("sproc in a member's fork child: %v", err)
				}
				f.Wait()
				if v, _ := f.Load32(f.StackBase() + 64); v != 0xabc {
					t.Errorf("fork child's stack word = %#x, want 0xabc", v)
				}
			})
			cc.Wait()
		}, proc.PRSALL, 0)
		c.Wait()
	})
	waitIdle(t, s)
}

// TestUpdateVMStormRace: members mix every call that goes through updateVM
// (mmap, private mmap, munmap, sbrk both ways, fork) while their siblings
// fault through the same space, at several host parallelism levels. Every
// word a member wrote must read back until it unmaps the range itself, and
// when the group is gone every frame is free again.
func TestUpdateVMStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const updaters, faulters, steps, window = 3, 2, 120, 24
			cfg := testConfig()
			cfg.MaxProcs = 64
			s := NewSystem(cfg)
			base := s.Machine.Mem.InUse()
			s.Start("leader", func(c *Context) {
				win, err := c.Mmap(window)
				if err != nil {
					t.Errorf("mmap: %v", err)
					return
				}
				var live atomic.Int32
				live.Store(updaters)
				for f := 0; f < faulters; f++ {
					c.Sproc("faulter", func(cc *Context, arg int64) {
						for pg := int(arg); live.Load() > 0; pg = (pg + 5) % window {
							va := win + hw.VAddr(pg*hw.PageSize)
							cc.Store32(va, uint32(pg))
							if v, err := cc.Load32(va); err != nil || v != uint32(pg) {
								t.Errorf("faulter: page %d reads %d (%v)", pg, v, err)
								return
							}
						}
					}, proc.PRSALL, int64(f))
				}
				for u := 0; u < updaters; u++ {
					c.Sproc("updater", func(cc *Context, arg int64) {
						defer live.Add(-1)
						updateVMStorm(t, cc, rand.New(rand.NewSource(arg)), steps)
					}, proc.PRSALL, int64(u+1))
				}
				for i := 0; i < updaters+faulters; i++ {
					c.Wait()
				}
			})
			waitIdle(t, s)
			if used := s.Machine.Mem.InUse(); used != base {
				t.Errorf("frames in use: %d after the storm, %d before", used, base)
			}
		})
	}
}

func updateVMStorm(t *testing.T, c *Context, rng *rand.Rand, steps int) {
	type mapping struct {
		va    hw.VAddr
		stamp uint32
	}
	var maps []mapping
	grown, kids := 0, 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(6); {
		case op <= 1: // mmap, shared or private
			mmap := c.Mmap
			if op == 1 {
				mmap = c.MmapPrivate
			}
			va, err := mmap(1 + rng.Intn(3))
			if err != nil {
				t.Errorf("mmap: %v", err)
				return
			}
			m := mapping{va, rng.Uint32()}
			c.Store32(va, m.stamp)
			maps = append(maps, m)
		case op == 2 && len(maps) > 0: // check, then unmap, one of ours
			i := rng.Intn(len(maps))
			m := maps[i]
			maps = append(maps[:i], maps[i+1:]...)
			if v, err := c.Load32(m.va); err != nil || v != m.stamp {
				t.Errorf("mapping at %#x reads %#x (%v), want %#x: another mapping landed on it", m.va, v, err, m.stamp)
			}
			if err := c.Munmap(m.va); err != nil {
				t.Errorf("munmap %#x: %v", m.va, err)
			}
		case op == 3: // sbrk up
			if _, err := c.Sbrk(hw.PageSize); err == nil {
				grown++
			}
		case op == 4 && grown > 0: // sbrk down
			if _, err := c.Sbrk(-hw.PageSize); err == nil {
				grown--
			}
		case op == 5 && kids < 4: // fork: the child checks the image it got
			want := append([]mapping(nil), maps...)
			if _, err := c.Fork("f", func(f *Context) {
				for _, m := range want {
					if v, err := f.Load32(m.va); err != nil || v != m.stamp {
						t.Errorf("fork child: %#x reads %#x (%v), want %#x", m.va, v, err, m.stamp)
					}
				}
				if va, err := f.Mmap(2); err == nil {
					f.Store32(va, 1)
				}
			}); err == nil {
				kids++
			}
		}
	}
	for ; kids > 0; kids-- {
		c.Wait()
	}
	for ; grown > 0; grown-- {
		c.Sbrk(-hw.PageSize)
	}
	for _, m := range maps {
		if v, err := c.Load32(m.va); err != nil || v != m.stamp {
			t.Errorf("mapping at %#x reads %#x (%v) at the end, want %#x", m.va, v, err, m.stamp)
		}
		c.Munmap(m.va)
	}
}

// A member outside the shared space keeps its copy of a sibling's stack
// after the sibling is gone and its range recycled: the private stack of a
// child it then creates must pass that range over, not land on the copy.
func TestPrivateStackPassesOverStaleStackCopy(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		var leave, left atomic.Bool
		departing, _ := c.Sproc("departing", func(cc *Context, _ int64) {
			cc.Store32(cc.StackBase()+64, 0xd00d)
			for !leave.Load() {
				cc.Getpid()
			}
		}, proc.PRSALL, 0)
		c.Sproc("outsider", func(oc *Context, _ int64) {
			for !left.Load() {
				oc.Getpid()
			}
			oc.Sproc("kid", func(kc *Context, _ int64) {
				for _, pr := range imageRegions(kc) {
					if pr != kc.P.Stack && pr.Base < kc.StackTop() && kc.StackBase() < pr.End() {
						t.Errorf("kid's stack %#x..%#x lands on %v of its own image", kc.StackBase(), kc.StackTop(), pr)
					}
				}
			}, 0, 0)
			oc.Wait()
		}, proc.PRSALL&^proc.PRSADDR, 0)
		leave.Store(true)
		for pid := 0; pid != departing; {
			pid, _, _ = c.Wait()
		}
		left.Store(true)
		c.Wait()
	})
	waitIdle(t, s)
}
