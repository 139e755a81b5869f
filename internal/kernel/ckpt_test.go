package kernel

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// ckptPattern is the word each member writes into its page of the shared
// window: distinct per (member, word) so a restore that swaps pages or
// members shows up as a value mismatch, not just a count.
func ckptPattern(member int64, word int) uint32 {
	return uint32(0xC0DE0000) | uint32(member)<<8 | uint32(word)
}

// shmBaseOf finds the shared-memory window in an image (the group list
// also carries text, data and stack regions).
func shmBaseOf(t *testing.T, img *ckpt.Image) hw.VAddr {
	t.Helper()
	for _, r := range img.Regions {
		if r.Type == uint8(vm.RShm) {
			return hw.VAddr(r.Base)
		}
	}
	t.Fatal("image has no shm region")
	return 0
}

// waitAsleep spins the caller's clock until every listed pid is blocked
// in blockproc (SSleep). Used by initiators to reach a known-quiescent
// point before checkpointing. The sleep reason is checked too: a member
// asleep behind the share block's update lock has not got to its blockproc
// yet, and stays SSleep until its goroutine is next scheduled.
func waitAsleep(c *Context, pids []int) {
	for _, pid := range pids {
		settle(c, pid, proc.SSleep, blockprocReason)
	}
}

// parkedMembers waits for the caller's fellow members to park in
// blockproc and names them.
func parkedMembers(c *Context) (pids []int) {
	for _, m := range GroupOf(c.P).Members() {
		if m != c.P {
			pids = append(pids, m.PID)
		}
	}
	waitAsleep(c, pids)
	return pids
}

// runCkptWorkload boots a fresh system, has a driver spawn `members`
// sharing-everything sprocs that each stamp one page of a shared window
// and block, and checkpoints the quiescent group with the given pass
// count. Returns the encoded image and the checkpoint's cost report.
func runCkptWorkload(t *testing.T, members, passes int, twice bool) ([]byte, []byte, CkptInfo) {
	t.Helper()
	s := NewSystem(testConfig())
	var enc, enc2 []byte
	var info CkptInfo
	s.Start("driver", func(c *Context) {
		va, err := c.Mmap(members)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		var pids []int
		for i := 0; i < members; i++ {
			pid, err := c.Sproc("stamper", func(cc *Context, arg int64) {
				base := va + hw.VAddr(int(arg)*hw.PageSize)
				for w := 0; w < 8; w++ {
					cc.Store32(base+hw.VAddr(w*4), ckptPattern(arg, w))
				}
				cc.Blockproc(0)
			}, proc.PRSALL, int64(i))
			if err != nil {
				t.Errorf("sproc %d: %v", i, err)
				return
			}
			pids = append(pids, pid)
		}
		waitAsleep(c, pids)
		img, inf, err := c.Ckpt(CkptOpts{Passes: passes})
		if err != nil {
			t.Errorf("ckpt: %v", err)
			return
		}
		enc, info = img.Encode(), inf
		if twice {
			img2, _, err := c.Ckpt(CkptOpts{Passes: passes})
			if err != nil {
				t.Errorf("second ckpt: %v", err)
				return
			}
			enc2 = img2.Encode()
		}
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for range pids {
			c.Wait()
		}
	})
	waitIdle(t, s)
	return enc, enc2, info
}

func TestCkptRestoreRoundTrip(t *testing.T) {
	const members = 3
	enc, _, info := runCkptWorkload(t, members, 2, false)
	if enc == nil {
		t.Fatal("no image produced")
	}
	if info.Passes != 2 || info.ImageBytes != len(enc) {
		t.Fatalf("info = %+v, want 2 passes and %d image bytes", info, len(enc))
	}
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(img.Members) != members+1 {
		t.Fatalf("image has %d members, want %d", len(img.Members), members+1)
	}

	// Rebuild the group in a brand-new system. The respawned members run
	// a verification entry against the memory the restore wrote back.
	s2 := NewSystem(testConfig())
	var verified atomic.Int32
	var respawned atomic.Int32
	shm := shmBaseOf(t, img)
	s2.Start("blank", func(c *Context) {
		n, err := c.Restore(img, func(cc *Context, arg int64) {
			base := shm
			for w := 0; w < 8; w++ {
				if v, err := cc.Load32(base + hw.VAddr(int(arg)*hw.PageSize+w*4)); err != nil || v != ckptPattern(arg, w) {
					t.Errorf("member %d word %d = %#x (%v), want %#x", arg, w, v, err, ckptPattern(arg, w))
					return
				}
			}
			verified.Add(1)
		})
		if err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		respawned.Store(int32(n))
		if c.P.Name != "driver" {
			t.Errorf("caller name = %q, want creator's %q", c.P.Name, "driver")
		}
		for i := 0; i < n; i++ {
			c.Wait()
		}
	})
	waitIdle(t, s2)
	if respawned.Load() != members {
		t.Fatalf("respawned %d members, want %d", respawned.Load(), members)
	}
	if verified.Load() != members {
		t.Fatalf("%d members verified their pages, want %d", verified.Load(), members)
	}
}

// Satellite: determinism. The same seeded workload checkpointed in two
// independent systems — and twice at the same quiescent point in one
// system — must produce byte-identical images. Anything nondeterministic
// leaking into the image (map order, clock values, allocation addresses)
// fails here.
func TestCkptDeterministicImages(t *testing.T) {
	encA, encA2, _ := runCkptWorkload(t, 3, 1, true)
	encB, _, _ := runCkptWorkload(t, 3, 1, false)
	if encA == nil || encA2 == nil || encB == nil {
		t.Fatal("missing images")
	}
	if !bytes.Equal(encA, encA2) {
		t.Error("back-to-back checkpoints of a quiescent group differ")
	}
	if !bytes.Equal(encA, encB) {
		t.Error("identical workloads in fresh systems produced different images")
	}
}

// A quiescent group re-dirties nothing between passes, so with pre-copy
// enabled the stop-the-world window should copy zero pages; with
// passes=0 the whole resident set lands inside the window. This is the
// unit-sized version of benchtab's S10 claim.
func TestCkptPrecopyEmptiesSTW(t *testing.T) {
	_, _, pre := runCkptWorkload(t, 2, 1, false)
	if pre.STWPages != 0 {
		t.Errorf("quiescent group with 1 pre-copy pass: STW copied %d pages, want 0", pre.STWPages)
	}
	if pre.PrePages == 0 {
		t.Error("pre-copy pass copied nothing")
	}
	_, _, stop := runCkptWorkload(t, 2, 0, false)
	if stop.PrePages != 0 || stop.STWPages == 0 {
		t.Errorf("naive snapshot: pre=%d stw=%d, want 0 and >0", stop.PrePages, stop.STWPages)
	}
	if stop.STWPages != pre.PrePages+pre.STWPages {
		t.Errorf("naive STW copied %d pages, pre-copy run captured %d", stop.STWPages, pre.PrePages+pre.STWPages)
	}
}

// Satellite: checkpoint → restore → continue must end in the same memory
// state as the same workload running uninterrupted. Phase 1 stamps, phase
// 2 mixes the stamp; run A does both phases in one life, run B is
// checkpointed between the phases and finishes in a restored system.
func TestCkptRestoreContinueMatchesUninterrupted(t *testing.T) {
	const members, words = 3, 8
	phase2 := func(cc *Context, arg int64, base hw.VAddr) {
		for w := 0; w < words; w++ {
			va := base + hw.VAddr(int(arg)*hw.PageSize+w*4)
			v, err := cc.Load32(va)
			if err != nil {
				t.Errorf("phase2 load: %v", err)
				return
			}
			cc.Store32(va, v*31+uint32(arg)+uint32(w))
		}
	}
	final := func(c *Context, base hw.VAddr) []uint32 {
		out := make([]uint32, members*words)
		for m := 0; m < members; m++ {
			for w := 0; w < words; w++ {
				v, err := c.Load32(base + hw.VAddr(m*hw.PageSize+w*4))
				if err != nil {
					t.Errorf("final load: %v", err)
				}
				out[m*words+w] = v
			}
		}
		return out
	}

	// Run A: uninterrupted.
	sA := NewSystem(testConfig())
	var wantMem []uint32
	sA.Start("driver", func(c *Context) {
		va, _ := c.Mmap(members)
		var pids []int
		for i := 0; i < members; i++ {
			pid, _ := c.Sproc("two-phase", func(cc *Context, arg int64) {
				base := va + hw.VAddr(int(arg)*hw.PageSize)
				for w := 0; w < words; w++ {
					cc.Store32(base+hw.VAddr(w*4), ckptPattern(arg, w))
				}
				cc.Blockproc(0)
				phase2(cc, arg, va)
			}, proc.PRSALL, int64(i))
			pids = append(pids, pid)
		}
		waitAsleep(c, pids)
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for range pids {
			c.Wait()
		}
		wantMem = final(c, va)
	})
	waitIdle(t, sA)

	// Run B: identical phase 1, checkpoint at the quiescent point.
	sB := NewSystem(testConfig())
	var enc []byte
	sB.Start("driver", func(c *Context) {
		va, _ := c.Mmap(members)
		var pids []int
		for i := 0; i < members; i++ {
			pid, _ := c.Sproc("two-phase", func(cc *Context, arg int64) {
				base := va + hw.VAddr(int(arg)*hw.PageSize)
				for w := 0; w < words; w++ {
					cc.Store32(base+hw.VAddr(w*4), ckptPattern(arg, w))
				}
				cc.Blockproc(0)
			}, proc.PRSALL, int64(i))
			pids = append(pids, pid)
		}
		waitAsleep(c, pids)
		img, _, err := c.Ckpt(CkptOpts{Passes: 2})
		if err != nil {
			t.Errorf("ckpt: %v", err)
		} else {
			enc = img.Encode()
		}
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for range pids {
			c.Wait()
		}
	})
	waitIdle(t, sB)
	if enc == nil {
		t.Fatal("run B produced no image")
	}

	// Run B': restore and run only phase 2, then compare final memory.
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sC := NewSystem(testConfig())
	var gotMem []uint32
	sC.Start("blank", func(c *Context) {
		base := shmBaseOf(t, img)
		n, err := c.Restore(img, func(cc *Context, arg int64) {
			phase2(cc, arg, base)
		})
		if err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			c.Wait()
		}
		gotMem = final(c, base)
	})
	waitIdle(t, sC)
	if wantMem == nil || gotMem == nil {
		t.Fatal("missing final memory snapshots")
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			t.Fatalf("word %d: restored run ended with %#x, uninterrupted run with %#x", i, gotMem[i], wantMem[i])
		}
	}
}

// A member sharing nothing (mask without PR_SADDR) makes the group
// uncheckpointable, EINVAL: its private image is not captured. ckpt(2)
// outside a group and restore(2) inside one are EINVAL too, in the charge
// table's `ckpt solo` and `restore pair` rows.
func TestCkptErrors(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("creator", func(c *Context) {
		pid, err := c.Sproc("private", func(cc *Context, _ int64) {
			cc.Blockproc(0)
		}, proc.PRSFDS, 0)
		if err != nil {
			t.Errorf("sproc: %v", err)
			return
		}
		waitAsleep(c, []int{pid})
		if _, _, err := c.Ckpt(CkptOpts{}); ErrnoOf(err) != EINVAL {
			t.Errorf("ckpt with non-PRSADDR member: %v, want EINVAL", err)
		}
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
}

// A second initiator racing an in-flight checkpoint is turned away with
// EAGAIN (after the gateway's bounded retries) rather than queued behind
// a frozen group.
func TestCkptBusy(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		pid, err := c.Sproc("m", func(cc *Context, _ int64) {
			cc.Blockproc(0)
		}, proc.PRSALL, 0)
		if err != nil {
			t.Errorf("sproc: %v", err)
			return
		}
		waitAsleep(c, []int{pid})
		c.S.ckptMu.Lock() // stand in for a concurrent initiator
		_, _, err = c.Ckpt(CkptOpts{})
		c.S.ckptMu.Unlock()
		if !errors.Is(err, ErrCkptBusy) || ErrnoOf(err) != EAGAIN {
			t.Errorf("ckpt vs held initiator lock: %v, want ErrCkptBusy/EAGAIN", err)
		}
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
	st := s.Stats()
	if st.Ckpts != 0 || st.Restores != 0 {
		t.Errorf("stats counted ckpts=%d restores=%d for failed attempts", st.Ckpts, st.Restores)
	}
}

// TestCkptUnmapStormRace: members map, store and unmap shared regions, and
// a process outside the group does the same in its own space, while the
// group is checkpointed with pre-copy passes, at several host parallelism
// levels. A region can leave the group's list between a snapshot and its
// tracking, and regions die and are minted again under the checkpointer,
// which must keep what it snapshotted alive: a region it armed or filled
// past its last detach trips vm.NewRegion's reuse checks, or reads as a
// fresh mapping that is not zero. The system drains with every frame free.
func TestCkptUnmapStormRace(t *testing.T) {
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const members, ckpts = 3, 40
			s := NewSystem(testConfig())
			base := s.Machine.Mem.InUse()
			var stop atomic.Bool
			churn := func(cc *Context, pages int) {
				for stamp := uint32(1); !stop.Load(); stamp++ {
					va, err := cc.Mmap(pages)
					if err != nil {
						t.Errorf("%s: mmap: %v", cc.P.Name, err)
						return
					}
					if v, err := cc.Load32(va); err != nil || v != 0 {
						t.Errorf("%s: fresh mapping reads %#x (%v), want 0", cc.P.Name, v, err)
					}
					cc.Store32(va, stamp)
					if err := cc.Munmap(va); err != nil {
						t.Errorf("%s: munmap: %v", cc.P.Name, err)
						return
					}
				}
			}
			s.Start("driver", func(c *Context) {
				if _, err := c.Fork("outsider", func(cc *Context) { churn(cc, 2) }); err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				for i := 0; i < members; i++ {
					if _, err := c.Sproc("unmapper", func(cc *Context, arg int64) { churn(cc, 1+int(arg)) }, proc.PRSALL, int64(i)); err != nil {
						t.Errorf("sproc %d: %v", i, err)
						stop.Store(true)
						break
					}
				}
				for i := 0; i < ckpts && !stop.Load(); i++ {
					if _, _, err := c.Ckpt(CkptOpts{Passes: 3, PassGap: 1024}); err != nil && !errors.Is(err, ErrCkptQuiesce) {
						t.Errorf("ckpt %d: %v", i, err)
					}
				}
				stop.Store(true)
				for {
					if _, _, err := c.Wait(); err != nil {
						break
					}
				}
			})
			waitIdle(t, s)
			if used := s.Machine.Mem.InUse(); used != base {
				t.Errorf("%d frames in use after the storm, %d before", used, base)
			}
			if s.Stats().Ckpts == 0 {
				t.Error("no checkpoint completed")
			}
		})
	}
}

// Checkpoint counters must flow to Stats so sgtop can graph them.
func TestCkptStats(t *testing.T) {
	enc, _, info := runCkptWorkload(t, 2, 1, false)
	if enc == nil || info.PrePages == 0 {
		t.Fatal("workload produced no checkpoint")
	}
	// runCkptWorkload tears its system down; re-run inline to inspect stats.
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		va, _ := c.Mmap(1)
		pid, _ := c.Sproc("m", func(cc *Context, _ int64) {
			cc.Store32(va, 0xBEEF)
			cc.Blockproc(0)
		}, proc.PRSALL, 0)
		waitAsleep(c, []int{pid})
		if _, _, err := c.Ckpt(CkptOpts{Passes: 1}); err != nil {
			t.Errorf("ckpt: %v", err)
		}
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
	st := s.Stats()
	if st.Ckpts != 1 || st.CkptPasses == 0 || st.CkptPrePages == 0 || st.CkptImageBytes == 0 {
		t.Errorf("stats = ckpts=%d passes=%d prepages=%d bytes=%d; want all nonzero",
			st.Ckpts, st.CkptPasses, st.CkptPrePages, st.CkptImageBytes)
	}
}

// ckptGolden is the SHA-256 of the image runCkptWorkload(3 members) produces
// in format version 2, whose pages hold only their non-zero lines
// (identical for 0, 1 and 2 pre-copy passes). "Byte-identical images" is
// checked against it, not assumed.
const ckptGolden = "36732ee124c60e30cd6f2f2fe8603ade3e1eabd91ef7cacb6135e26b0a42bdbe"

func TestCkptImageGolden(t *testing.T) {
	for _, passes := range []int{0, 1, 2} {
		enc, _, info := runCkptWorkload(t, 3, passes, false)
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != ckptGolden {
			t.Errorf("passes=%d: image hashes to %s, want %s", passes, got, ckptGolden)
		}
		if info.ImageBytes != len(enc) {
			t.Errorf("passes=%d: ImageBytes = %d, encoded image is %d bytes", passes, info.ImageBytes, len(enc))
		}
		// The simulated cost of the capture is pinned with the bytes: three
		// pages copied stopped at RegionDup each.
		if passes == 0 && info.STWCycles != 48 {
			t.Errorf("naive snapshot charged %d cycles inside the window, want 48", info.STWCycles)
		}
	}
}

// ckptAllocs boots a driver holding npages resident shared pages plus one
// parked member, and returns the image's EncodedSize, its encoding, and the
// heap allocations one quiescent Ckpt(Passes: 1) performs.
func ckptAllocs(t *testing.T, npages int) (size int, enc []byte, allocs float64) {
	t.Helper()
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		va, err := c.Mmap(npages)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		for pg := 0; pg < npages; pg++ {
			c.Store32(va+hw.VAddr(pg*hw.PageSize), ckptPattern(1, pg&0xff))
		}
		pid, err := c.Sproc("parked", func(cc *Context, _ int64) { cc.Blockproc(0) }, proc.PRSALL, 0)
		if err != nil {
			t.Errorf("sproc: %v", err)
			return
		}
		waitAsleep(c, []int{pid})
		var img *ckpt.Image
		allocs = testing.AllocsPerRun(5, func() {
			if img, _, err = c.Ckpt(CkptOpts{Passes: 1}); err != nil {
				t.Errorf("ckpt: %v", err)
			}
		})
		if img != nil {
			size, enc = img.EncodedSize(), img.Encode()
		}
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
	return size, enc, allocs
}

// A checkpoint's allocations are per region and per pass (one slab, one
// index, one page list), not per page: sixteen times the pages must cost
// the same number of allocations, and EncodedSize must agree with Encode on
// a kernel-produced image. Each page holds one written word, so it takes a
// record head and one line: the image is at most 256 of those past the
// records it holds whatever the shared window holds.
func TestCkptAllocsDoNotScaleWithPages(t *testing.T) {
	_, _, small := ckptAllocs(t, 16)
	size, enc, big := ckptAllocs(t, 256)
	if size != len(enc) {
		t.Errorf("EncodedSize() = %d, len(Encode()) = %d for a 256-page image", size, len(enc))
	}
	img, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Regions {
		if img.Regions[i].Type == uint8(vm.RShm) {
			img.Regions[i].Resid = nil
		}
	}
	const pageRecord = 4 + 8 + ckpt.LineSize // index, line mask, one line
	if fixed := img.EncodedSize(); size > fixed+256*pageRecord {
		t.Errorf("a 256-page image of one word a page encodes to %d bytes, want at most %d (%d fixed, %d a page)", size, fixed+256*pageRecord, fixed, pageRecord)
	}
	t.Logf("allocations: %v for 16 pages, %v for 256", small, big)
	if big > small+4 {
		t.Errorf("Ckpt of 256 pages made %v allocations, of 16 pages %v: allocations scale with page count", big, small)
	}
	if big > 100 {
		t.Errorf("Ckpt of 256 pages made %v allocations, want at most 100", big)
	}
}

// ckptGroup boots a system whose driver runs setup, sprocs one parked
// member and checkpoints the quiescent group, and returns the image.
func ckptGroup(t *testing.T, setup func(c *Context) error) *ckpt.Image {
	t.Helper()
	var img *ckpt.Image
	s := NewSystem(testConfig())
	s.Start("driver", func(c *Context) {
		if err := setup(c); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		pid, err := c.Sproc("parked", func(cc *Context, _ int64) { cc.Blockproc(0) }, proc.PRSALL, 0)
		if err != nil {
			t.Errorf("sproc: %v", err)
			return
		}
		waitAsleep(c, []int{pid})
		if img, _, err = c.Ckpt(CkptOpts{Passes: 1}); err != nil {
			t.Errorf("ckpt: %v", err)
		}
		c.Unblockproc(pid)
		c.Wait()
	})
	waitIdle(t, s)
	if img == nil {
		t.Fatal("no image")
	}
	return img
}

// Two groups whose memory holds the same bytes encode to the same image,
// byte for byte, though one of them wrote a line and zeroed it again: in
// a shared page with other lines, in a shared page whose other line is its
// only one, and in the PRDA.
func TestCkptCanonicalLines(t *testing.T) {
	image := func(scrub bool) []byte {
		return ckptGroup(t, func(c *Context) error {
			va, err := c.Mmap(2)
			if err != nil {
				return err
			}
			stores := [][2]hw.VAddr{
				{va, 0xfeed},
				{va + hw.PageSize + 3*hw.LineSize, 0xbeef},
				{vm.PRDABase, 0xcafe},
			}
			if scrub {
				for _, at := range []hw.VAddr{va + 40*hw.LineSize + 8, va + hw.PageSize + 7*hw.LineSize, vm.PRDABase + 2*hw.LineSize} {
					stores = append(stores, [2]hw.VAddr{at, 0xdead}, [2]hw.VAddr{at, 0})
				}
			}
			for _, st := range stores {
				if err := c.Store32(st[0], uint32(st[1])); err != nil {
					return err
				}
			}
			return nil
		}).Encode()
	}
	clean, scrubbed := image(false), image(true)
	if !bytes.Equal(clean, scrubbed) {
		t.Fatalf("the same bytes encode differently (%d and %d bytes) when a line was written back to zero", len(clean), len(scrubbed))
	}
}

// A restore over a caller whose data pages are resident and dense, where
// the image has one of them absent and the other as one line: every word
// of both reads back as the image says, and the restored group
// re-checkpoints to an image that diffs empty.
func TestRestoreOverDenseCallerPage(t *testing.T) {
	const (
		absent, oneLine = 5, 6 // data pages
		line, value     = 9, 0x5eed
	)
	page := func(idx int) hw.VAddr { return vm.DataBase + hw.VAddr(idx*hw.PageSize) }
	img := ckptGroup(t, func(c *Context) error {
		return c.Store32(page(oneLine)+line*hw.LineSize, value)
	})
	for _, ri := range img.Regions {
		if ri.Base != uint64(vm.DataBase) {
			continue
		}
		for _, pg := range ri.Resid {
			if pg.Index == absent || pg.Index == oneLine && pg.Lines != 1<<line {
				t.Fatalf("image data page %d has line mask %#x; the test wants page %d absent and page %d one line", pg.Index, pg.Lines, absent, oneLine)
			}
		}
	}
	dec, err := ckpt.Decode(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	park := func(cc *Context, _ int64) { cc.Blockproc(0) }
	s := NewSystem(testConfig())
	s.Start("adoptive", func(c *Context) {
		dense := make([]byte, hw.PageSize)
		rand.New(rand.NewSource(1988)).Read(dense)
		for _, idx := range []int{absent, oneLine} {
			if err := c.StoreBytes(page(idx), dense); err != nil {
				t.Errorf("store the dense page %d: %v", idx, err)
				return
			}
		}
		n, err := c.Restore(dec, park)
		if err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		for _, idx := range []int{absent, oneLine} {
			for w := 0; w < hw.WordsPerPage; w++ {
				want := uint32(0)
				if idx == oneLine && w == line*hw.LineSize/4 {
					want = value
				}
				if got, err := c.Load32(page(idx) + hw.VAddr(4*w)); err != nil || got != want {
					t.Errorf("data page %d word %d reads %#x (%v) after the restore, want %#x", idx, w, got, err, want)
					break
				}
			}
		}
		pids := parkedMembers(c)
		re, _, err := c.Ckpt(CkptOpts{Passes: 1})
		if err != nil {
			t.Errorf("re-checkpoint: %v", err)
		} else if d := ckpt.Diff(dec, re, ckpt.DiffOpts{IgnorePIDs: true}); len(d) != 0 {
			t.Errorf("the restored group re-checkpoints to a different image: %s", strings.Join(d, "; "))
		}
		for _, pid := range pids {
			c.Unblockproc(pid)
		}
		for i := 0; i < n; i++ {
			c.Wait()
		}
	})
	waitIdle(t, s)
}
