// Host micro-benchmarks of eight paths nothing else times in isolation:
// the hw.Memory bulk data path, one checkpoint round trip, the image
// checksum, one poll(2) over a C10k member's set, one process creation
// joined, a token hand-off among more spinners than CPUs, one memory
// access that hits the TLB, and descriptor updates contending for one
// share block's s_fupdsema.
// Wall-clock
// ns/op is the host cost; where a bench reports "simcyc/op" it is the
// simulated cycle cost, which host-side work must not move. The paper's
// evaluation tables (DESIGN.md E1..E10) are rendered by cmd/benchtab and
// gated by bench/.
package irix

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
	"repro/internal/vm"
	"repro/internal/workload"
)

func cfg() kernel.Config { return workload.DefaultConfig() }

// Host-side cost of the bulk data path every copied byte moves through
// (COW copies, read/write transfers, checkpoint capture and write-back):
// one page per op, so MB/s is directly comparable across the five.
func BenchmarkMemBulk4K(b *testing.B) {
	m := hw.NewMemory(4)
	pfn, err := m.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, hw.PageSize)
	run := func(name string, op func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(hw.PageSize)
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
	run("ReadBytes", func() { m.ReadBytes(pfn, 0, buf) })
	run("WriteBytes/aligned", func() { m.WriteBytes(pfn, 0, buf) })
	run("WriteBytes/off-by-one", func() { m.WriteBytes(pfn, 1, buf[:hw.PageSize-1]) })
	run("CopyFrame", func() {
		cp, err := m.CopyFrame(pfn)
		if err != nil {
			b.Fatal(err)
		}
		m.DecRef(cp)
	})
	// The restore write-back: a page into a slot with no frame yet, so
	// every op allocates, fills and publishes. The page is buf's packed
	// form. The region is replaced, off the clock, each time its slots run
	// out.
	lines, packed := packPage(buf)
	b.Run("WritePage", func(b *testing.B) {
		const slots = 256
		wm := hw.NewMemory(slots)
		b.ReportAllocs()
		b.SetBytes(hw.PageSize)
		reg := vm.NewRegion(wm, vm.RShm, slots)
		for i := 0; i < b.N; i++ {
			if i%slots == 0 && i > 0 {
				b.StopTimer()
				reg.Detach()
				reg = vm.NewRegion(wm, vm.RShm, slots)
				b.StartTimer()
			}
			if _, err := reg.WritePage(i%slots, lines, packed, -1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Host-side cost of one whole checkpoint round trip — Ckpt, Encode, Decode,
// Restore into a fresh system — of a 256-page group with two parked
// members, for the two shapes of BenchmarkCkptChecksum: "sparse" has one
// written word a page, "dense" random bytes in every page, where the
// write-back's zero-line test never skips a line. simcyc/op is the two
// calls' simulated cost, which host-side work on this path must not move.
func BenchmarkCkptRoundTrip(b *testing.B) {
	const pages = 256
	rng := rand.New(rand.NewSource(1988))
	for _, shape := range []struct {
		name string
		fill func(c *kernel.Context, pg hw.VAddr, i int) error
	}{
		{"sparse", func(c *kernel.Context, pg hw.VAddr, i int) error { return c.Store32(pg, uint32(i)+1) }},
		{"dense", func(c *kernel.Context, pg hw.VAddr, _ int) error {
			data := make([]byte, hw.PageSize)
			rng.Read(data)
			return c.StoreBytes(pg, data)
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := kernel.NewSystem(cfg())
			sys.Start("driver", func(c *kernel.Context) {
				va, err := c.Mmap(pages)
				if err != nil {
					b.Error(err)
					return
				}
				for pg := 0; pg < pages; pg++ {
					if err := shape.fill(c, va+hw.VAddr(pg*hw.PageSize), pg); err != nil {
						b.Error(err)
						return
					}
				}
				var pids []int
				for i := 0; i < 2; i++ {
					pid, err := c.Sproc("parked", func(cc *kernel.Context, _ int64) { cc.Blockproc(0) }, proc.PRSALL, int64(i))
					if err != nil {
						b.Error(err)
						return
					}
					pids = append(pids, pid)
				}
				var simcyc int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := c.P.Cycles.Load()
					img, info, err := c.Ckpt(kernel.CkptOpts{Passes: 1})
					if err != nil {
						b.Error(err)
						break
					}
					simcyc += c.P.Cycles.Load() - start
					b.SetBytes(int64(info.ImageBytes))
					dec, err := ckpt.Decode(img.Encode())
					if err != nil {
						b.Error(err)
						break
					}
					sys2 := kernel.NewSystem(cfg())
					sys2.Start("adoptive", func(c2 *kernel.Context) {
						start := c2.P.Cycles.Load()
						n, err := c2.Restore(dec, func(*kernel.Context, int64) {})
						if err != nil {
							b.Error(err)
							return
						}
						simcyc += c2.P.Cycles.Load() - start
						for ; n > 0; n-- {
							c2.Wait()
						}
					})
					sys2.WaitIdle()
				}
				b.StopTimer()
				b.ReportMetric(float64(simcyc)/float64(b.N), "simcyc/op")
				for _, pid := range pids {
					c.Unblockproc(pid)
				}
				for range pids {
					c.Wait()
				}
			})
			sys.WaitIdle()
		})
	}
}

// packPage is page's packed form, as vm.ReadPage gives it: the lines that
// hold a non-zero byte, in order, and their mask.
func packPage(page []byte) (lines uint64, packed []byte) {
	for i := 0; i < len(page); i += hw.LineSize {
		l := page[i : i+hw.LineSize]
		for _, c := range l {
			if c != 0 {
				lines |= 1 << (i / hw.LineSize)
				packed = append(packed, l...)
				break
			}
		}
	}
	return lines, packed
}

// Host-side cost of the image checksum per KiB of a 768-page image, for the
// two shapes of traffic: "sparse" is ckpt_restore's, one written word a
// page (one line of it in the image), and "dense" is a page of data in
// every page. Decode checks the
// trailer before it parses anything, so decoding an image whose trailer is
// spoiled times the checksum alone.
func BenchmarkCkptChecksum(b *testing.B) {
	const pages = 768
	rng := rand.New(rand.NewSource(1988))
	for _, shape := range []struct {
		name string
		fill func(pg []byte, i int)
	}{
		{"sparse", func(pg []byte, i int) { binary.LittleEndian.PutUint32(pg, uint32(i)<<8|1) }},
		{"dense", func(pg []byte, _ int) { rng.Read(pg) }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			reg := ckpt.RegionImage{Base: 0x30000000, Pages: pages, Type: ckpt.RShm}
			for i := 0; i < pages; i++ {
				pg := make([]byte, hw.PageSize)
				shape.fill(pg, i)
				lines, packed := packPage(pg)
				reg.Resid = append(reg.Resid, ckpt.PageImage{Index: i, Lines: lines, Data: packed})
			}
			im := &ckpt.Image{Version: ckpt.Version, PageSize: hw.PageSize, Regions: []ckpt.RegionImage{reg}}
			enc := im.Encode()
			enc[len(enc)-1] ^= 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ckpt.Decode(enc); err == nil {
					b.Fatal("Decode accepted a spoiled trailer")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(len(enc))/1024), "ns/KiB")
		})
	}
}

// Host-side cost of one poll(2) call over a C10k member's set — 1 024 idle
// connections and, last in the set, the one that is or becomes ready: the
// S7 hot spot. The set is the same every call, so its registrations stand
// and a call walks it once to reconcile; "ready-at-entry" finds the one
// dirty entry in its first scan, "one-sleep" scans, sleeps, is woken by a
// writer's byte and scans again. One simulated CPU, so the writer runs
// exactly while the poller sleeps and simcyc/op is the same every run.
func BenchmarkPollScan(b *testing.B) {
	const idle = 1024
	conf := cfg()
	conf.NCPU, conf.TimeSlice, conf.MaxFiles = 1, 1<<40, 2*(idle+1)+16
	for _, sleeps := range []bool{false, true} {
		name := "ready-at-entry"
		if sleeps {
			name = "one-sleep"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sys := kernel.NewSystem(conf)
			sys.Start("poller", func(c *kernel.Context) {
				fail := func(what string, err error) bool {
					if err != nil {
						b.Errorf("%s: %v", what, err)
					}
					return err != nil
				}
				lfd, err := c.NetListen("pollscan")
				if fail("listen", err) {
					return
				}
				set := make([]kernel.PollFd, 0, idle+1)
				var client int // far end of the last connection
				for i := 0; i <= idle; i++ {
					cfd, err := c.NetConnect("pollscan")
					if fail("connect", err) {
						return
					}
					sfd, err := c.NetAccept(lfd)
					if fail("accept", err) {
						return
					}
					set = append(set, kernel.PollFd{Fd: sfd, Events: kernel.PollIn})
					client = cfd
				}
				goR, goW, err := c.Pipe()
				if fail("pipe", err) {
					return
				}
				if sleeps {
					// The writer answers each byte on the go pipe with one
					// on the connection, and leaves when the pipe closes.
					c.Fork("writer", func(w *kernel.Context) {
						w.Close(goW)
						for {
							if n, err := w.Read(goR, DataBase, 1); n != 1 || err != nil {
								return
							}
							w.Write(client, DataBase, 1)
						}
					})
				} else {
					c.Write(client, DataBase, 1)
				}
				before, cyc := sys.Stats().PollSleeps, c.P.Cycles.Load()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if sleeps {
						c.Write(goW, DataBase, 1)
					}
					if n, err := c.Poll(set, -1); n != 1 || err != nil {
						b.Errorf("poll = (%d, %v), want one ready", n, err)
						break
					}
					if sleeps {
						c.Read(set[idle].Fd, DataBase, 1)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(c.P.Cycles.Load()-cyc)/float64(b.N), "simcyc/op")
				b.ReportMetric(float64(sys.Stats().PollSleeps-before)/float64(b.N), "sleeps/op")
				c.Close(goW)
				if sleeps {
					c.Wait()
				}
			})
			sys.WaitIdle()
		})
	}
}

// Host-side cost of one creation joined — the call, the child's dispatch on
// its carrier, its exit, and the parent's wait(2) — for the three ways the
// paper's §7 compares. The child stores one word (its first fault) and
// exits, so what is timed is the kernel's creation path and the host's
// cost of giving a process a goroutine to live on.
func BenchmarkCreateJoin(b *testing.B) {
	child := func(c *kernel.Context) { c.Store32(DataBase, 1) }
	entry := func(c *kernel.Context, _ int64) { child(c) }
	for _, kind := range []struct {
		name   string
		create func(c *kernel.Context) (int, error)
	}{
		{"fork", func(c *kernel.Context) (int, error) { return c.Fork("f", child) }},
		{"sproc(PR_SALL)", func(c *kernel.Context) (int, error) { return c.Sproc("s", entry, proc.PRSALL, 0) }},
		{"thread", func(c *kernel.Context) (int, error) { return c.ThreadCreate("t", entry, 0) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := kernel.NewSystem(cfg())
			sys.Start("parent", func(c *kernel.Context) {
				cyc := sys.Machine.TotalCycles()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := kind.create(c); err != nil {
						b.Errorf("create: %v", err)
						break
					}
					if _, _, err := c.Wait(); err != nil {
						b.Errorf("wait: %v", err)
						break
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(sys.Machine.TotalCycles()-cyc)/float64(b.N), "simcyc/op")
			})
			sys.WaitIdle()
		})
	}
}

// Host cost of simulated time while every CPU spins: five members pass a
// token round a ring through uspin.Word.AwaitEq on four CPUs, so whenever
// the next holder is the queued one, all four wait out their slices (op =
// one hand-off). ns/simcyc is wall time over every cycle the machine was
// charged — the host's price of a spun-out slice.
func BenchmarkQuiescentSpin(b *testing.B) {
	const ring = 5
	sys := kernel.NewSystem(cfg())
	token := uspin.Word{VA: DataBase}
	sys.Start("driver", func(c *kernel.Context) {
		token.Store(c, 0)
		cyc := sys.Machine.TotalCycles()
		b.ResetTimer()
		for m := 0; m < ring; m++ {
			c.Sproc("spinner", func(cc *kernel.Context, m int64) {
				for v := int(m); v < b.N; v += ring {
					if err := token.AwaitEq(cc, uint32(v)); err != nil {
						b.Errorf("await %d: %v", v, err)
						return
					}
					token.Store(cc, uint32(v+1))
				}
			}, proc.PRSALL, int64(m))
		}
		for m := 0; m < ring; m++ {
			c.Wait()
		}
		b.StopTimer()
		simcyc := sys.Machine.TotalCycles() - cyc
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simcyc), "ns/simcyc")
		b.ReportMetric(float64(simcyc)/float64(b.N), "simcyc/op")
	})
	sys.WaitIdle()
}

// BenchmarkAccessHit is one user-mode memory access whose translation is in
// the TLB: the safepoint, the charge, and the load, store or add run on the
// frame under the TLB's lock (Context.access). One CPU and a slice that never
// ends, so no op yields.
func BenchmarkAccessHit(b *testing.B) {
	conf := cfg()
	conf.NCPU, conf.TimeSlice = 1, 1<<40
	for _, kind := range []struct {
		name string
		op   func(c *kernel.Context, i int)
	}{
		{"load", func(c *kernel.Context, _ int) { c.Load32(DataBase) }},
		{"store", func(c *kernel.Context, i int) { c.Store32(DataBase, uint32(i)) }},
		{"add", func(c *kernel.Context, _ int) { c.Add32(DataBase, 1) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := kernel.NewSystem(conf)
			sys.Start("toucher", func(c *kernel.Context) {
				c.Store32(DataBase, 0) // fill the page and the TLB
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kind.op(c, i)
				}
				b.StopTimer()
			})
			sys.WaitIdle()
		})
	}
}

// Host cost of the §6.3 descriptor protocol under contention: four PR_SFDS
// members each open and close a file, then make a null call whose entry
// sync copies in what the others changed, so every step of every member
// takes the group's s_fupdsema (op = one open/close pair and one sync).
// fdsleeps/op counts the sleeps on it (Stats.FdSemaSleeps) and
// dispatches/op what those sleeps cost the scheduler: a grant that leaves
// the new owner off its CPU shows as a convoy in both.
func BenchmarkFdUpdateConvoy(b *testing.B) {
	const members, tableFds = 4, 1024
	conf := cfg()
	conf.MaxFiles = tableFds + 2*members + 16
	sys := kernel.NewSystem(conf)
	sys.Start("leader", func(c *kernel.Context) {
		for i := 0; i < tableFds; i++ {
			if _, err := c.Open("/convoy", ORead|OCreat, 0o644); err != nil {
				b.Error(err)
				return
			}
		}
		st0 := sys.Stats()
		b.ResetTimer()
		for m := 0; m < members; m++ {
			c.Sproc("member", func(cc *kernel.Context, m int64) {
				for i := int(m); i < b.N; i += members {
					fd, err := cc.Open("/convoy", ORead, 0)
					if err != nil {
						b.Errorf("open: %v", err)
						return
					}
					cc.Close(fd)
					cc.Getpid()
				}
			}, proc.PRSFDS, int64(m))
		}
		for m := 0; m < members; m++ {
			c.Wait()
		}
		b.StopTimer()
		st := sys.Stats()
		b.ReportMetric(float64(st.FdSemaSleeps-st0.FdSemaSleeps)/float64(b.N), "fdsleeps/op")
		b.ReportMetric(float64(st.Dispatches-st0.Dispatches)/float64(b.N), "dispatches/op")
	})
	sys.WaitIdle()
}
