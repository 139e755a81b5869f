// Benchmarks regenerating the paper's evaluation (DESIGN.md E1..E10).
// Each bench boots a fresh simulated system and performs b.N unit
// operations inside it; wall-clock ns/op is the host cost, and the
// "simcyc/op" metric is the simulated machine's cycle cost — the number
// that corresponds to what the paper measured on the MIPS R2000. Shapes
// (orderings, ratios, crossovers), not absolute values, are the
// reproduction target; cmd/benchtab renders the same drivers as the
// EXPERIMENTS.md tables.
package irix

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/workload"
)

func cfg() kernel.Config { return workload.DefaultConfig() }

func report(b *testing.B, m workload.Metrics) {
	b.ReportMetric(m.CyclesPerOp(), "simcyc/op")
	if m.Shootdowns > 0 {
		b.ReportMetric(float64(m.Shootdowns)/float64(m.Ops), "shootdowns/op")
	}
}

// E1/E4 — process creation: sproc() vs fork() (§7: "the time for a sproc()
// system call is slightly less than a regular fork()"), plus the Mach
// thread baseline (§3: threads create ~10x faster than fork) and the
// non-VM-sharing sproc that pays fork-style copy-on-write setup.
func BenchmarkCreate(b *testing.B) {
	for _, kind := range []workload.CreateKind{
		workload.CreateFork, workload.CreateSproc,
		workload.CreateSprocNVM, workload.CreateThread,
	} {
		for _, pages := range []int{0, 32} {
			b.Run(fmt.Sprintf("%s/dirty=%dpages", kind, pages), func(b *testing.B) {
				report(b, workload.Creation(cfg(), kind, pages, b.N))
			})
		}
	}
}

// E2 (hot path) — demand-fault cost under the shared read lock as group
// size grows; "solo" is a plain process on its private pregion list.
func BenchmarkFault(b *testing.B) {
	for _, members := range []int{0, 1, 2, 4} {
		name := "solo"
		if members > 0 {
			name = fmt.Sprintf("group=%d", members)
		}
		b.Run(name, func(b *testing.B) {
			per := b.N
			if members > 0 {
				per = b.N/members + 1
			}
			report(b, workload.FaultScaling(cfg(), members, per))
		})
	}
}

// E2 (slow path) — region shrink with the synchronous machine-wide TLB
// shootdown (§6.2/§7: "the overhead for synchronizing virtual memory is
// negligible except when detaching or shrinking regions"), against the
// shootdown-free grow path.
func BenchmarkShrinkShootdown(b *testing.B) {
	b.Run("grow-only", func(b *testing.B) {
		report(b, workload.GrowOnly(cfg(), b.N))
	})
	for _, spinners := range []int{0, 3} {
		b.Run(fmt.Sprintf("shrink/spinners=%d", spinners), func(b *testing.B) {
			report(b, workload.ShrinkShootdown(cfg(), spinners, b.N))
		})
	}
}

// E3 — no penalty for normal processes (§7: "normal UNIX processes
// experience no penalty for the addition of share group support"): null
// syscall and open/close for a plain process vs a clean group member.
func BenchmarkSyscallOverhead(b *testing.B) {
	b.Run("getpid/plain", func(b *testing.B) {
		report(b, workload.SyscallNull(cfg(), false, b.N))
	})
	b.Run("getpid/member", func(b *testing.B) {
		report(b, workload.SyscallNull(cfg(), true, b.N))
	})
	b.Run("openclose/plain", func(b *testing.B) {
		report(b, workload.SyscallOpenClose(cfg(), false, false, b.N))
	})
	b.Run("openclose/member", func(b *testing.B) {
		report(b, workload.SyscallOpenClose(cfg(), true, false, b.N))
	})
}

// E8 — deferred attribute synchronization (§6.3): open/close while a
// sibling dirties the descriptor table every iteration, and full umask
// propagate-reconcile rounds across group sizes.
func BenchmarkAttrSync(b *testing.B) {
	b.Run("openclose/storm", func(b *testing.B) {
		report(b, workload.SyscallOpenClose(cfg(), true, true, b.N))
	})
	for _, members := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("umask-roundtrip/members=%d", members), func(b *testing.B) {
			m := workload.AttrSync(cfg(), members, b.N)
			report(b, m)
			b.ReportMetric(float64(m.Syncs)/float64(m.Ops), "syncs/op")
		})
	}
}

// E5 — data-passing bandwidth (§3): shared memory vs the queueing
// mechanisms, 4 KiB chunks.
func BenchmarkIPCBandwidth(b *testing.B) {
	for _, mech := range []workload.Mech{
		workload.MechShm, workload.MechPipe, workload.MechMsgq, workload.MechSocket,
	} {
		for _, chunk := range []int{256, 4096} {
			b.Run(fmt.Sprintf("%s/chunk=%d", mech, chunk), func(b *testing.B) {
				m := workload.IPCBandwidth(cfg(), mech, chunk, chunk*b.N)
				report(b, m)
				b.SetBytes(int64(chunk))
			})
		}
	}
}

// E6 — synchronization latency (§3): busy-wait vs kernel mechanisms,
// round-trip between two processes.
func BenchmarkSyncLatency(b *testing.B) {
	for _, mech := range []workload.SyncMech{
		workload.SyncSpin, workload.SyncSemop, workload.SyncPipe, workload.SyncSignal,
	} {
		b.Run(string(mech), func(b *testing.B) {
			report(b, workload.SyncLatency(cfg(), mech, b.N))
		})
	}
}

// E7 — the self-scheduling pool (§3): preallocated share-group workers
// against dynamic creation and pipe-fed workers, and the worker-count
// scaling curve on 4 CPUs.
func BenchmarkSelfSchedulingPool(b *testing.B) {
	const grain = 2000
	for _, mode := range []workload.PoolMode{
		workload.PoolSproc, workload.PoolForkPerTask, workload.PoolPipeWorkers,
	} {
		b.Run(string(mode)+"/workers=4", func(b *testing.B) {
			report(b, workload.Pool(cfg(), mode, 4, b.N, grain))
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sproc-pool/workers=%d", w), func(b *testing.B) {
			report(b, workload.Pool(cfg(), workload.PoolSproc, w, b.N, grain))
		})
	}
}

// E10 — the §8 gang-scheduling extension (ablation): overcommitted
// spin-barrier groups with and without gang dispatch.
func BenchmarkGangScheduling(b *testing.B) {
	for _, gang := range []bool{false, true} {
		b.Run(fmt.Sprintf("gang=%v", gang), func(b *testing.B) {
			report(b, workload.GangBarrier(cfg(), gang, 4, 4, b.N, 600))
		})
	}
}

// MP hot-path scaling — the de-serialized substrate (per-CPU frame caches,
// per-CPU trace shards, per-CPU run queues with stealing) under storms that
// hammer exactly one substrate from 1..8 processors. The total operation
// count is fixed at b.N and split across the workers, so ns/op falling (or
// holding) as NCPU grows is the de-serialization paying off; a global-lock
// substrate shows ns/op rising with NCPU instead.
func BenchmarkHotPathScaling(b *testing.B) {
	ncpus := []int{1, 2, 4, 8}
	mpCfg := func(ncpu int) kernel.Config {
		c := cfg()
		c.NCPU = ncpu
		return c
	}
	for _, ncpu := range ncpus {
		b.Run(fmt.Sprintf("fault-storm/ncpu=%d", ncpu), func(b *testing.B) {
			per := b.N/ncpu + 1
			report(b, workload.FaultStorm(mpCfg(ncpu), ncpu, per))
		})
	}
	for _, ncpu := range ncpus {
		b.Run(fmt.Sprintf("resident-fault-storm/ncpu=%d", ncpu), func(b *testing.B) {
			per := b.N/ncpu + 1
			report(b, workload.ResidentFaultStorm(mpCfg(ncpu), ncpu, per))
		})
	}
	for _, ncpu := range ncpus {
		b.Run(fmt.Sprintf("create-storm/ncpu=%d", ncpu), func(b *testing.B) {
			per := b.N/ncpu + 1
			report(b, workload.CreateStorm(mpCfg(ncpu), ncpu, per))
		})
	}
	for _, ncpu := range ncpus {
		b.Run(fmt.Sprintf("trace-storm/ncpu=%d", ncpu), func(b *testing.B) {
			c := mpCfg(ncpu)
			c.TraceEvents = 4096
			per := b.N/ncpu + 1
			report(b, workload.TraceStorm(c, ncpu, per))
		})
	}
	for _, ncpu := range ncpus {
		b.Run(fmt.Sprintf("dispatch-storm/ncpu=%d", ncpu), func(b *testing.B) {
			procs := 2 * ncpu
			per := b.N/procs + 1
			report(b, workload.DispatchStorm(mpCfg(ncpu), procs, per))
		})
	}
}

// Ablations (DESIGN.md §6) — the designs the paper rejected, measured:
// an exclusive lock on the shared pregion list serializes every member's
// page fault; eager attribute pushing moves the whole propagation cost
// onto the updater's critical path.
func BenchmarkAblation(b *testing.B) {
	b.Run("fault-lock/shared-read", func(b *testing.B) {
		report(b, workload.FaultScaling(cfg(), 4, b.N/4+1))
	})
	b.Run("fault-lock/exclusive", func(b *testing.B) {
		c := cfg()
		c.ExclusiveVMLock = true
		report(b, workload.FaultScaling(c, 4, b.N/4+1))
	})
	b.Run("attr-sync/deferred", func(b *testing.B) {
		report(b, workload.AttrSync(cfg(), 4, b.N))
	})
	b.Run("attr-sync/eager", func(b *testing.B) {
		c := cfg()
		c.EagerAttrSync = true
		report(b, workload.AttrSync(c, 4, b.N))
	})
}

// Host-side cost of the bulk data path every copied byte moves through
// (COW copies, read/write transfers, checkpoint capture and write-back):
// one page per op, so MB/s is directly comparable across the four.
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
}

// Host-side cost of one whole checkpoint round trip — Ckpt, Encode, Decode,
// Restore into a fresh system — of a 256-page group with two parked
// members. simcyc/op is the two calls' simulated cost, which host-side
// work on this path must not move.
func BenchmarkCkptRoundTrip(b *testing.B) {
	const pages = 256
	b.ReportAllocs()
	sys := kernel.NewSystem(cfg())
	sys.Start("driver", func(c *kernel.Context) {
		va, err := c.Mmap(pages)
		if err != nil {
			b.Error(err)
			return
		}
		for pg := 0; pg < pages; pg++ {
			c.Store32(va+hw.VAddr(pg*hw.PageSize), uint32(pg)+1)
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
