// Command ktrace boots the simulated system with the kernel event ring
// enabled, runs a representative share-group workload (creation, shared
// faults, attribute propagation, a region shrink with its shootdown, a
// signal), and prints the trace — the observability view of the mechanisms
// the paper describes.
package main

import (
	"fmt"

	irix "repro"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/trace"
)

func main() {
	sys := irix.New(irix.Config{NCPU: 4, TraceEvents: 4096})

	sys.Start("traced", func(c *irix.Ctx) {
		shm, _ := c.Mmap(4)
		done := irix.Word{VA: shm + 8}
		// Two members: one faults pages in, one updates shared attributes.
		c.Sproc("faulter", func(w *irix.Ctx, _ int64) {
			for i := 0; i < 3; i++ {
				w.Store32(shm+irix.VAddr(i*irix.PageSize), 1)
			}
			done.Add(w, 1)
		}, irix.PRSALL, 0)
		c.Sproc("updater", func(w *irix.Ctx, _ int64) {
			w.Umask(0o027)
			done.Add(w, 1)
		}, irix.PRSALL, 0)
		// Typed resource control: the setshares/getusage spans below render
		// symbolically in the trace like every other descriptor-table call.
		c.Setshares(irix.Entitlement{CPUShares: 4, FrameQuota: -1, MemberCap: -1})
		c.Getusage()
		done.AwaitEq(c, 2)
		c.Getpid() // reconcile the umask update (EvSync)
		// A live checkpoint: one EvCkptPass span per pre-copy pass, then
		// the EvCkptSTW event closing the stop-the-world window.
		c.Ckpt(kernel.CkptOpts{Passes: 1})
		c.Wait()
		c.Wait()

		// A shrink: update lock + machine-wide shootdown.
		c.Sbrk(irix.PageSize)
		c.Sbrk(-irix.PageSize)

		// A signal to a forked child.
		pid, _ := c.Fork("victim", func(w *irix.Ctx) { w.Pause() })
		c.Kill(pid, irix.SIGTERM)
		c.Wait()

		// A lazy COW break: fork duplicates the dirty data page O(1), and
		// the child's first write materializes it (EvLazyBreak).
		c.Store32(irix.DataBase, 7)
		c.Fork("toucher", func(w *irix.Ctx) { w.Store32(irix.DataBase, 8) })
		c.Wait()
	})
	sys.WaitIdle()

	events, dropped := sys.Machine.Trace.Snapshot()
	fmt.Printf("kernel trace: %d events (%d dropped)\n", len(events), dropped)
	for _, e := range events {
		// Syscall spans carry the syscall number (and, on exit, the errno);
		// render them symbolically instead of as raw payload words.
		switch e.Kind {
		case trace.EvSyscallEnter:
			fmt.Printf("  #%d %-9s pid=%-3d cpu=%-2d %s\n",
				e.Seq, e.Kind, e.PID, e.CPU, kernel.SysName(kernel.Sysno(e.Arg)))
		case trace.EvSyscallExit:
			fmt.Printf("  #%d %-9s pid=%-3d cpu=%-2d %s = %s\n",
				e.Seq, e.Kind, e.PID, e.CPU, kernel.SysName(kernel.Sysno(e.Arg)), kernel.Errno(e.Aux))
		case trace.EvFaultInject:
			fmt.Printf("  #%d %-9s key=%-3d %s\n", e.Seq, e.Kind, e.Arg, faultName(e.Aux))
		case trace.EvCkptPass:
			fmt.Printf("  #%d %-9s pid=%-3d cpu=%-2d pass=%d pages=%d\n",
				e.Seq, e.Kind, e.PID, e.CPU, e.Aux, e.Arg)
		case trace.EvCkptSTW:
			fmt.Printf("  #%d %-9s pid=%-3d cpu=%-2d stw-pages=%d frozen=%d\n",
				e.Seq, e.Kind, e.PID, e.CPU, e.Arg, e.Aux)
		case trace.EvRestore:
			fmt.Printf("  #%d %-9s pid=%-3d cpu=%-2d respawned=%d\n",
				e.Seq, e.Kind, e.PID, e.CPU, e.Arg)
		default:
			fmt.Println(" ", e)
		}
	}
	fmt.Println("\nsummary:")
	for _, k := range []trace.Kind{
		trace.EvCreate, trace.EvExit, trace.EvDispatch, trace.EvPreempt,
		trace.EvFault, trace.EvShootdown, trace.EvSignal, trace.EvSync,
		trace.EvSyscallEnter, trace.EvSyscallExit, trace.EvFaultInject,
		trace.EvLazyBreak, trace.EvCkptPass, trace.EvCkptSTW, trace.EvRestore,
	} {
		fmt.Printf("  %-10s %d\n", k, sys.Machine.Trace.CountKind(k))
	}

	fmt.Println("\nper-CPU ring shards (drops to wrap-around):")
	drops := sys.Machine.Trace.DropsByCPU()
	for i, d := range drops {
		label := fmt.Sprintf("cpu%d", i)
		if i == len(drops)-1 {
			label = "overflow" // events recorded without a CPU context
		}
		fmt.Printf("  %-10s %d dropped\n", label, d)
	}
	st := sys.Stats()
	fmt.Printf("\nscheduler: dispatches=%d local=%d steals=%d preemptions=%d\n",
		st.Dispatches, st.LocalPicks, st.Steals, st.Preemptions)
	fmt.Printf("frames:    allocs=%d frees=%d cache-hits=%d refills=%d drains=%d\n",
		st.FrameAllocs, st.FrameFrees, st.CacheHits, st.CacheRefills, st.CacheDrains)

	faultDemo()
}

// faultName decodes the site<<8|fault Aux word of an EvFaultInject event.
func faultName(aux uint32) string {
	return fmt.Sprintf("%s/%s", faultinject.Site(aux>>8), faultinject.Fault(aux&0xff))
}

// faultDemo reruns a blocking-heavy workload with a fault plan armed, so
// the trace shows injected faults and the restarts they force. The frame
// allocator site stays disarmed: a frame ENOMEM is a process-killing
// SIGSEGV, and this demo's point is the *survivable* degradation paths.
func faultDemo() {
	sys := irix.New(irix.Config{NCPU: 4, TraceEvents: 4096, FaultSeed: 2026, FaultRate: 200})
	sys.FaultPlan().SetRate(faultinject.SiteFrameAlloc, 0)

	sys.Start("chaotic", func(c *irix.Ctx) {
		c.Signal(irix.SIGUSR1, func(int) {})
		rfd, wfd, _ := c.Pipe()
		id := c.Semget(1, 1)
		for i := 0; i < 12; i++ {
			// A sleeping poll(2) released by a forked writer: the pollsleep
			// site injects spurious wakeups into the wait, and an injected
			// EINTR at the gateway is poll's contract, so retry it.
			_, err := c.Fork("writer", func(k *irix.Ctx) {
				for j := 0; j < 100; j++ {
					k.Getpid()
				}
				k.WriteString(wfd, irix.DataBase, "x")
			})
			if err != nil {
				continue // an injected fork failure: nobody would write the pipe
			}
			set := []irix.PollFd{{Fd: rfd, Events: irix.PollIn}}
			for {
				if _, err := c.Poll(set, -1); err == nil || irix.ErrnoOf(err) != irix.EINTR {
					break
				}
			}
			c.ReadString(rfd, irix.DataBase+64, 1)
			for {
				if _, _, err := c.Wait(); err == nil || irix.ErrnoOf(err) != irix.EINTR {
					break
				}
			}

			c.WriteString(wfd, irix.DataBase, "payload")
			c.ReadString(rfd, irix.DataBase+64, 7)
			c.Semop(id, 0, 1)
			c.Semop(id, 0, -1)
			pid, err := c.Fork("kid", func(k *irix.Ctx) { k.Getpid() })
			if err != nil {
				continue // injected EAGAIN survived the retry budget
			}
			c.Kill(pid, irix.SIGUSR1)
			for {
				if _, _, err := c.Wait(); err == nil || irix.ErrnoOf(err) != irix.EINTR {
					break
				}
			}
		}
	})
	sys.WaitIdle()

	fmt.Printf("\nfault-injection demo (seed=%d, rate=200‰, framealloc disarmed):\n", 2026)
	events, _ := sys.Machine.Trace.Snapshot()
	shown := 0
	for _, e := range events {
		if e.Kind == trace.EvFaultInject && shown < 12 {
			shown++
			fmt.Printf("  #%-5d %-9s key=%-3d %s\n", e.Seq, e.Kind, e.Arg, faultName(e.Aux))
		}
	}
	st := sys.Stats()
	fmt.Printf("faults:    checks=%d injected=%d restarts=%d retries=%d\n",
		st.FaultChecks, st.FaultsInjected, st.SyscallRestarts, st.SyscallRetries)
	fmt.Printf("readiness: poll-sleeps=%d transitions=%d sleeper-wakes=%d poller-wakes=%d\n",
		st.PollSleeps, st.ReadyTransitions, st.ReadySleeperWakes, st.ReadyPollerWakes)
	for _, row := range st.FaultSites {
		if row.Checks > 0 {
			fmt.Printf("  site %-10s checks=%-6d injected=%d\n", row.Site, row.Checks, row.Injected)
		}
	}
}
