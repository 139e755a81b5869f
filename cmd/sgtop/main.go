// Command sgtop reproduces Figure 5 of the paper from live kernel state:
// it boots the simulated system, builds a four-member share group doing
// real work, and dumps the shared address block — member list, shared
// pregion list, shadow resources, and lock statistics.
package main

import (
	"fmt"

	irix "repro"
	"repro/internal/kernel"
	"repro/internal/vm"
)

func main() {
	sys := irix.New(irix.Config{NCPU: 4})
	sys.Start("creator", func(c *irix.Ctx) {
		// Put the group through its paces: shared fds, a shared mapping,
		// chdir propagation, spinlock traffic.
		c.Mkdir("/srv", 0o755)
		fd, _ := c.Open("/srv/log", irix.ORead|irix.OWrite|irix.OCreat, 0o644)
		shm, _ := c.Mmap(8)
		rp, wp, _ := c.Pipe()

		// The lock owns shm..shm+SyncBytes; data words follow it.
		lock := irix.Spinlock{VA: shm}
		lock.Init(c)
		sum := irix.Word{VA: shm + irix.SyncBytes}
		phase := irix.Word{VA: shm + irix.SyncBytes + 4}
		for i := 0; i < 3; i++ {
			c.Sproc("member", func(cc *irix.Ctx, arg int64) {
				lock.Lock(cc)
				sum.Add(cc, uint32(arg+1))
				lock.Unlock(cc)
				cc.WriteString(fd, cc.StackBase(), fmt.Sprintf("member %d here\n", arg))
				cc.Write(wp, cc.StackBase(), 4) // announce over the shared pipe
				// Hold membership until the dump is done.
				phase.AwaitNe(cc, 0)
			}, irix.PRSALL, int64(i))
		}
		// Give the group a resource entitlement so the dump's resource-
		// control section shows live numbers.
		c.Setshares(irix.Entitlement{CPUShares: 4, FrameQuota: 256, MemberCap: 8})
		c.Chdir("/srv")
		// Collect the member announcements through poll(2) — the readiness
		// counters this exercises appear in the machine dump below.
		c.SetNonblock(rp, true)
		set := []irix.PollFd{{Fd: rp, Events: irix.PollIn}}
		for got := 0; got < 3; {
			if _, err := c.Poll(set, -1); err != nil {
				break
			}
			for {
				if _, err := c.Read(rp, irix.DataBase, 4); err != nil {
					break
				}
				got++
			}
		}
		sum.AwaitEq(c, 1+2+3)

		// A live checkpoint of the group (two pre-copy passes) so the
		// machine dump's checkpoint counters report a real image.
		c.Ckpt(irix.CkptOpts{Passes: 2})

		dump(c)
		phase.Store(c, 1)
		for i := 0; i < 3; i++ {
			c.Wait()
		}
	})
	sys.WaitIdle()
}

func dump(c *irix.Ctx) {
	sa := kernel.GroupOf(c.P)
	fmt.Println("shared address block (shaddr_t) ───────────────────────────")
	fmt.Printf("  s_refcnt   %d members\n", sa.Size())
	fmt.Println("  s_plink:")
	for _, m := range sa.Members() {
		fmt.Printf("    pid %-3d %-10q state=%-6s p_shmask=%s p_flag=%#x\n",
			m.PID, m.Name, m.State(), m.ShMask(), m.Flag.Load())
	}
	fmt.Println("  s_region (shared pregion list, under the shared read lock):")
	sa.ViewVM(c.P, func(sp *vm.Space) {
		for _, pr := range sp.Regions() {
			fmt.Printf("    %-5s base=%#08x pages=%-4d resident=%-4d refs=%d\n",
				pr.Reg.Type, uint32(pr.Base), pr.Reg.Pages(), pr.Reg.Resident(), pr.Reg.Refs())
		}
	})
	cdir, rdir, umask, ulimit, uid, gid := sa.ShadowEnv()
	fmt.Println("  shadow resources:")
	fmt.Printf("    s_cdir=inode#%d(ref %d)  s_rdir=inode#%d  s_cmask=%04o  s_limit=%d  s_uid=%d  s_gid=%d\n",
		cdir.Ino, cdir.Ref(), rdir.Ino, umask, ulimit, uid, gid)
	nfds := 0
	c.P.Mu.Lock()
	for _, f := range c.P.Fd {
		if f != nil {
			nfds++
		}
	}
	c.P.Mu.Unlock()
	fmt.Printf("    s_ofile: %d shared descriptors\n", nfds)
	if u, err := c.Getusage(); err == nil {
		fmt.Println("  resource control (setshares(2) entitlements / getusage(2) delivery):")
		fmt.Printf("    cpu: shares=%d band=%d delivered=%d simcyc decayed-usage=%.0f\n",
			u.CPUShares, u.Band, u.Delivered, u.DecayedUsage)
		quota := "unlimited"
		if u.FrameQuota > 0 {
			quota = fmt.Sprintf("%d", u.FrameQuota)
		}
		cap := "unlimited"
		if u.MemberCap > 0 {
			cap = fmt.Sprintf("%d", u.MemberCap)
		}
		fmt.Printf("    mem: frames=%d/%s quota-hits=%d reclaims=%d rezeroed=%d\n",
			u.FramesUsed, quota, u.QuotaHits, u.QuotaReclaims, u.ReclaimedZeros)
		fmt.Printf("    members=%d/%s\n", u.Members, cap)
	}
	fmt.Println("  lock and synchronization statistics:")
	fmt.Printf("    shared read lock: %d scans (%d slept), %d updates (%d slept), %d waiting\n",
		sa.Acc.RLocks.Load(), sa.Acc.RSleeps.Load(), sa.Acc.WLocks.Load(), sa.Acc.WSleeps.Load(), sa.Acc.WaitCount())
	fmt.Printf("    propagations=%d  entry syncs=%d  shootdowns=%d\n",
		sa.Propagations.Load(), sa.Syncs.Load(), sa.Shootdowns.Load())
	fmt.Println("  group syscall profile (gateway accounting, summed over members):")
	group := map[kernel.Sysno]int64{}
	for _, m := range sa.Members() {
		for _, st := range kernel.ProcSyscalls(m) {
			group[st.Num] += st.Count
		}
	}
	for n := kernel.Sysno(0); n < kernel.NSys; n++ {
		if count := group[n]; count > 0 {
			fmt.Printf("    %-12s %-5s %6d calls\n", kernel.SysName(n), kernel.SysClass(n), count)
		}
	}

	fmt.Println("machine ────────────────────────────────────────────────────")
	m := c.S.Machine
	fmt.Printf("  %v, %d frames in use\n", m, m.Mem.InUse())
	for _, cpu := range m.CPUs {
		fmt.Printf("  cpu%d: %10d cycles, tlb hits=%d misses=%d flushes=%d shootdowns=%d\n",
			cpu.ID, cpu.Cycles.Load(), cpu.TLB.Hits.Load(), cpu.TLB.Misses.Load(),
			cpu.TLB.Flushes.Load(), cpu.TLB.Shootdowns.Load())
	}
	st := c.S.Stats()
	fmt.Println("  dispatcher (per-CPU run queues):")
	fmt.Printf("    dispatches=%d local=%d steals=%d steal-scans=%d preemptions=%d sticky-holds=%d runq=%d idle=%d\n",
		st.Dispatches, st.LocalPicks, st.Steals, st.StealScans,
		st.Preemptions, st.StickyHolds, st.RunqLen, st.IdleCPUs)
	fmt.Printf("    fair-share: on=%v passes=%d flushed=%d ungrouped=%d\n",
		st.FairShareOn, st.FairPasses, st.FlushedCyc, st.UngroupedCyc)
	for i, g := range st.Groups {
		fmt.Printf("    group%d: shares=%d band=%d delivered=%d frames=%d members=%d\n",
			i, g.CPUShares, g.Band, g.Delivered, g.FramesUsed, g.Members)
	}
	fmt.Println("  frame allocator (per-CPU caches over the global pool):")
	fmt.Printf("    allocs=%d frees=%d cow-copies=%d cache-hits=%d refills=%d drains=%d scavenges=%d pool-allocs=%d cached=%d\n",
		st.FrameAllocs, st.FrameFrees, st.FrameCopies, st.CacheHits,
		st.CacheRefills, st.CacheDrains, st.CacheScavenges, st.PoolAllocs, st.FramesCached)
	fmt.Println("  fault fast path (lock-free fills, pregion caches, batched shootdowns):")
	fmt.Printf("    fast-fills=%d slow-fills=%d vmcache-hits=%d vmcache-misses=%d page-shootdowns=%d space-shootdowns=%d\n",
		st.FastFills, st.SlowFills, st.VMCacheHits, st.VMCacheMisses,
		st.PageShootdowns, st.SpaceShootdowns)
	fmt.Println("  lazy creation (O(1) COW clones):")
	fmt.Printf("    lazy-dups=%d lazy-breaks=%d lazy-drops=%d break-pages=%d\n",
		st.LazyDups, st.LazyBreaks, st.LazyDrops, st.LazyBreakPages)
	fmt.Println("  sleep-wake (blockproc/unblockproc, hybrid uspin):")
	fmt.Printf("    blocks=%d wakes=%d banked-wakes=%d spin-to-blocks=%d\n",
		st.ProcBlocks, st.ProcWakes, st.BankedWakes, st.SpinToBlocks)
	fmt.Println("  descriptor updates (every group's s_fupdsema):")
	fmt.Printf("    fd-sema-sleeps=%d\n", st.FdSemaSleeps)
	fmt.Println("  readiness (poll(2) over the stream event queues):")
	fmt.Printf("    poll-sleeps=%d transitions=%d sleeper-wakes=%d poller-wakes=%d\n",
		st.PollSleeps, st.ReadyTransitions, st.ReadySleeperWakes, st.ReadyPollerWakes)
	if st.Ckpts > 0 || st.Restores > 0 {
		fmt.Println("  checkpoint/restore (iterative pre-copy over the share group):")
		fmt.Printf("    ckpts=%d passes=%d pre-pages=%d stw-pages=%d stw-simcyc=%d image-bytes=%d restores=%d\n",
			st.Ckpts, st.CkptPasses, st.CkptPrePages, st.CkptSTWPages,
			st.CkptSTWCycles, st.CkptImageBytes, st.Restores)
	}
	fmt.Println("  fault injection and degradation:")
	fmt.Printf("    checks=%d injected=%d restarts=%d retries=%d reclaims=%d reclaimed-frames=%d\n",
		st.FaultChecks, st.FaultsInjected, st.SyscallRestarts,
		st.SyscallRetries, st.FrameReclaims, st.ReclaimedFrames)
	for _, row := range st.FaultSites {
		if row.Checks > 0 {
			fmt.Printf("    site %-10s checks=%-6d injected=%d\n", row.Site, row.Checks, row.Injected)
		}
	}
	fmt.Println("  system-wide syscall accounting (per-CPU gateway counters):")
	for _, sc := range st.Syscalls {
		fmt.Printf("    %-12s %-5s %6d calls %10d simcyc %8.0f /call\n",
			sc.Name, kernel.SysClass(sc.Num), sc.Count, sc.SimCyc, sc.CyclesPerCall())
	}
}
