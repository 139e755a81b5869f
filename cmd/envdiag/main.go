// Command envdiag reproduces Figures 1-4 of the paper from live systems:
// for each process-environment model — Version 7 (Figure 1), System V and
// BSD (Figure 2), Mach threads (Figure 3), and the IRIX share-group model
// (Figure 4) — it boots the simulated kernel, constructs the model's
// characteristic arrangement, and prints an inventory showing which
// resources are private, which are shared, and through what mechanism the
// parts communicate.
package main

import (
	"fmt"
	"sync/atomic"

	irix "repro"
)

func main() {
	v7()
	sysv()
	bsd()
	mach()
	irixModel()
}

func header(title string) {
	fmt.Printf("\n%s\n", title)
	for range title {
		fmt.Print("─")
	}
	fmt.Println()
}

// v7 — Figure 1: fully private processes, pipes the only data path.
func v7() {
	header("Figure 1 — Version 7 process environment")
	sys := irix.New(irix.Config{NCPU: 2})
	sys.Start("parent", func(c *irix.Ctx) {
		r, w, _ := c.Pipe()
		c.Fork("child", func(cc *irix.Ctx) {
			msg, _ := cc.ReadString(r, irix.DataBase, 64)
			fmt.Printf("  child: private address space (ASID %d); got %q via pipe\n", cc.P.ASID, msg)
			cc.Store32(irix.DataBase, 7) // invisible to the parent
		})
		c.WriteString(w, irix.DataBase+4096, "hello through the kernel queue")
		c.Wait()
		v, _ := c.Load32(irix.DataBase)
		fmt.Printf("  parent: private address space (ASID %d); child's store invisible (read %d)\n", c.P.ASID, v)
		fmt.Println("  sharing: NONE — every resource private; communication queues through the kernel")
	})
	sys.WaitIdle()
}

// sysv — Figure 2 (left): System V adds shared memory, semaphores and
// message queues, but synchronization still crosses the kernel.
func sysv() {
	header("Figure 2a — System V process environment")
	sys := irix.New(irix.Config{NCPU: 2})
	sys.Start("parent", func(c *irix.Ctx) {
		shmID := c.Shmget(42, 4)
		semID := c.Semget(43, 1)
		msqID := c.Msgget(44)
		va, _ := c.Shmat(shmID)
		c.Fork("child", func(cc *irix.Ctx) {
			cva, _ := cc.Shmat(shmID)
			cc.Store32(cva, 123)
			cc.Semop(semID, 0, 1) // kernel-mediated signal
			cc.Msgsnd(msqID, 1, cva, 8)
		})
		c.Semop(semID, 0, -1)
		v, _ := c.Load32(va)
		n, typ, _ := c.Msgrcv(msqID, 0, va+64, 64)
		fmt.Printf("  shm segment: child's store visible across fork (read %d)\n", v)
		fmt.Printf("  semaphore: synchronized via semop (kernel interaction each time)\n")
		fmt.Printf("  message queue: received %d-byte message of type %d\n", n, typ)
		fmt.Println("  sharing: explicit segments only; fds/dirs/ids remain private")
		c.Wait()
	})
	sys.WaitIdle()
}

// bsd — Figure 2 (right): BSD's socket queueing model.
func bsd() {
	header("Figure 2b — BSD process environment")
	sys := irix.New(irix.Config{NCPU: 2})
	sys.Start("server", func(c *irix.Ctx) {
		l, _ := c.NetListen("svc")
		c.Fork("client", func(cc *irix.Ctx) {
			fd, _ := cc.NetConnect("svc")
			cc.WriteString(fd, irix.DataBase, "request")
			resp, _ := cc.ReadString(fd, irix.DataBase+64, 64)
			fmt.Printf("  client: response %q over stream socket\n", resp)
		})
		fd, _ := c.NetAccept(l)
		req, _ := c.ReadString(fd, irix.DataBase, 64)
		c.WriteString(fd, irix.DataBase+64, "response to "+req)
		c.Wait()
		fmt.Println("  sharing: none — all data copied twice through kernel socket buffers")
	})
	sys.WaitIdle()
}

// mach — Figure 3: one task, several threads, everything shared.
func mach() {
	header("Figure 3 — Mach process environment (task + threads)")
	sys := irix.New(irix.Config{NCPU: 2})
	sys.Start("task", func(c *irix.Ctx) {
		for i := 0; i < 3; i++ {
			c.ThreadCreate("thread", func(cc *irix.Ctx, arg int64) {
				cc.Add32(irix.DataBase, uint32(arg))
			}, int64(i+1))
		}
		for i := 0; i < 3; i++ {
			c.Wait()
		}
		v, _ := c.Load32(irix.DataBase)
		fmt.Printf("  3 threads in one task: shared sum = %d (ASID %d for all)\n", v, c.P.ASID)
		fmt.Println("  sharing: EVERYTHING, always — no selectivity; each thread still needs")
		fmt.Println("  a kernel stack and context (cheap create, but two interfaces to manage)")
	})
	sys.WaitIdle()
}

// irixModel — Figure 4: share groups with per-child share masks. The
// members report through the creator once it has reaped them, so the
// figure prints in the same order every run.
func irixModel() {
	header("Figure 4 — IRIX programming model (share groups)")
	sys := irix.New(irix.Config{NCPU: 4})
	sys.Start("creator", func(c *irix.Ctx) {
		fd, _ := c.Creat("/notes", 0o644)
		var step atomic.Int32
		// Member A: shares everything.
		c.Sproc("A", func(cc *irix.Ctx, _ int64) {
			cc.Store32(irix.DataBase, 11)
			for step.Load() < 1 {
				cc.Getpid()
			}
		}, irix.PRSALL, 0)
		// Member B: shares only descriptors — its memory stays private.
		var maskB string
		var fdSeenByB bool
		c.Sproc("B", func(cc *irix.Ctx, _ int64) {
			cc.Store32(irix.DataBase, 22) // lands in B's COW copy
			cc.P.Mu.Lock()
			_, errFd := cc.P.GetFd(fd)
			cc.P.Mu.Unlock()
			maskB, fdSeenByB = cc.P.ShMask().String(), errFd == nil
			for step.Load() < 1 {
				cc.Getpid()
			}
		}, irix.PRSFDS, 0)
		for {
			if v, _ := c.Load32(irix.DataBase); v == 11 {
				break
			}
		}
		v, _ := c.Load32(irix.DataBase)
		step.Store(1)
		c.Wait()
		c.Wait()
		fmt.Printf("  member A (mask %s): store visible to creator (read %d)\n", irix.PRSALL, v)
		fmt.Printf("  member B (mask %s): sees creator's fd: %v; its stores stay private\n", maskB, fdSeenByB)
		fmt.Println("  sharing: SELECTED PER CHILD by the sproc share mask, with strict")
		fmt.Println("  inheritance; normal UNIX semantics (signals, wait, exec) retained")
	})
	sys.WaitIdle()
}
