package workload

// The chaos driver: a seeded soak that runs a mixed syscall workload under
// an armed fault-injection plan and then checks the kernel's conservation
// invariants. Every worker's protocol is self-contained (its own pipe, its
// own semaphore, its own message queue), so injected EINTRs, short I/O,
// spurious wakeups, and ENOMEMs can kill or starve any worker without
// wedging the others — exactly the degradation the gateway promises.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/vm"
)

// TestChaosSoak is the `make chaos` entry point: a seeded soak per seed,
// asserting that heavy fault injection cannot break the kernel's
// conservation invariants and that the same seed reproduces the same
// injection sequence.
func TestChaosSoak(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 30
	}
	for _, seed := range []uint64{1, 0xdeadbeef, 0x5eed} {
		cfg := DefaultConfig()
		cfg.FaultSeed = seed
		cfg.FaultRate = 150
		cfg.TraceEvents = 1 << 15
		res := Chaos(cfg, 6, steps)
		t.Logf("seed %#x: %v", seed, res)
		if res.FaultsInjected == 0 {
			t.Errorf("seed %#x: plan injected nothing", seed)
		}
	}
}

// The soak itself must be reproducible at the injection level: two runs
// under one seed inject the same number of faults at every site.
func TestChaosSeedReproducible(t *testing.T) {
	run := func() ChaosResult {
		cfg := DefaultConfig()
		cfg.FaultSeed = 99
		cfg.FaultRate = 150
		return Chaos(cfg, 4, 40)
	}
	// Scheduling interleaving varies between runs, so per-site *order*
	// can differ across concurrent workers — but the per-worker protocol
	// streams are fixed, so both runs must drain with every idle law
	// intact (WaitIdle panics otherwise); the strict sequence-equality
	// guarantee is asserted by the single-process
	// kernel.TestFaultPlanDeterminism.
	a, b := run(), run()
	if a.FaultChecks == 0 || b.FaultChecks == 0 {
		t.Fatal("no injection decisions taken")
	}
}

// ChaosResult reports one chaos soak: how much havoc the plan caused.
type ChaosResult struct {
	Steps          int64 // worker protocol steps completed
	FaultsInjected int64 // faults the plan injected
	FaultChecks    int64 // injection decisions taken
	Restarts       int64 // EINTR auto-restarts performed by the gateway
	Retries        int64 // EAGAIN retries performed by the gateway
	Reclaims       int64 // frame-cache drain-and-reclaim passes
	Stats          kernel.Stats
}

func (r ChaosResult) String() string {
	return fmt.Sprintf("steps=%d injected=%d restarts=%d retries=%d reclaims=%d",
		r.Steps, r.FaultsInjected, r.Restarts, r.Retries, r.Reclaims)
}

// Chaos boots cfg (which should carry a FaultSeed/FaultRate), runs workers
// processes through steps protocol rounds each, and waits for the system to
// drain; WaitIdle checks the idle laws.
func Chaos(cfg kernel.Config, workers, steps int) ChaosResult {
	sys := kernel.NewSystem(cfg)
	var res ChaosResult
	var stepsDone atomic.Int64

	sys.Start("chaos", func(c *kernel.Context) {
		for w := 0; w < workers; w++ {
			w := w
			c.Fork(fmt.Sprintf("worker%d", w), func(cc *kernel.Context) {
				chaosWorker(cc, &stepsDone, cfg.FaultSeed, w, steps)
			})
		}
		// Reap everything, whatever order it died or finished in. The
		// plan injects EINTR into wait(2) too, so tolerate it.
		for {
			if _, _, err := c.Wait(); err != nil && errors.Is(err, kernel.ErrNoChildren) {
				break
			}
		}
	})
	sys.WaitIdle()
	res.Steps = stepsDone.Load()

	st := sys.Stats()
	res.Stats = st
	res.FaultsInjected = st.FaultsInjected
	res.FaultChecks = st.FaultChecks
	res.Restarts = st.SyscallRestarts
	res.Retries = st.SyscallRetries
	res.Reclaims = st.FrameReclaims
	return res
}

// chaosWorker runs one worker's protocol rounds, bumping done after each
// so a worker killed mid-soak (injected ENOMEM under a page touch is
// fatal, as real SIGSEGV is) still reports partial progress. Every syscall
// failure is tolerated — the worker's job is to keep hammering the kernel,
// not to succeed.
func chaosWorker(c *kernel.Context, done *atomic.Int64, seed uint64, w, steps int) {
	rng := rand.New(rand.NewSource(int64(seed) + int64(w)*7919))
	c.Signal(proc.SIGUSR1, func(int) {})
	self := c.Getpid()
	buf := vm.DataBase + hw.VAddr(64*w)
	for i := 0; i < steps; i++ {
		switch rng.Intn(7) {
		case 0: // pipe round-trip through own pipe; short I/O tolerated
			if r, wr, err := c.Pipe(); err == nil {
				c.WriteString(wr, buf, "chaos")
				c.Read(r, buf, 5)
				c.Close(r)
				c.Close(wr)
			}
		case 1: // own semaphore: V then P, never blocks on others
			id := c.Semget(1000+w, 1)
			if err := c.Semop(id, 0, 1); err == nil {
				c.Semop(id, 0, -1)
			}
		case 2: // own message queue, own type
			id := c.Msgget(2000 + w)
			if err := c.Msgsnd(id, int64(self), buf, 4); err == nil {
				c.Msgrcv(id, int64(self), buf, 8)
			}
		case 3: // fork/wait churn; child may be killed by injection
			if _, err := c.Fork("chaoskid", func(k *kernel.Context) {
				k.Getpid()
			}); err == nil {
				for {
					if _, _, werr := c.Wait(); werr == nil ||
						errors.Is(werr, kernel.ErrNoChildren) {
						break
					}
				}
			}
		case 4: // private mapping: map, touch, unmap
			if va, err := c.MmapPrivate(1); err == nil {
				c.Store32(va, uint32(i))
				c.Munmap(va)
			}
		case 5: // self-signal: exercises delivery on syscall exit
			c.Kill(self, proc.SIGUSR1)
		case 6: // grow the heap and touch the new page
			if va, err := c.Sbrk(hw.PageSize); err == nil {
				c.Store32(va, uint32(i))
			}
		}
		done.Add(1)
	}
}
