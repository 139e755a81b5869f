package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proc"
)

// When a modelled child ends, relative to its parent's wait(2) calls.
const (
	exitEarly   = iota // at once; the parent's first wait(2) comes after
	exitOnWait         // as the parent enters its nth wait(2) (or sleeps in an earlier one), after a host yield: aimed at the scan→Block window
	exitOnSleep        // once the parent is asleep in wait(2)
	exitKilled         // pauses until the sibling SIGKILLs it
	nExitKinds
)

// waitSleepReason is what Wait passes to Block.
const waitSleepReason = "wait(2) for child exit"

type modelChild struct {
	kind   int
	nth    int32 // exitOnWait: the wait(2) announcement that releases it
	status int   // what wait(2) must report
	p      *proc.Proc
	begun  atomic.Bool // exit or kill under way: its SIGCLD may not be posted yet
	reaped atomic.Bool
}

// gone reports that the child's exit has posted its SIGCLD: reap closes
// Exited, posts, and only then gives the CPU back, without blocking in
// between.
func (k *modelChild) gone() bool {
	select {
	case <-k.p.Exited:
		return k.p.CPU.Load() < 0
	default:
		return false
	}
}

// TestSleepProtocolModel drives the one kernel sleep protocol — a Block
// loop on a condition, broken by Post's poke of the wake token — through
// wait(2) and pause(2) against a reference model: every child is reaped
// exactly once with its status, wait(2) says EINTR only when a caught
// signal was there to deliver, pause(2) returns only after a post, ECHILD
// comes exactly when no child remains, and no wake is lost (the run ends).
func TestSleepProtocolModel(t *testing.T) {
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(1); seed <= 4; seed++ {
				runSleepModel(t, seed)
			}
		})
	}
}

func runSleepModel(t *testing.T, seed int64) {
	const nKids = 8
	rng := rand.New(rand.NewSource(seed))
	kids := make([]*modelChild, nKids)
	for i := range kids {
		k := &modelChild{kind: i % nExitKinds, nth: int32(1 + rng.Intn(6)), status: i + 1}
		if i >= nExitKinds {
			k.kind = rng.Intn(nExitKinds)
		}
		if k.kind == exitKilled {
			k.status = 128 + proc.SIGKILL
		}
		kids[i] = k
	}

	var (
		parent   *proc.Proc
		announce atomic.Int32 // wait(2) calls the parent has announced
		sent     atomic.Int32 // sibling → parent signals begun
		done     atomic.Int32 // ... and posted
		pauseReq atomic.Int32 // pause(2) calls the parent wants answered
		stop     atomic.Bool  // every modelled child is reaped, or the run is abandoned
	)

	// On even seeds the sibling also signals the parent unasked. On odd
	// ones only a child's exit can end the parent's wait(2), so losing that
	// wake hangs the run instead of hiding behind the next stray signal.
	noisy := seed%2 == 0
	parentInWait := func() bool {
		return parent.State() == proc.SSleep && parent.LastSleep.Load() == waitSleepReason
	}

	child := func(k *modelChild) Main {
		return func(c *Context) {
			switch k.kind {
			case exitOnWait:
				for announce.Load() < k.nth && !parentInWait() && !stop.Load() {
					c.Getpid()
				}
				runtime.Gosched()
			case exitOnSleep:
				for !parentInWait() && !stop.Load() {
					c.Getpid()
				}
			case exitKilled:
				for {
					c.Pause()
				}
			}
			k.begun.Store(true)
			c.Exit(k.status)
		}
	}

	sibling := func(c *Context) {
		rng := rand.New(rand.NewSource(seed + 1000))
		post := func(sig int) {
			sent.Add(1)
			if err := c.Kill(parent.PID, sig); err != nil {
				t.Errorf("seed %d: kill parent: %v", seed, err)
			}
			done.Add(1)
		}
		toParent := [...]int{proc.SIGUSR1, proc.SIGCLD}
		acked := int32(0)
		for !stop.Load() {
			r := rng.Intn(16)
			switch req := pauseReq.Load(); {
			case req > acked:
				acked = req
				post(toParent[r%2])
			case noisy && r < 2:
				post(toParent[r])
			case r == 2:
				for _, k := range kids {
					if k.kind == exitKilled && !k.begun.Load() {
						k.begun.Store(true)
						c.Kill(k.p.PID, proc.SIGKILL)
						break
					}
				}
			default:
				c.Getpid()
			}
		}
	}

	s := NewSystem(testConfig())
	s.Start("parent", func(c *Context) {
		parent = c.P
		usr1 := 0 // handlers run on the parent's own context
		c.Signal(proc.SIGUSR1, func(int) { usr1++ })
		byPid := map[int]*modelChild{}
		for i, k := range kids {
			pid, err := c.Fork(fmt.Sprintf("kid%d", i), child(k))
			if err != nil {
				t.Errorf("seed %d: fork: %v", seed, err)
				stop.Store(true)
				return
			}
			k.p, _ = c.S.Lookup(pid)
			byPid[pid] = k
		}
		sibPid, err := c.Fork("sibling", sibling)
		if err != nil {
			t.Errorf("seed %d: fork sibling: %v", seed, err)
			stop.Store(true)
			return
		}
		for _, k := range kids {
			for k.kind == exitEarly && !k.gone() {
				c.Getpid()
			}
		}

		// abandon ends a run the model cannot follow any further.
		abandon := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			stop.Store(true)
			for _, k := range kids {
				c.Kill(k.p.PID, proc.SIGKILL)
			}
		}
		begun := func() (n int, allGone bool) {
			allGone = true
			for _, k := range kids {
				if k.begun.Load() {
					n++
					allGone = allGone && k.gone()
				}
			}
			return n, allGone
		}

		for reaped := 0; reaped < nKids; {
			if rng.Intn(3) == 0 {
				// Nothing is in flight if every signal the sibling began is
				// posted and every child that began to exit has posted its
				// SIGCLD; getpid's return then delivers all of it.
				d0 := done.Load()
				b0, quiet := begun()
				c.Getpid()
				pauseReq.Add(1)
				if err := c.Pause(); !errors.Is(err, EINTR) {
					t.Errorf("seed %d: Pause = %v, want EINTR", seed, err)
				}
				if b1, _ := begun(); quiet && b1 == b0 && sent.Load() == d0 {
					t.Errorf("seed %d: Pause returned with no signal posted since the last delivery", seed)
				}
				continue
			}
			announce.Add(1)
			h0 := usr1
			pid, status, err := c.Wait()
			switch k := byPid[pid]; {
			case errors.Is(err, EINTR):
				if usr1 == h0 {
					t.Errorf("seed %d: Wait = EINTR with no caught signal to deliver", seed)
				}
			case err != nil:
				abandon("Wait = %v with %d of %d children unreaped", err, nKids-reaped, nKids)
				return
			case k == nil || k.reaped.Swap(true):
				abandon("Wait reaped pid %d, which is not an unreaped child", pid)
				return
			default:
				if status != k.status {
					t.Errorf("seed %d: child %d (kind %d) reaped with status %d, want %d", seed, pid, k.kind, status, k.status)
				}
				reaped++
			}
		}
		stop.Store(true)
		for {
			pid, status, err := c.Wait()
			if errors.Is(err, EINTR) {
				continue
			}
			if err != nil || pid != sibPid || status != 0 {
				t.Errorf("seed %d: last Wait = (%d, %d, %v), want the sibling (%d, 0)", seed, pid, status, err, sibPid)
			}
			break
		}
		if _, _, err := c.Wait(); !errors.Is(err, ECHILD) {
			t.Errorf("seed %d: Wait with no children = %v, want ECHILD", seed, err)
		}
	})

	idle := make(chan struct{})
	go func() { s.WaitIdle(); close(idle) }()
	select {
	case <-idle:
	case <-time.After(10 * time.Second):
		msg := fmt.Sprintf("seed %d: run did not end (lost wake?): parent %v in %v, %d waits announced", seed, parent.State(), parent.LastSleep.Load(), announce.Load())
		for i, k := range kids {
			msg += fmt.Sprintf("; kid%d kind %d nth %d %v begun=%v reaped=%v", i, k.kind, k.nth, k.p.State(), k.begun.Load(), k.reaped.Load())
		}
		t.Fatal(msg)
	}
}
