package kernel_test

// The storm for quiescent spins (mutation checks: spin_test.go's header). It
// lives outside package kernel because it spins through uspin, which imports
// kernel.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
	"repro/internal/vm"
)

// TestQuiescentSpinStormRace: six members on four CPUs pass a token round a
// ring through uspin.Word.AwaitEq, each hand-off also bumping a counter
// under a hybrid uspin.Mutex, while a seventh member spins on a word nobody
// writes until the driver SIGKILLs it. Seven spinners on four CPUs keep the
// machine quiescent much of the time, so polls are skipped wholesale; a
// hand-off they skip past hangs the ring. Every hand-off must be seen, the
// counter must be exact, the kill must land within one refresh's charge, and
// no process may leave a spin still flagged.
func TestQuiescentSpinStormRace(t *testing.T) {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	for _, procs := range levels {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			quiescentSpinStorm(t)
		})
	}
}

func quiescentSpinStorm(t *testing.T) {
	const ring, handoffs = 6, 1000
	cfg := kernel.Config{NCPU: 4, MemFrames: 8192, TimeSlice: 500}
	s := kernel.NewSystem(cfg)
	refresh := 2*hw.DefaultCosts().MemAccess + kernel.SpinPollBatch/kernel.SpinPollsPerCycle
	token := uspin.Word{VA: vm.DataBase}
	lock := uspin.Mutex{VA: vm.DataBase + 64}
	counter := lock.VA + uspin.MutexBytes
	never := uspin.Word{VA: counter + 4}
	var seen atomic.Int64
	var died atomic.Int64 // the victim's cycles as its kill unwinds it
	var stillFlagged atomic.Bool
	s.Start("driver", func(c *kernel.Context) {
		token.Store(c, 0)
		lock.Init(c)
		c.Store32(counter, 0)
		never.Store(c, 0)
		vpid, _ := c.Sproc("victim", func(cc *kernel.Context, _ int64) {
			defer func() {
				died.Store(cc.P.Cycles.Load())
				if cc.P.Spinning.Load() {
					stillFlagged.Store(true)
				}
			}()
			never.AwaitEq(cc, 1)
			t.Error("victim's spin ended without a store")
		}, proc.PRSALL, 0)
		for m := 0; m < ring; m++ {
			c.Sproc("ring", func(cc *kernel.Context, m int64) {
				for v := uint32(m); v < handoffs; v += ring {
					if err := token.AwaitEq(cc, v); err != nil {
						t.Errorf("member %d awaiting %d: %v", m, v, err)
						return
					}
					if err := lock.Lock(cc); err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					n, _ := cc.Load32(counter)
					cc.Store32(counter, n+1)
					lock.Unlock(cc)
					seen.Add(1)
					token.Store(cc, v+1)
				}
				if cc.P.Spinning.Load() {
					stillFlagged.Store(true)
				}
			}, proc.PRSALL, int64(m))
		}
		victim, ok := c.S.Lookup(vpid)
		if !ok {
			t.Error("victim vanished")
			return
		}
		for !victim.Spinning.Load() {
			c.Getpid() // a kernel crossing: burns cycles, lets members run
		}
		c.Kill(vpid, proc.SIGKILL)
		killed := victim.Cycles.Load()
		for i := 0; i < ring+1; i++ {
			pid, status, err := c.Wait()
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			if pid == vpid && status != 128+proc.SIGKILL {
				t.Errorf("victim exit status %d, want %d", status, 128+proc.SIGKILL)
			}
		}
		if late := died.Load() - killed; late > refresh {
			t.Errorf("victim charged %d cycles after its kill returned, more than one refresh (%d)", late, refresh)
		}
		if v, _ := token.Load(c); v != handoffs {
			t.Errorf("token = %d, want %d", v, handoffs)
		}
		if n, _ := c.Load32(counter); n != handoffs {
			t.Errorf("counter = %d, want %d (lost update)", n, handoffs)
		}
	})
	done := make(chan struct{})
	go func() { s.WaitIdle(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("ring wedged after %d of %d hand-offs", seen.Load(), handoffs)
	}
	if got := seen.Load(); got != handoffs {
		t.Errorf("%d hand-offs seen, want %d", got, handoffs)
	}
	if stillFlagged.Load() {
		t.Error("a process left its spin with Spinning still set")
	}
}
