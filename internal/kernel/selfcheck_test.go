package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/proc"
	"repro/internal/trace"
)

// TestSelfCheckWaitIdle: once every process has exited, WaitIdle checks
// every idle law and panics naming each one that broke. Each row breaks one
// law behind the kernel's back on a traced system that has gone idle once;
// the last row leaves a touched shm segment registered, which holds its
// frame lawfully.
func TestSelfCheckWaitIdle(t *testing.T) {
	rows := []struct {
		name string
		brk  func(t *testing.T, s *System)
		want []string // nil: WaitIdle must not panic
	}{
		// The stray is a process readied behind the kernel's back — nothing
		// will ever run or exit it, so it sits on its CPU.
		{"stray process", func(t *testing.T, s *System) { s.Sched.Ready(proc.New(99, "stray")) },
			[]string{"WaitIdle", "3 of 4 CPUs idle", "pid 99 (stray)"}},
		{"process left in the table", func(t *testing.T, s *System) { s.procs[99] = proc.New(99, "ghost") },
			[]string{"1 processes left in the table"}},
		{"frame never freed", func(t *testing.T, s *System) {
			if _, err := s.Machine.Mem.Alloc(); err != nil {
				t.Fatal(err)
			}
		}, []string{"1 frames in use, 0 resident in shm segments"}},
		{"allocation counted twice", func(t *testing.T, s *System) { s.Machine.Mem.Allocs.Add(1) },
			[]string{"frame ledger"}},
		{"lazy clone neither broken nor dropped", func(t *testing.T, s *System) { s.Machine.Mem.LazyDups.Add(1) },
			[]string{"lazy clones: 1 dups != 0 breaks + 0 drops"}},
		{"syscall enter with no exit", func(t *testing.T, s *System) {
			s.Machine.Trace.Record(trace.EvSyscallEnter, 99, 0, uint64(SysGetpid), 0)
		}, []string{"syscall spans"}},
		{"shm segment outlives its processes", func(t *testing.T, s *System) {
			s.Start("shm", func(c *Context) {
				va, err := c.Shmat(c.Shmget(7, 2))
				if err != nil {
					t.Errorf("shmat: %v", err)
				}
				c.Store32(va, 1)
			})
		}, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.TraceEvents = 1 << 10
			s := NewSystem(cfg)
			s.Start("init", func(c *Context) { c.Getpid() })
			s.WaitIdle() // the quiescent case passes
			row.brk(t, s)
			defer func() {
				r := recover()
				if (r == nil) != (row.want == nil) {
					t.Fatalf("WaitIdle panic = %v, want one naming %q", r, row.want)
				}
				if row.want == nil && s.Machine.Mem.InUse() == 0 {
					t.Fatal("the segment holds no frame")
				}
				msg := fmt.Sprint(r)
				for _, want := range row.want {
					if !strings.Contains(msg, want) {
						t.Fatalf("WaitIdle panic %q does not mention %q", msg, want)
					}
				}
			}()
			s.WaitIdle()
		})
	}
}
