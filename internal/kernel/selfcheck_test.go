package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/proc"
)

// TestSelfCheckWaitIdle: once every process has exited, every CPU is idle
// and every run queue empty, or WaitIdle panics naming what is left. The
// stray here is a process readied behind the kernel's back — nothing will
// ever run or exit it, so it sits on its CPU.
func TestSelfCheckWaitIdle(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("init", func(c *Context) {})
	s.WaitIdle() // the quiescent case passes

	stray := proc.New(99, "stray")
	s.Sched.Ready(stray)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("WaitIdle returned with a process still on a CPU")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"WaitIdle", "3 of 4 CPUs idle", "pid 99 (stray)"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("WaitIdle panic %q does not mention %q", msg, want)
			}
		}
	}()
	s.WaitIdle()
}
