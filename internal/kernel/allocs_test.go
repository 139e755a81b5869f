package kernel

import (
	"testing"

	"repro/internal/proc"
	"repro/internal/vm"
)

// TestCreateJoinAllocs pins the host heap objects one steady-state
// create+wait makes, per creation kind: a dead child's region headers and
// page tables serve the next child's (vm's spare), a child that makes no
// syscall gets no syscall profile, and neither a sleep nor a shared-space
// update makes a method value, and fork copies the parent's descriptors into
// the table proc.New made. Each ceiling is the count measured when it was
// set, plus one; what is left is the process itself (proc.New), its
// Context, and its image's pregions and list.
func TestCreateJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	child := func(c *Context) { c.Store32(vm.DataBase, 1) }
	entry := func(c *Context, _ int64) { child(c) }
	for _, kind := range []struct {
		name    string
		create  func(c *Context) (int, error)
		ceiling float64
	}{
		{"fork", func(c *Context) (int, error) { return c.Fork("f", child) }, 18},
		{"sproc(PR_SALL)", func(c *Context) (int, error) { return c.Sproc("s", entry, proc.PRSALL, 0) }, 13},
		{"sproc(no PR_SADDR)", func(c *Context) (int, error) { return c.Sproc("s", entry, proc.PRSALL&^proc.PRSADDR, 0) }, 22},
		{"thread", func(c *Context) (int, error) { return c.ThreadCreate("t", entry, 0) }, 13},
	} {
		t.Run(kind.name, func(t *testing.T) {
			s := NewSystem(testConfig())
			var allocs float64
			s.Start("parent", func(c *Context) {
				pair := func() {
					if _, err := kind.create(c); err != nil {
						t.Errorf("create: %v", err)
					}
					if _, _, err := c.Wait(); err != nil {
						t.Errorf("wait: %v", err)
					}
				}
				for i := 0; i < 64; i++ {
					pair()
				}
				allocs = testing.AllocsPerRun(256, pair)
			})
			waitIdle(t, s)
			t.Logf("%.0f allocs per create+wait", allocs)
			if allocs > kind.ceiling {
				t.Errorf("%.0f heap objects per create+wait, ceiling %.0f", allocs, kind.ceiling)
			}
		})
	}
}
