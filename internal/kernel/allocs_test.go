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

// TestPrivateMapUnmapAllocs pins the host heap objects of a private
// one-page mmap, store and munmap at one: the pregion the mapping lists.
// The update bracket binds its Shoot once per process, not per call, and
// munmap searches the private and group spaces without listing them. One
// CPU and a slice that never ends, so no op yields.
func TestPrivateMapUnmapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	conf := testConfig()
	conf.NCPU, conf.TimeSlice = 1, 1<<40
	s := NewSystem(conf)
	var allocs float64
	s.Start("mapper", func(c *Context) {
		op := func() {
			va, err := c.Mmap(1)
			if err == nil {
				err = c.Store32(va, 1)
			}
			if err == nil {
				err = c.Munmap(va)
			}
			if err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 64; i++ {
			op()
		}
		allocs = testing.AllocsPerRun(256, op)
	})
	waitIdle(t, s)
	if allocs > 1 {
		t.Errorf("%.0f heap objects per private mmap+store+munmap, want 1 (the pregion)", allocs)
	}
}
