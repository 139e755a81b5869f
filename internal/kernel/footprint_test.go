package kernel

import (
	"runtime"
	"testing"
)

// liveHeap collects and returns the bytes the heap holds live.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOpenConnectionFootprint pins the host heap an open connection holds:
// a connect+accept pair with both descriptors open is one socket-pair
// object (both flows, both endpoints, one mutex; no sleeper list until a
// thread sleeps), two open files with no inode and no offset, and two
// descriptor slots. The ceiling is the 287 bytes measured when it was set
// with room for a race-detector build (305); a stream end that carried a
// regular file's offset, lock and path again would read 351.
func TestOpenConnectionFootprint(t *testing.T) {
	const conns = 2000
	conf := testConfig()
	conf.NCPU, conf.TimeSlice, conf.MaxFiles = 1, 1<<40, 2*conns+16
	s := NewSystem(conf)
	var perConn float64
	s.Start("server", func(c *Context) {
		lfd, err := c.NetListen("svc")
		if err != nil {
			t.Error(err)
			return
		}
		before := liveHeap()
		for i := 0; i < conns; i++ {
			if _, err := c.NetConnect("svc"); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.NetAccept(lfd); err != nil {
				t.Error(err)
				return
			}
		}
		perConn = float64(liveHeap()-before) / conns
	})
	waitIdle(t, s)
	t.Logf("%.0f live bytes per open connection", perConn)
	if perConn > 320 {
		t.Errorf("%.0f live bytes per open connection, ceiling 320", perConn)
	}
}

// TestBootFootprint pins the host heap a boot allocates at 16 384 frames:
// hw.NewMemory makes the frame records' bank directory, not a record per
// frame, so a boot pays for the frames it hands out, not for its capacity.
// The least of five boots, so an allocation elsewhere in the process
// cannot fail it. The ceiling is the ≈ 22 KiB measured when it was set,
// with room for the kernel's own tables to grow.
func TestBootFootprint(t *testing.T) {
	conf := testConfig()
	conf.MemFrames = 16384
	least := uint64(1 << 62)
	var ms runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s := NewSystem(conf)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
		waitIdle(t, s)
	}
	t.Logf("%d heap bytes a boot", least)
	if least > 64<<10 {
		t.Errorf("a boot at %d frames allocates %d heap bytes, ceiling %d", conf.MemFrames, least, 64<<10)
	}
}
