package irix_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	irix "repro"
)

// The root tests exercise the repository's public surface the way the
// examples do: everything goes through package irix only.

func runSys(t *testing.T, cfg irix.Config, main irix.Main) *irix.System {
	t.Helper()
	sys := irix.New(cfg)
	sys.Start("main", main)
	done := make(chan struct{})
	go func() { sys.WaitIdle(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("system did not go idle")
	}
	return sys
}

func TestPublicAPIQuickstart(t *testing.T) {
	runSys(t, irix.Config{NCPU: 2}, func(c *irix.Ctx) {
		shm, err := c.Mmap(1)
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		lock := irix.Spinlock{VA: shm}
		lock.Init(c)
		const members, per = 3, 200
		for i := 0; i < members; i++ {
			c.Sproc("w", func(w *irix.Ctx, _ int64) {
				for n := 0; n < per; n++ {
					lock.Lock(w)
					v, _ := w.Load32(shm + irix.SyncBytes)
					w.Store32(shm+irix.SyncBytes, v+1)
					lock.Unlock(w)
				}
			}, irix.PRSALL, int64(i))
		}
		for i := 0; i < members; i++ {
			c.Wait()
		}
		if v, _ := c.Load32(shm + irix.SyncBytes); v != members*per {
			t.Errorf("counter = %d", v)
		}
	})
}

func TestPublicAPIFilesAndDirs(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		if err := c.Mkdir("/data", 0o755); err != nil {
			t.Errorf("Mkdir: %v", err)
		}
		fd, err := c.Open("/data/report", irix.ORead|irix.OWrite|irix.OCreat, 0o644)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if _, err := c.WriteString(fd, irix.DataBase, "findings"); err != nil {
			t.Errorf("WriteString: %v", err)
		}
		c.Lseek(fd, 0, irix.SeekSet)
		got, err := c.ReadString(fd, irix.DataBase+4096, 32)
		if err != nil || got != "findings" {
			t.Errorf("ReadString = (%q, %v)", got, err)
		}
		st, err := c.Stat("/data/report")
		if err != nil || st.Size != 8 {
			t.Errorf("Stat = (%+v, %v)", st, err)
		}
		if err := c.Close(fd); err != nil {
			t.Errorf("Close: %v", err)
		}
		if _, err := c.Stat("/missing"); !errors.Is(err, irix.ErrNotExist) {
			t.Errorf("Stat missing = %v", err)
		}
	})
}

func TestPublicAPIShareMaskSemantics(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		var sawFd, sawMem atomic.Bool
		fd, _ := c.Creat("/shared", 0o644)
		c.Store32(irix.DataBase, 7)
		done := make(chan struct{})
		c.Sproc("fds-only", func(w *irix.Ctx, _ int64) {
			defer close(done)
			w.P.Mu.Lock()
			_, err := w.P.GetFd(fd)
			w.P.Mu.Unlock()
			sawFd.Store(err == nil)
			v, _ := w.Load32(irix.DataBase)
			sawMem.Store(v == 7)
			w.Store32(irix.DataBase, 8) // private COW write
		}, irix.PRSFDS, 0)
		<-done
		c.Wait()
		if !sawFd.Load() {
			t.Error("PR_SFDS child did not see the descriptor")
		}
		if !sawMem.Load() {
			t.Error("child did not see COW snapshot")
		}
		if v, _ := c.Load32(irix.DataBase); v != 7 {
			t.Errorf("non-VM child's write leaked: %d", v)
		}
	})
}

func TestPublicAPISignalsAndPipes(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		r, w, err := c.Pipe()
		if err != nil {
			t.Errorf("Pipe: %v", err)
			return
		}
		pid, _ := c.Fork("child", func(cc *irix.Ctx) {
			cc.WriteString(w, irix.DataBase, "from child")
			cc.Pause() // until killed
		})
		got, err := c.ReadString(r, irix.DataBase, 16)
		if err != nil || got != "from child" {
			t.Errorf("pipe read = (%q, %v)", got, err)
		}
		c.Kill(pid, irix.SIGTERM)
		_, status, _ := c.Wait()
		if status != 128+irix.SIGTERM {
			t.Errorf("status = %d", status)
		}
	})
}

func TestPublicAPIMachTask(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		for i := 0; i < 3; i++ {
			if _, err := c.ThreadCreate("thread", func(w *irix.Ctx, arg int64) {
				w.Add32(irix.DataBase, uint32(arg+1))
			}, int64(i)); err != nil {
				t.Errorf("ThreadCreate: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			c.Wait()
		}
		if v, _ := c.Load32(irix.DataBase); v != 6 {
			t.Errorf("task sum = %d", v)
		}
	})
}

func TestPublicAPINetAndExec(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		l, err := c.NetListen("svc")
		if err != nil {
			t.Errorf("NetListen: %v", err)
			return
		}
		c.Fork("client", func(cc *irix.Ctx) {
			fd, err := cc.NetConnect("svc")
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			cc.WriteString(fd, irix.DataBase, "go")
			// Exec into a second image after the exchange.
			cc.Exec("second", func(n *irix.Ctx) {
				if n.P.InGroup() {
					t.Error("exec kept group membership")
				}
			})
		})
		fd, err := c.NetAccept(l)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if got, _ := c.ReadString(fd, irix.DataBase, 8); got != "go" {
			t.Errorf("server got %q", got)
		}
		c.Wait()
	})
}

func TestPublicAPIUnshare(t *testing.T) {
	runSys(t, irix.Config{}, func(c *irix.Ctx) {
		done := make(chan struct{})
		c.Sproc("rebel", func(w *irix.Ctx, _ int64) {
			defer close(done)
			if err := w.Unshare(irix.PRSUMASK); err != nil {
				t.Errorf("Unshare: %v", err)
			}
		}, irix.PRSALL, 0)
		<-done
		c.Wait()
	})
}

// ExampleSystem demonstrates the basic programming model for godoc.
func ExampleSystem() {
	sys := irix.New(irix.Config{NCPU: 2})
	sys.Start("example", func(c *irix.Ctx) {
		shm, _ := c.Mmap(1)
		c.Sproc("adder", func(w *irix.Ctx, arg int64) {
			w.Add32(shm, uint32(arg))
		}, irix.PRSADDR, 42)
		c.Wait()
		v, _ := c.Load32(shm)
		fmt.Println("shared word:", v)
	})
	sys.WaitIdle()
	// Output: shared word: 42
}
