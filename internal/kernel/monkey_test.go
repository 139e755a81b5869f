package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fs"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// TestMonkey drives pseudo-random (seeded, reproducible) syscall sequences
// through share groups and checks the global invariants afterwards: no
// frame leaks, no inode leaks beyond the namespace, no proc-table leaks,
// and the kernel never wedges.
func TestMonkey(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMonkey(t, seed)
		})
	}
}

func runMonkey(t *testing.T, seed int64) {
	cfg := testConfig()
	cfg.MaxProcs = 64
	s := NewSystem(cfg)

	s.Start("monkey", func(c *Context) {
		rng := rand.New(rand.NewSource(seed))
		var body func(cc *Context, depth int, rng *rand.Rand)
		body = func(cc *Context, depth int, rng *rand.Rand) {
			kids := 0
			for step := 0; step < 60; step++ {
				switch rng.Intn(14) {
				case 0: // open/write/close a random file
					path := fmt.Sprintf("/m%d", rng.Intn(8))
					fd, err := cc.Open(path, fs.ORead|fs.OWrite|fs.OCreat, 0o644)
					if err == nil {
						cc.WriteString(fd, vm.DataBase, "x")
						if rng.Intn(4) > 0 {
							cc.Close(fd)
						}
					}
				case 1: // unlink
					cc.Unlink(fmt.Sprintf("/m%d", rng.Intn(8)))
				case 2: // mmap / munmap churn
					if va, err := cc.Mmap(1 + rng.Intn(3)); err == nil {
						cc.Store32(va, uint32(step))
						if rng.Intn(2) == 0 {
							cc.Munmap(va)
						}
					}
				case 3: // sbrk wiggle
					if _, err := cc.Sbrk(hw.PageSize); err == nil && rng.Intn(2) == 0 {
						cc.Sbrk(-hw.PageSize)
					}
				case 4: // touch memory
					cc.Store32(vm.DataBase+hw.VAddr(4*rng.Intn(1024)), uint32(step))
				case 5: // umask / ulimit churn (propagates in groups)
					cc.Umask(uint16(rng.Intn(0o777)))
				case 6: // chdir between / and a made dir
					cc.Mkdir("/d", 0o755)
					if rng.Intn(2) == 0 {
						cc.Chdir("/d")
					} else {
						cc.Chdir("/")
					}
				case 7: // dup / dup2
					if fd, err := cc.Open("/m0", fs.ORead|fs.OCreat, 0o644); err == nil {
						if d, err := cc.Dup(fd); err == nil && rng.Intn(2) == 0 {
							cc.Close(d)
						}
						cc.Close(fd)
					}
				case 8: // signals to self (handled)
					cc.Signal(proc.SIGUSR1, func(int) {})
					cc.Kill(cc.Getpid(), proc.SIGUSR1)
				case 9: // sproc a child that runs a shorter monkey
					if depth < 2 && kids < 3 {
						mask := proc.Mask(rng.Uint32()) & proc.PRSALL
						childSeed := rng.Int63()
						_, err := cc.Sproc("m", func(k *Context, _ int64) {
							body(k, depth+1, rand.New(rand.NewSource(childSeed)))
						}, mask, 0)
						if err == nil {
							kids++
						}
					}
				case 10: // fork a child that runs a shorter monkey
					if depth < 2 && kids < 3 {
						childSeed := rng.Int63()
						_, err := cc.Fork("f", func(k *Context) {
							body(k, depth+1, rand.New(rand.NewSource(childSeed)))
						})
						if err == nil {
							kids++
						}
					}
				case 11: // reap if available (never block: scan first)
					if kids > 0 {
						if _, _, err := cc.Wait(); err == nil {
							kids--
						}
					}
				case 12: // pipes
					if r, w, err := cc.Pipe(); err == nil {
						cc.WriteString(w, vm.DataBase, "p")
						cc.Read(r, vm.DataBase+64, 1)
						cc.Close(r)
						cc.Close(w)
					}
				case 13: // unshare something, sometimes
					if cc.P.InGroup() && rng.Intn(4) == 0 {
						cc.Unshare(proc.Mask(rng.Uint32()) & (proc.PRSUMASK | proc.PRSULIMIT | proc.PRSID))
					}
				}
			}
			for kids > 0 {
				if _, _, err := cc.Wait(); err != nil {
					break
				}
				kids--
			}
		}
		body(c, 0, rng)
	})
	waitIdle(t, s)
}
