// Parallel implements the paper's §3 parallel-programming model: a
// preallocated pool of share-group processes self-scheduling work from
// shared memory with busy-wait synchronization, computing π by the
// rectangle rule. "The scheduling model used in such applications is
// self-scheduling, in which an independent task waits for work to be
// queued, and competes for that work with other tasks."
package main

import (
	"fmt"
	"log"

	irix "repro"
)

const (
	workers    = 4
	rectangles = 4096
	chunk      = 64
	scale      = 1 << 28 // fixed-point scale for the accumulated sum
)

func main() {
	sys := irix.New(irix.Config{NCPU: 4})

	sys.Start("pi", func(c *irix.Ctx) {
		shm, err := c.Mmap(1)
		if err != nil {
			log.Fatal(err)
		}
		cursor := irix.Counter{VA: shm} // next chunk to claim
		acc := shm + 8                  // fixed-point sum of f(x_i)/N

		// Preallocate the pool before entering the parallel section, so
		// creation cost is off the critical path (paper §3).
		for w := 0; w < workers; w++ {
			if _, err := c.Sproc("pi-worker", worker(cursor, acc), irix.PRSALL, int64(w)); err != nil {
				log.Fatal(err)
			}
		}
		for w := 0; w < workers; w++ {
			if _, _, err := c.Wait(); err != nil {
				log.Fatal(err)
			}
		}

		sum, _ := c.Load32(acc)
		pi := float64(sum) / scale
		fmt.Printf("pi ≈ %.6f (%d rectangles, %d self-scheduling workers)\n", pi, rectangles, workers)

		// Show that the work really spread across the machine.
		fmt.Println("simulated CPU cycle distribution:")
		for _, cpu := range c.S.Machine.CPUs {
			fmt.Printf("  cpu%d: %12d cycles, %d context switches\n",
				cpu.ID, cpu.Cycles.Load(), cpu.Count(irix.ContextSwitch))
		}
	})

	sys.WaitIdle()
}

// worker returns the pool member body: claim a chunk of rectangles from
// the shared cursor, integrate 4/(1+x²) over it, fold the fixed-point
// partial sum into the shared accumulator with the hardware interlock.
func worker(cursor irix.Counter, acc irix.VAddr) func(*irix.Ctx, int64) {
	return func(w *irix.Ctx, id int64) {
		scratch := w.StackBase() + 256 // private working storage
		for {
			n, err := cursor.Next(w)
			if err != nil {
				log.Fatalf("worker %d: %v", id, err)
			}
			first := (int(n) - 1) * chunk
			if first >= rectangles {
				return
			}
			var partial uint32
			for i := first; i < first+chunk && i < rectangles; i++ {
				x := (float64(i) + 0.5) / rectangles
				f := 4.0 / (1.0 + x*x)
				term := uint32(f * scale / rectangles)
				// Stage the term through simulated memory: the model's
				// work is memory traffic, not host floating point.
				if err := w.Store32(scratch, term); err != nil {
					log.Fatalf("worker %d store: %v", id, err)
				}
				v, _ := w.Load32(scratch)
				partial += v
			}
			if _, err := w.Add32(acc, partial); err != nil {
				log.Fatalf("worker %d add: %v", id, err)
			}
		}
	}
}
