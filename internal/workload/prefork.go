package workload

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/proc"
)

// PreforkConfig sizes one prefork serving run (E1c).
type PreforkConfig struct {
	Conns    int // client connections to push through in total
	Workers  int // pool size the master maintains (default 4)
	Lifespan int // requests a worker serves before exiting (default 8)
	Clients  int // client processes multiplexing the connections (default 4)
	Pages    int // data pages the master dirties before spawning (default 64)
}

// PreforkMetrics reports one prefork run: the machine-level Metrics, the
// request→response latency distribution, and the lazy-creation counters
// the pool churn exercises (DESIGN.md §16).
type PreforkMetrics struct {
	Metrics
	Conns     int
	Workers   int
	Lifespan  int
	Creations int   // worker processes created over the run
	P50       int64 // median request→response latency, simcyc
	P99       int64 // 99th-percentile latency, simcyc

	LazyDups   int64 // O(1) region clones created at spawn
	LazyBreaks int64 // clones materialized by a first touch
	LazyDrops  int64 // clones that exited untouched
}

// String renders the prefork metrics compactly.
func (m PreforkMetrics) String() string {
	return fmt.Sprintf("conns=%d workers=%d lifespan=%d creations=%d p50=%d p99=%d lazydups=%d breaks=%d drops=%d %s",
		m.Conns, m.Workers, m.Lifespan, m.Creations, m.P50, m.P99,
		m.LazyDups, m.LazyBreaks, m.LazyDrops, m.Metrics.String())
}

// Prefork runs the process-pool serving workload: a master listens, then
// keeps pc.Workers COW-imaged children alive, each blocking-accepting on
// the listener inherited through the shared descriptor table and exiting
// after pc.Lifespan requests; the master reaps and re-creates workers
// until pc.Conns connections have been answered. It is the classic
// prefork/max-requests-per-child server organization, and the creation
// churn is the point: every worker generation is one lazy image
// duplication (most regions never touched before exit — LazyDrops).
// Latency is measured exactly as in Serve, so prefork rows compare
// directly against the poll and blocking organizations.
func Prefork(cfg kernel.Config, pc PreforkConfig) PreforkMetrics {
	if pc.Workers <= 0 {
		pc.Workers = 4
	}
	if pc.Lifespan <= 0 {
		pc.Lifespan = 8
	}
	if pc.Clients <= 0 {
		pc.Clients = 4
	}
	if pc.Clients > pc.Conns {
		pc.Clients = pc.Conns
	}
	if pc.Pages <= 0 {
		pc.Pages = 64
	}
	if cfg.DataPages == 0 {
		cfg.DataPages = 64 // mirror the system default so the clamp below holds
	}
	if pc.Pages > cfg.DataPages {
		pc.Pages = cfg.DataPages
	}
	if cfg.MaxFiles < pc.Conns+pc.Workers+16 {
		cfg.MaxFiles = pc.Conns + pc.Workers + 16
	}
	if cfg.MaxProcs < pc.Workers+pc.Clients+8 {
		cfg.MaxProcs = pc.Workers + pc.Clients + 8
	}
	s := newSession(cfg)
	clock := s.Sys.Machine.TotalCycles
	sc := ServeConfig{Conns: pc.Conns, Members: pc.Workers, Clients: pc.Clients}
	lat := make([][]int64, sc.Clients)

	// Worker generations: each serves exactly Lifespan accepts (the last
	// one the remainder), so the quotas sum to Conns and every accept is
	// matched by a connection.
	gens := (pc.Conns + pc.Lifespan - 1) / pc.Lifespan
	quota := make([]int, gens)
	left := pc.Conns
	for g := range quota {
		quota[g] = pc.Lifespan
		if left < pc.Lifespan {
			quota[g] = left
		}
		left -= quota[g]
	}

	s.start()
	s.Sys.Start("prefork-master", func(c *kernel.Context) {
		// Dirty the master's data image so every worker generation clones a
		// real, resident region set — the cost lazy duplication defers.
		for i := 0; i < pc.Pages; i++ {
			c.Store32(dataVA(i), uint32(i))
		}
		lfd, err := c.NetListen("serve")
		if err != nil {
			panic(err)
		}
		// Workers are sproc'd with a shared descriptor table but a private
		// COW image (no PR_SADDR): the listener is inherited the way a real
		// prefork server inherits it, while the image duplication goes down
		// the lazy path this PR adds. A worker touches only its stack, so
		// its data and text clones exit unmaterialized.
		spawn := func(g int) {
			if _, err := c.Sproc("worker", func(wc *kernel.Context, id int64) {
				va := wc.StackBase()
				for k := 0; k < quota[id]; k++ {
					fd, err := wc.NetAccept(lfd)
					if err != nil {
						panic(err)
					}
					n, err := wc.Read(fd, va, 4)
					if err != nil || n != 4 {
						panic(fmt.Sprintf("worker: bad request (%d, %v)", n, err))
					}
					wc.Write(fd, va, 4)
					wc.Close(fd)
				}
			}, proc.PRSFDS, int64(g)); err != nil {
				panic(fmt.Sprintf("prefork: spawn worker %d: %v", g, err))
			}
		}
		next := 0
		for ; next < pc.Workers && next < gens; next++ {
			spawn(next)
		}
		spawnClients(c, clock, lat, sc)

		// Reap loop: every exiting child (worker or client) is one Wait;
		// each reaped worker slot is refilled until the generations run out.
		for reaped := 0; reaped < gens+sc.Clients; reaped++ {
			if _, _, err := c.Wait(); err != nil {
				panic(err)
			}
			if next < gens {
				spawn(next)
				next++
			}
		}
		c.Close(lfd)
	})
	s.Sys.WaitIdle()
	s.stop()

	m := PreforkMetrics{
		Metrics:   s.metrics(int64(pc.Conns)),
		Conns:     pc.Conns,
		Workers:   pc.Workers,
		Lifespan:  pc.Lifespan,
		Creations: gens,
	}
	var all []int64
	for _, shard := range lat {
		all = append(all, shard...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		m.P50 = all[len(all)/2]
		m.P99 = all[len(all)*99/100]
	}
	st := s.Sys.Stats()
	m.LazyDups = st.LazyDups
	m.LazyBreaks = st.LazyBreaks
	m.LazyDrops = st.LazyDrops
	return m
}
