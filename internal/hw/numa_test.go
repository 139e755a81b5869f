package hw

import (
	"sync"
	"testing"
)

func TestTopologyNodeOf(t *testing.T) {
	topo := NewTopology(64, 8)
	if topo.CPUsPerNode() != 8 {
		t.Fatalf("CPUsPerNode = %d, want 8", topo.CPUsPerNode())
	}
	for cpu := 0; cpu < 64; cpu++ {
		if got, want := topo.NodeOf(cpu), cpu/8; got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", cpu, got, want)
		}
	}
	// Out-of-range ids (the no-affinity paths) land on node 0.
	if topo.NodeOf(-1) != 0 || topo.NodeOf(64) != 0 {
		t.Fatalf("out-of-range NodeOf not clamped to 0")
	}
	// Clamping: more nodes than CPUs collapses to one node per CPU.
	if n := NewTopology(4, 16).Nodes; n != 4 {
		t.Fatalf("NewTopology(4,16).Nodes = %d, want 4", n)
	}
	if n := NewTopology(8, 0).Nodes; n != 1 {
		t.Fatalf("NewTopology(8,0).Nodes = %d, want 1", n)
	}
}

func TestTopologyNodeOrder(t *testing.T) {
	topo := NewTopology(32, 4)
	cases := map[int][]int{
		0: {0, 1, 2, 3},
		1: {1, 0, 2, 3},
		2: {2, 1, 3, 0},
		3: {3, 2, 1, 0},
	}
	for node, want := range cases {
		got := topo.NodeOrder(node)
		if len(got) != len(want) {
			t.Fatalf("NodeOrder(%d) = %v, want %v", node, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NodeOrder(%d) = %v, want %v", node, got, want)
			}
		}
	}
}

func TestNodeOfPFNPartition(t *testing.T) {
	// 103 frames over 4 nodes: 26,26,26,25 — NodeOfPFN must agree with the
	// pool bounds exactly.
	m := NewMemory(103)
	m.AttachTopology(NewTopology(16, 4))
	counts := make([]int, 4)
	prev := 0
	for f := 0; f < 103; f++ {
		n := m.NodeOfPFN(PFN(f))
		if n < prev {
			t.Fatalf("NodeOfPFN not monotone at frame %d", f)
		}
		prev = n
		counts[n]++
	}
	want := []int{26, 26, 26, 25}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("node %d owns %d frames, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	for _, st := range m.NodeOccupancy() {
		if st.Capacity != want[st.Node] {
			t.Fatalf("pool %d capacity %d, want %d", st.Node, st.Capacity, want[st.Node])
		}
	}
}

func TestAllocLocalityAndFallback(t *testing.T) {
	// 4 nodes x 64 frames, 8 CPUs (2 per node). A CPU's allocations come
	// from its home node until that node is dry, then from the nearest
	// neighbour.
	m := NewMemory(256)
	m.AttachTopology(NewTopology(8, 4))

	// CPU 6 lives on node 3 (frames 192..255).
	var got []PFN
	for i := 0; i < 48; i++ {
		pfn, err := m.AllocOn(6)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		if n := m.NodeOfPFN(pfn); n != 3 {
			t.Fatalf("alloc %d: frame %d homed on node %d, want 3", i, pfn, n)
		}
		got = append(got, pfn)
	}
	if m.RemoteTakes.Load() != 0 {
		t.Fatalf("remote takes before exhaustion: %d", m.RemoteTakes.Load())
	}

	// Drain the rest of node 3 (64 - 48 allocated; cached frames count as
	// node-3 stock, so keep allocating until a remote frame shows up).
	for i := 0; i < 64; i++ {
		pfn, err := m.AllocOn(6)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		got = append(got, pfn)
		if m.NodeOfPFN(pfn) != 3 {
			// First spill must land on the nearest node, 2.
			if n := m.NodeOfPFN(pfn); n != 2 {
				t.Fatalf("spill went to node %d, want nearest node 2", n)
			}
			if m.RemoteTakes.Load() == 0 {
				t.Fatalf("remote take not counted")
			}
			// Free everything and verify conservation.
			for _, p := range got {
				m.DecRefOn(p, 6)
			}
			if m.InUse() != 0 {
				t.Fatalf("InUse = %d after freeing all", m.InUse())
			}
			return
		}
	}
	t.Fatalf("node 3 never ran dry after %d allocations", len(got))
}

func TestNodeBlindIgnoresLocality(t *testing.T) {
	m := NewMemory(256)
	m.AttachTopology(NewTopology(8, 4))
	m.NodeBlind = true
	nodes := make(map[int]bool)
	var frames []PFN
	for i := 0; i < 8; i++ {
		// Bypass the per-CPU cache (cpu=-1) so every allocation hits the
		// round-robin pool walk directly.
		pfn, err := m.AllocOn(-1)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		frames = append(frames, pfn)
		nodes[m.NodeOfPFN(pfn)] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("node-blind allocation stayed on %v, want round-robin spread", nodes)
	}
	for _, p := range frames {
		m.DecRef(p)
	}
}

func TestReclaimReturnsFramesHome(t *testing.T) {
	m := NewMemory(128)
	m.AttachTopology(NewTopology(4, 2))
	// Allocate and free on CPU 3 (node 1) so its cache holds node-1 frames.
	var frames []PFN
	for i := 0; i < 20; i++ {
		pfn, err := m.AllocOn(3)
		if err != nil {
			t.Fatalf("AllocOn: %v", err)
		}
		frames = append(frames, pfn)
	}
	for _, p := range frames {
		m.DecRefOn(p, 3)
	}
	moved := m.ReclaimCaches()
	if moved == 0 {
		t.Fatalf("reclaim moved nothing")
	}
	for _, st := range m.NodeOccupancy() {
		p := &m.pools[st.Node]
		p.mu.Lock()
		for _, f := range p.free {
			if m.NodeOfPFN(f) != st.Node {
				p.mu.Unlock()
				t.Fatalf("frame %d parked in pool %d but homed on %d", f, st.Node, m.NodeOfPFN(f))
			}
		}
		p.mu.Unlock()
	}
}

func TestNUMAAllocConservation(t *testing.T) {
	// Hammer a small NUMA memory from every CPU concurrently; the
	// reservation counter must guarantee progress and exact conservation
	// even when allocations constantly spill across nodes. Run with -race.
	const (
		ncpu   = 8
		frames = 96 // small enough that nodes run dry constantly
		iters  = 300
	)
	m := NewMemory(frames)
	m.AttachTopology(NewTopology(ncpu, 4))
	var wg sync.WaitGroup
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			var held []PFN
			for i := 0; i < iters; i++ {
				if len(held) < 8 {
					if pfn, err := m.AllocOn(cpu); err == nil {
						held = append(held, pfn)
						continue
					}
				}
				if len(held) > 0 {
					m.DecRefOn(held[len(held)-1], cpu)
					held = held[:len(held)-1]
				}
			}
			for _, p := range held {
				m.DecRefOn(p, cpu)
			}
		}(cpu)
	}
	wg.Wait()
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d after all frees", m.InUse())
	}
	total := 0
	for _, st := range m.NodeOccupancy() {
		total += st.Free + st.Fresh
	}
	total += m.CachedFrames()
	if total != frames {
		t.Fatalf("free+fresh+cached = %d, want %d", total, frames)
	}
}

func TestRemoteIPIAndNodePenalty(t *testing.T) {
	m := NewMachineNUMA(8, 256, 4)
	init := m.CPUs[0] // node 0
	before := init.Cycles.Load()
	m.ShootdownRange(init, 5, 1, ASID(1))
	// 7 remote CPUs: 1 same-node (cpu 1), 6 on other nodes.
	wantIPI := 7*m.Cost.IPI + 6*m.Cost.RemoteAccess
	if got := init.Cycles.Load() - before; got != wantIPI {
		t.Fatalf("shootdown charged %d cycles, want %d", got, wantIPI)
	}
	if m.RemoteIPIs.Load() != 6 {
		t.Fatalf("RemoteIPIs = %d, want 6", m.RemoteIPIs.Load())
	}

	// NodePenalty: frame 0 is node 0's; CPU 7 (node 3) pays distance 3.
	if p := m.NodePenalty(0, PFN(0)); p != 0 {
		t.Fatalf("local penalty = %d, want 0", p)
	}
	if p := m.NodePenalty(7, PFN(0)); p != 3*m.Cost.RemoteAccess {
		t.Fatalf("remote penalty = %d, want %d", p, 3*m.Cost.RemoteAccess)
	}
	if m.RemoteFills.Load() != 1 {
		t.Fatalf("RemoteFills = %d, want 1", m.RemoteFills.Load())
	}

	// A flat machine never charges the surcharge.
	flat := NewMachine(4, 64)
	if p := flat.NodePenalty(3, PFN(0)); p != 0 {
		t.Fatalf("flat machine penalty = %d, want 0", p)
	}
}
