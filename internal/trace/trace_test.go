package trace

import (
	"sync"
	"testing"
)

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Record(EvFault, 1, 0, 0x1000, 0)
	if ev, dropped := r.Snapshot(); ev != nil || dropped != 0 {
		t.Fatal("nil ring returned events")
	}
	if r.Len() != 0 || r.CountKind(EvFault) != 0 {
		t.Fatal("nil ring has length")
	}
}

func TestRecordSnapshotOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(EvDispatch, int32(i), 0, uint64(i), 0)
	}
	ev, dropped := r.Snapshot()
	if dropped != 0 || len(ev) != 5 {
		t.Fatalf("snapshot = %d events, %d dropped", len(ev), dropped)
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) || e.PID != int32(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestWrapAroundKeepsNewest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(EvFault, int32(i), 0, 0, 0)
	}
	ev, dropped := r.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if ev[0].PID != 6 || ev[3].PID != 9 {
		t.Fatalf("wrong window: %v..%v", ev[0].PID, ev[3].PID)
	}
	// Sequence stays strictly increasing across the wrap.
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatal("sequence gap inside window")
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(EvDispatch, id, 0, uint64(i), 0)
			}
		}(int32(g))
	}
	wg.Wait()
	ev, dropped := r.Snapshot()
	if len(ev) != 800 || dropped != 0 {
		t.Fatalf("events=%d dropped=%d", len(ev), dropped)
	}
	seen := map[uint64]bool{}
	for _, e := range ev {
		if seen[e.Seq] {
			t.Fatal("duplicate sequence number")
		}
		seen[e.Seq] = true
	}
}

func TestKindStrings(t *testing.T) {
	if EvFault.String() != "fault" || EvShootdown.String() != "shootdown" {
		t.Fatal("kind names")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
	e := Event{Seq: 3, Kind: EvSignal, PID: 7, CPU: 1, Arg: 15}
	if e.String() == "" {
		t.Fatal("event string empty")
	}
}
