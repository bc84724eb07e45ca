package noc

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestObserverShardedMatchesSequential: a network with an Observer runs
// the sequential kernel whatever its shard worker count, so every stream
// sees the same records in the same order at 0, 2 and 5 workers, and the
// callbacks are never called from two shards at once (go test -race). The
// AttrHop-only observer is the case that used to run inside sharded passes.
func TestObserverShardedMatchesSequential(t *testing.T) {
	type capture struct {
		flits  []FlitRecord
		hops   []AttrHopRec
		cycles int64
	}
	run := func(workers int, attrOnly bool) capture {
		n := newHeteroMeshNet(t)
		if workers > 0 {
			n.SetShardWorkers(workers)
			defer n.Close()
			if got := n.ShardWorkers(); got != workers {
				t.Fatalf("ShardWorkers = %d, want %d", got, workers)
			}
		}
		ft := NewNetworkFlitTracer(n, FlitTracerConfig{})
		at := NewAttrTrace(1 << 16)
		var cycles int64
		o := Observer{Packet: ft.Record, Detail: ft.Record, AttrHop: at.AttrHop,
			Cycle: func(int64) { cycles++ }}
		if attrOnly {
			o = Observer{AttrHop: at.AttrHop}
		}
		n.SetObserver(o)
		injectMixedLoad(t, n, 11, 600, 0.05)
		runUntilQuiesced(t, n, 200000)
		if ft.Dropped() != 0 || at.Dropped() != 0 {
			t.Fatalf("%d workers: rings dropped %d flit / %d hop records", workers, ft.Dropped(), at.Dropped())
		}
		return capture{ft.Records(), at.Records(), cycles}
	}
	for _, attrOnly := range []bool{false, true} {
		want := run(0, attrOnly)
		if len(want.hops) == 0 || !attrOnly && (len(want.flits) == 0 || want.cycles == 0) {
			t.Fatalf("attrOnly=%v: sequential run observed %d flit records, %d hop records, %d cycles",
				attrOnly, len(want.flits), len(want.hops), want.cycles)
		}
		for _, workers := range []int{2, 5} {
			got := run(workers, attrOnly)
			if !reflect.DeepEqual(got.flits, want.flits) {
				t.Errorf("attrOnly=%v, %d workers: flit records differ from the sequential run", attrOnly, workers)
			}
			if !reflect.DeepEqual(got.hops, want.hops) {
				t.Errorf("attrOnly=%v, %d workers: attribution records differ from the sequential run", attrOnly, workers)
			}
			if got.cycles != want.cycles {
				t.Errorf("attrOnly=%v, %d workers: %d Cycle calls, sequential made %d", attrOnly, workers, got.cycles, want.cycles)
			}
		}
	}
}

// TestCloseReleasesPoolGoroutines pins the shard pool's lifecycle: Close
// joins the worker goroutines, is idempotent, and leaves the network
// usable sequentially. This is the leak-audit companion to the
// experiments package's end-to-end goroutine test — the shard pool is the
// only construct in the simulator that outlives a Step call.
func TestCloseReleasesPoolGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	n := newMeshNet(t)
	n.SetShardWorkers(4)
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 4})
	for i := 0; i < 50; i++ {
		n.Step()
	}
	n.Close()
	n.Close() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d after Close", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The closed network keeps stepping on the sequential kernel.
	cyc := n.Cycle()
	for i := 0; i < 20; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Cycle() != cyc+20 {
		t.Fatalf("network stopped advancing after Close: %d -> %d", cyc, n.Cycle())
	}

	// Re-arming sharding after Close works too.
	n.SetShardWorkers(2)
	defer n.Close()
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
}
