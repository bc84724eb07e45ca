package noc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"heteronoc/internal/routing"
	"heteronoc/internal/topology"
)

// newHeteroMeshNet builds an 8x8 mesh with a diagonal of big split-datapath
// routers, exercising wide links, combining, and the improved allocator in
// the attribution tests.
func newHeteroMeshNet(t testing.TB) *Network {
	t.Helper()
	m := topology.NewMesh(8, 8)
	routers := make([]RouterConfig, 64)
	for r := range routers {
		routers[r] = RouterConfig{VCs: 2, BufDepth: 4}
		if r%8 == r/8 { // main diagonal
			routers[r] = RouterConfig{VCs: 6, BufDepth: 8, Wide: true, SplitDatapath: true, ImprovedSA: true}
		}
	}
	n, err := New(Config{
		Topo:           m,
		Routing:        routing.NewXY(m),
		Routers:        routers,
		FlitWidthBits:  128,
		WatchdogCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// injectMixedLoad drives a deterministic mix of uniform and hotspot traffic
// hot enough to create real VC, switch and credit contention.
func injectMixedLoad(t testing.TB, n *Network, seed int64, cycles int, rate float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		for src := 0; src < 64; src++ {
			if rng.Float64() >= rate {
				continue
			}
			dst := rng.Intn(64)
			if rng.Float64() < 0.3 {
				dst = 27 // hotspot near the center
			}
			if dst == src {
				continue
			}
			flits := 6
			if rng.Float64() < 0.5 {
				flits = 1
			}
			n.Inject(&Packet{Src: src, Dst: dst, NumFlits: flits})
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAttributionExactSum pins the core invariant: for every delivered
// packet the six cause buckets sum exactly to the measured end-to-end
// latency, with no negative bucket, on both homogeneous and heterogeneous
// meshes under contention.
func TestAttributionExactSum(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Network
	}{
		{"baseline", func(tb testing.TB) *Network { return newMeshNet(tb) }},
		{"hetero-diagonal", newHeteroMeshNet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			checked := 0
			n.SetOnPacket(func(p *Packet) {
				a := p.Attribution()
				var sum int64
				for b, v := range a {
					if v < 0 {
						t.Fatalf("packet %d bucket %v negative: %d", p.ID, AttrBucket(b), v)
					}
					sum += v
				}
				if total := p.RecvCycle - p.CreateCycle; sum != total {
					t.Fatalf("packet %d: attribution sums to %d, latency %d (buckets %v)", p.ID, sum, total, a)
				}
				checked++
			})
			injectMixedLoad(t, n, 11, 3000, 0.04)
			runUntilQuiesced(t, n, 200000)
			if checked < 1000 {
				t.Fatalf("only %d packets checked", checked)
			}
			// Under this load the contention buckets must actually fire, or
			// the test proves nothing about the stall accounting.
			attr := n.Stats().Attribution()
			for _, b := range []AttrBucket{AttrVCAlloc, AttrSwitchAlloc, AttrCredit} {
				if attr[b] == 0 {
					t.Errorf("bucket %v never fired under contention", b)
				}
			}
			if res := n.Stats().AttrResidual(); res != 0 {
				t.Errorf("stats residual = %d, want 0", res)
			}
		})
	}
}

// TestAttributionRouterRollupSumsToPackets checks the per-router rollup is
// a lossless redistribution: summed over routers it equals the per-packet
// buckets summed over every delivered packet.
func TestAttributionRouterRollupSumsToPackets(t *testing.T) {
	n := newHeteroMeshNet(t)
	var fromPackets [NumAttrBuckets]int64
	n.SetOnPacket(func(p *Packet) {
		a := p.Attribution()
		for b := range a {
			fromPackets[b] += a[b]
		}
	})
	injectMixedLoad(t, n, 23, 2000, 0.04)
	runUntilQuiesced(t, n, 200000)
	var fromRouters [NumAttrBuckets]int64
	for _, ra := range n.RouterAttribution() {
		for b := range ra {
			fromRouters[b] += ra[b]
		}
	}
	if fromRouters != fromPackets {
		t.Fatalf("router rollup %v != per-packet sum %v", fromRouters, fromPackets)
	}
}

// TestAttributionObservationOnly runs the same seeded simulation with the
// counter path on and off: fingerprints (packet behavior and
// microarchitectural activity) must be bit-identical.
func TestAttributionObservationOnly(t *testing.T) {
	run := func(on bool) (uint64, uint64) {
		n := newMeshNet(t)
		n.SetAttribution(on)
		injectMixedLoad(t, n, 31, 1500, 0.05)
		runUntilQuiesced(t, n, 200000)
		return n.Fingerprint(), n.Stats().Fingerprint()
	}
	onNet, onStats := run(true)
	offNet, offStats := run(false)
	if onNet != offNet || onStats != offStats {
		t.Fatalf("attribution perturbed behavior: net %x/%x stats %x/%x", onNet, offNet, onStats, offStats)
	}
}

// TestAttributionShardInvariant requires identical per-packet attribution
// at every shard worker count — the counters must obey the same
// single-writer discipline as the kernel itself.
func TestAttributionShardInvariant(t *testing.T) {
	collect := func(workers int) map[uint64][NumAttrBuckets]int64 {
		n := newHeteroMeshNet(t)
		if workers > 0 {
			n.SetShardWorkers(workers)
			defer n.Close()
		}
		out := make(map[uint64][NumAttrBuckets]int64)
		n.SetOnPacket(func(p *Packet) { out[p.ID] = p.Attribution() })
		injectMixedLoad(t, n, 7, 1200, 0.05)
		runUntilQuiesced(t, n, 200000)
		return out
	}
	want := collect(0)
	for _, w := range []int{2, 5} {
		got := collect(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d delivered %d packets, want %d", w, len(got), len(want))
		}
		for id, a := range want {
			if got[id] != a {
				t.Fatalf("workers=%d packet %d attribution %v, want %v", w, id, got[id], a)
			}
		}
	}
}

// TestAttributionSnapshotRoundTrip suspends a contended run mid-flight and
// restores it: the resumed run's attribution (including in-flight per-hop
// scratch state) must match the uninterrupted run exactly.
func TestAttributionSnapshotRoundTrip(t *testing.T) {
	finish := func(n *Network) ([NumAttrBuckets]int64, uint64) {
		runUntilQuiesced(t, n, 200000)
		return n.Stats().Attribution(), n.Fingerprint()
	}
	ref := newHeteroMeshNet(t)
	injectMixedLoad(t, ref, 53, 800, 0.05)
	wantAttr, wantFP := finish(ref)

	n := newHeteroMeshNet(t)
	injectMixedLoad(t, n, 53, 800, 0.05)
	blob, err := n.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := newHeteroMeshNet(t)
	if err := restored.RestoreSnapshot(blob, nil); err != nil {
		t.Fatal(err)
	}
	gotAttr, gotFP := finish(restored)
	if gotFP != wantFP {
		t.Fatalf("restored fingerprint %x, want %x", gotFP, wantFP)
	}
	if gotAttr != wantAttr {
		t.Fatalf("restored attribution %v, want %v", gotAttr, wantAttr)
	}
	if res := restored.Stats().AttrResidual(); res != 0 {
		t.Errorf("restored residual = %d, want 0", res)
	}
}

// TestAttrTraceRecorder exercises the opt-in per-hop record mode: records
// reconcile with the packet buckets, the ring bounds memory, and the
// Chrome export is loadable JSON.
func TestAttrTraceRecorder(t *testing.T) {
	n := newMeshNet(t)
	tr := NewAttrTrace(1 << 16)
	n.SetObserver(Observer{AttrHop: tr.AttrHop})
	perPacket := map[uint64][3]int64{}
	n.SetOnPacket(func(p *Packet) {
		a := p.Attribution()
		perPacket[p.ID] = [3]int64{a[AttrVCAlloc], a[AttrSwitchAlloc], a[AttrCredit]}
	})
	injectMixedLoad(t, n, 3, 800, 0.05)
	runUntilQuiesced(t, n, 200000)
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d records; grow the test capacity", tr.Dropped())
	}
	got := map[uint64][3]int64{}
	for _, rec := range tr.Records() {
		cur := got[rec.Packet]
		cur[0] += int64(rec.VC)
		cur[1] += int64(rec.SA)
		cur[2] += int64(rec.Credit)
		got[rec.Packet] = cur
	}
	for id, want := range perPacket {
		if got[id] != want {
			t.Fatalf("packet %d hop records sum to %v, buckets say %v", id, got[id], want)
		}
	}

	small := NewAttrTrace(8)
	for i := 0; i < 20; i++ {
		small.AttrHop(AttrHopRec{Cycle: int64(i)})
	}
	if small.Dropped() != 12 || len(small.Records()) != 8 {
		t.Fatalf("ring kept %d records, dropped %d; want 8/12", len(small.Records()), small.Dropped())
	}
	if recs := small.Records(); recs[0].Cycle != 12 || recs[7].Cycle != 19 {
		t.Fatalf("ring kept wrong window: %v..%v", recs[0].Cycle, recs[7].Cycle)
	}

	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"traceEvents"`, `"stall_cycles"`, `"process_name"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestAttributionZeroLoad pins the bucket values of a lone packet: all
// contention buckets zero, link term exactly 1+3*(hops+1), serialization
// exactly the ideal drain of the remaining flits.
func TestAttributionZeroLoad(t *testing.T) {
	n := newMeshNet(t)
	var done *Packet
	n.SetOnPacket(func(p *Packet) { done = p })
	n.Inject(&Packet{Src: 0, Dst: 63, NumFlits: 6})
	runUntilQuiesced(t, n, 500)
	if done == nil {
		t.Fatal("packet not delivered")
	}
	a := done.Attribution()
	if a[AttrVCAlloc] != 0 || a[AttrSwitchAlloc] != 0 || a[AttrCredit] != 0 {
		t.Errorf("contention at zero load: %v", a)
	}
	if want := int64(1 + 3*(done.Hops+1)); a[AttrLink] != want {
		t.Errorf("link = %d, want %d", a[AttrLink], want)
	}
	if want := int64(5); a[AttrSerialization] != want {
		t.Errorf("serialization = %d, want %d (6 flits on narrow links)", a[AttrSerialization], want)
	}
}
