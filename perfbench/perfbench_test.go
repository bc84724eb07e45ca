package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"heteronoc/internal/dse"
	"heteronoc/internal/obs"
	"heteronoc/internal/serve"
)

func TestPercentileWithSampleCounts(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // order must not matter
	cases := []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0, 1, 9},
		{50, 5.5, 5},
		{90, 9.1, 1},
		{100, 10, 0},
	}
	for _, c := range cases {
		got := percentile(xs, c.p)
		if math.Abs(got.Value-c.value) > 1e-9 || got.Samples != 10 || got.Beyond != c.beyond {
			t.Errorf("p%.0f = %+v, want value %g samples 10 beyond %d", c.p, got, c.value, c.beyond)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	// 101 samples: p90 has exactly ten beyond it, the reporting minimum.
	var big []float64
	for i := 0; i <= 100; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 90); got.Value != 90 || got.Beyond != 10 || got.Samples != 101 {
		t.Errorf("p90 of 0..100 = %+v, want 90 with 10 beyond", got)
	}
	// Ties at the percentile are not beyond it.
	if got := percentile([]float64{1, 2, 2, 2, 3}, 50); got.Value != 2 || got.Beyond != 1 {
		t.Errorf("p50 with ties = %+v, want 2 with 1 beyond", got)
	}
	if got := percentile(nil, 50); got != (pct{}) {
		t.Errorf("empty percentile = %+v", got)
	}
}

func TestDigestCheckFailsOnPerturbedResult(t *testing.T) {
	r := cmpResult{IPC: 0.0643, Insts: 32933, L1Hits: 9000, L1Misses: 812, L2Hits: 700, L2Misses: 112,
		MemReads: 112, MemWrites: 9, StallCycles: 250000, Packets: 9072, NetFingerprint: 0xfeedface}
	want := []string{hex(r.digest())}
	if err := check(want, 0, r.digest()); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	perturb := []func(*cmpResult){
		func(r *cmpResult) { r.IPC = math.Nextafter(r.IPC, 1) },
		func(r *cmpResult) { r.Insts++ },
		func(r *cmpResult) { r.L1Misses++ },
		func(r *cmpResult) { r.L2Misses-- },
		func(r *cmpResult) { r.MemReads++ },
		func(r *cmpResult) { r.NetFingerprint ^= 1 },
	}
	for i, p := range perturb {
		q := r
		p(&q)
		if err := check(want, 0, q.digest()); err == nil {
			t.Errorf("perturbation %d passed the digest check", i)
		}
	}
	if err := check(want, 1, r.digest()); err == nil {
		t.Error("an operation without a recorded digest passed")
	}

	c := dse.Candidate{Big: []int{0, 9, 18}, AvgLatency: 29.5, LatencyNS: 14.3, PowerW: 19.3, AreaMM2: 18.08}
	d := c
	d.PowerW = math.Nextafter(c.PowerW, 0)
	if candidateDigest(c) == candidateDigest(d) {
		t.Error("candidate digest ignores a one-ulp power change")
	}
	d = c
	d.Big = []int{0, 9, 19}
	if candidateDigest(c) == candidateDigest(d) {
		t.Error("candidate digest ignores the placement")
	}
	if batchDigest([]dse.Candidate{c, d}) == batchDigest([]dse.Candidate{d, c}) {
		t.Error("batch digest ignores candidate order")
	}
}

func TestClosedLoopNeverExceedsConnectionCap(t *testing.T) {
	var open, maxOpen, inFlight, maxInFlight, served atomic.Int64
	raise := func(hi *atomic.Int64, v int64) {
		for h := hi.Load(); v > h && !hi.CompareAndSwap(h, v); h = hi.Load() {
		}
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&maxInFlight, inFlight.Add(1))
		defer inFlight.Add(-1)
		var req serve.EvalRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(time.Millisecond)
		served.Add(1)
		_ = json.NewEncoder(w).Encode(serve.EvalResponse{Candidates: make([]dse.Candidate, len(req.Sets))})
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			raise(&maxOpen, open.Add(1))
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()

	const tenants = 2
	var fns []func(context.Context) error
	for i := 0; i < tenants; i++ {
		c := tenantClient(srv.URL, int64(i+1))
		fns = append(fns, func(ctx context.Context) error {
			_, err := c.Eval(ctx, serve.EvalRequest{Cfg: evalRecipe, Sets: [][]int{{1, 2}}})
			return err
		})
	}
	if err := closedLoop(context.Background(), time.Now().Add(300*time.Millisecond), fns); err != nil {
		t.Fatal(err)
	}
	if served.Load() < 20 {
		t.Fatalf("only %d requests served", served.Load())
	}
	if got := maxOpen.Load(); got > tenants {
		t.Errorf("%d connections open at once, cap %d", got, tenants)
	}
	if got := maxInFlight.Load(); got > tenants {
		t.Errorf("%d requests in flight at once, cap %d", got, tenants)
	}
}

func TestSelfTimeAndChromeTrace(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(2), End: ms(5)}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: ms(8), End: ms(9)},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if j := got["job"]; j.Self != ms(5) || j.Total != ms(10) || j.Count != 1 {
		t.Errorf("job = %+v, want self 5ms of 10ms", j)
	}
	if a := got["a"]; a.Self != ms(5) || a.Count != 2 {
		t.Errorf("a = %+v, want self 5ms over 2 calls", a)
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, spans, "test"); err != nil {
		t.Fatal(err)
	}
	// One process name, one thread name, a begin and an end per span.
	if n, err := obs.ValidateChromeTrace(&buf); err != nil || n != 2+2*len(spans) {
		t.Errorf("chrome trace: %d events, err %v; want %d", n, err, 2+2*len(spans))
	}
}
