package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteronoc/internal/core"
	"heteronoc/internal/dse"
	"heteronoc/internal/noc"
	"heteronoc/internal/runcache"
)

// stubEvaluator scores candidates from their router sets alone, so a
// real frontier file can be written without simulating.
type stubEvaluator struct{}

func (stubEvaluator) EvaluateBatch(_ context.Context, _ dse.EvalConfig, sets [][]int) ([]dse.Candidate, error) {
	out := make([]dse.Candidate, len(sets))
	for i, s := range sets {
		sum := 0
		for _, v := range s {
			sum += v
		}
		out[i] = dse.Candidate{Big: s, AvgLatency: float64(sum), LatencyNS: float64(sum) / 2,
			PowerW: float64(len(s)), AreaMM2: float64(len(s))}
	}
	return out, nil
}

// artifacts writes one real file of every container kind the repository
// produces: a network checkpoint (what noxsim -ckptout writes), a
// run-cache disk entry, a search frontier and a flit trace.
func artifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths := map[string]string{}

	net, err := core.NewBaseline(4, 4).Network()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.Step()
	}
	snap, err := net.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	paths[noc.KindNetwork] = filepath.Join(dir, "net.ckpt")
	if err := os.WriteFile(paths[noc.KindNetwork], snap, 0o644); err != nil {
		t.Fatal(err)
	}

	runcache.Reset()
	cacheDir := filepath.Join(dir, "cache")
	if err := runcache.SetDir(cacheDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runcache.SetDir(""); runcache.Reset() })
	if _, err := runcache.For("ckpttool-kinds", func() ([]int, error) { return []int{1, 2, 3}, nil }); err != nil {
		t.Fatal(err)
	}
	rc, _ := filepath.Glob(filepath.Join(cacheDir, "*.rc"))
	if len(rc) != 1 {
		t.Fatalf("run cache wrote %d entries, want 1", len(rc))
	}
	paths["runcache"] = rc[0]

	paths["dse-frontier"] = filepath.Join(dir, "search.hndse")
	if _, err := dse.Search(dse.SearchConfig{
		Eval:   dse.EvalConfig{W: 4, H: 4, InjectionRate: 0.05, Packets: 200, Seed: 3},
		MinBig: 3, MaxBig: 5, PopSize: 4, Generations: 2, Seed: 1,
		FrontierPath: paths["dse-frontier"], Evaluator: stubEvaluator{},
	}); err != nil {
		t.Fatal(err)
	}

	var flt bytes.Buffer
	if err := noc.NewFlitTracer(16, noc.FlitTracerConfig{}).WriteBinary(&flt); err != nil {
		t.Fatal(err)
	}
	paths["flit-trace"] = filepath.Join(dir, "run.flt")
	if err := os.WriteFile(paths["flit-trace"], flt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestValidateEveryContainerKind: validate accepts every artifact kind on
// disk and rejects a truncated copy of each.
func TestValidateEveryContainerKind(t *testing.T) {
	dir := t.TempDir()
	for kind, p := range artifacts(t, dir) {
		if !validate([]string{p}) {
			t.Fatalf("%s: valid %s rejected", kind, p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{len(data) - 1, len(data) / 2} {
			bad := filepath.Join(dir, fmt.Sprintf("%s-cut%d", kind, cut))
			if err := os.WriteFile(bad, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if validate([]string{bad}) {
				t.Fatalf("%s: truncated copy (%d of %d bytes) validated", kind, cut, len(data))
			}
		}
	}
}
