package warm

import (
	"context"
	"fmt"
	"testing"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
)

const (
	testBench   = "SPECjbb"
	testEntries = 3000
	testCycles  = 1500
)

// testLayout is a heterogeneous 4x4 layout, so every restore goes through
// a checkpoint taken on the template's baseline layout.
func testLayout() core.Layout {
	return core.NewCustom("warmtest", 4, 4, []int{0, 5, 10, 15}, true)
}

func newSystem(t *testing.T, l core.Layout) *cmp.System {
	t.Helper()
	trs, err := trace.WorkloadTraces(testBench, l.Mesh.NumTerminals(), 128)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cmp.New(cmp.Config{Layout: l, Traces: trs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fresh isolates a test from the package-global sharing switch, counters
// and run cache, and restores the defaults afterwards.
func fresh(t *testing.T) {
	t.Helper()
	reset := func() {
		SetSharing(true)
		ResetStats()
		runcache.Reset()
	}
	reset()
	t.Cleanup(reset)
}

// state is what a warmed system must agree on: its warm checkpoint bytes,
// then every report counter and the network fingerprint after a short
// timed run.
func state(t *testing.T, s *cmp.System) string {
	t.Helper()
	snap, err := s.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(testCycles); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("snapshot %x\nreport %+v\nnetwork %x", snap, s.Snapshot(), s.Net.Fingerprint())
}

// direct is the reference: the same system warmed by replaying its own
// trace.
func direct(t *testing.T) string {
	t.Helper()
	s := newSystem(t, testLayout())
	s.Warmup(testEntries)
	return state(t, s)
}

func warmed(t *testing.T) string {
	t.Helper()
	l := testLayout()
	s := newSystem(t, l)
	System(context.Background(), s, l, testBench, testEntries)
	return state(t, s)
}

func wantStats(t *testing.T, restored, fellBack int64) {
	t.Helper()
	if r, f := Stats(); r != restored || f != fellBack {
		t.Fatalf("Stats() = %d restores, %d fallbacks; want %d, %d", r, f, restored, fellBack)
	}
}

func TestRestoredSystemEqualsDirectWarmup(t *testing.T) {
	fresh(t)
	want := direct(t)
	if got := warmed(t); got != want {
		t.Fatalf("restored system differs from a directly warmed one:\n got %.300s\nwant %.300s", got, want)
	}
	wantStats(t, 1, 0)
}

// TestCheckpointBuiltOnceThenRestored: the first run builds the template
// checkpoint, and every run, the first included, restores it.
func TestCheckpointBuiltOnceThenRestored(t *testing.T) {
	fresh(t)
	first := warmed(t)
	second := warmed(t)
	if first != second {
		t.Fatal("two restores of one checkpoint differ")
	}
	wantStats(t, 2, 0)
	if n := runcache.Execs(); n != 1 {
		t.Errorf("template warmups = %d, want 1", n)
	}
}

func TestCorruptCheckpointFallsBackToDirectWarmup(t *testing.T) {
	fresh(t)
	want := direct(t)

	tmpl := newSystem(t, core.NewBaseline(4, 4))
	tmpl.Warmup(testEntries)
	snap, err := tmpl.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)/2] ^= 0x40
	key := Key(testBench, 16, testEntries, tmpl.LineBytes(), tmpl.PrefetchEnabled())
	if _, err := runcache.For(key, func() ([]byte, error) { return snap, nil }); err != nil {
		t.Fatal(err)
	}

	if got := warmed(t); got != want {
		t.Fatalf("fallback after a corrupt checkpoint differs from a direct warmup:\n got %.300s\nwant %.300s", got, want)
	}
	wantStats(t, 0, 1)
}

func TestSharingOffWarmsDirectly(t *testing.T) {
	fresh(t)
	want := direct(t)
	SetSharing(false)
	if got := warmed(t); got != want {
		t.Fatal("direct path with sharing off differs from Warmup")
	}
	wantStats(t, 0, 0)
	if n := runcache.Len(); n != 0 {
		t.Errorf("sharing off still cached %d checkpoints", n)
	}
}
