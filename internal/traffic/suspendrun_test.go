package traffic

import (
	"context"
	"errors"
	"testing"

	"heteronoc/internal/noc"
	"heteronoc/internal/suspend"
)

// suspendAfter flips the controller to "suspend requested" once the
// network reaches the given cycle, via the network observer's Cycle stream
// (which runs on the stepping goroutine, so no synchronization is needed).
func suspendAfter(net *noc.Network, c *suspend.Controller, cycle int64) {
	net.SetObserver(noc.Observer{Cycle: func(cyc int64) {
		if cyc >= cycle {
			c.RequestSuspend()
		}
	}})
}

func suspendRunCfg(proc Process) RunConfig {
	return RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        proc,
		DataFlits:      6,
		WarmupPackets:  200,
		MeasurePackets: 2000,
		Seed:           7,
		SuspendKey:     "suspend-test-run",
	}
}

// TestSuspendResumeByteIdentical is the core resume-equivalence property:
// a run suspended mid-flight and resumed on a fresh network produces
// exactly the RunResult of an uninterrupted run — for the stateless
// Bernoulli process and for the stateful self-similar process (whose
// per-terminal on/off state and RNG position must both survive).
func TestSuspendResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		proc    func() Process
		suspend int64 // cycle at which to request suspension
	}{
		{"bernoulli-warmup", func() Process { return Bernoulli{P: 0.01} }, 100},
		{"bernoulli-measure", func() Process { return Bernoulli{P: 0.01} }, 2000},
		{"selfsimilar-measure", func() Process { return NewSelfSimilar(64, 0.01) }, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Control: uninterrupted run.
			net, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(net, suspendRunCfg(tc.proc()))
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: suspend at tc.suspend cycles...
			dir := t.TempDir()
			ctrl := suspend.NewController(dir)
			ctx := suspend.WithController(context.Background(), ctrl)
			net2, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			suspendAfter(net2, ctrl, tc.suspend)
			_, err = RunCtx(ctx, net2, suspendRunCfg(tc.proc()))
			if !errors.Is(err, suspend.ErrSuspended) {
				t.Fatalf("interrupted run: err = %v, want ErrSuspended", err)
			}
			if saves, _ := ctrl.Stats(); saves != 1 {
				t.Fatalf("saves = %d, want 1", saves)
			}

			// ...then resume on a fresh network with a fresh controller
			// over the same directory (a restarted server).
			ctrl2 := suspend.NewController(dir)
			ctx2 := suspend.WithController(context.Background(), ctrl2)
			net3, err := buildBaseline()
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunCtx(ctx2, net3, suspendRunCfg(tc.proc()))
			if err != nil {
				t.Fatal(err)
			}
			if _, resumes := ctrl2.Stats(); resumes != 1 {
				t.Fatalf("resumes = %d, want 1", resumes)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
			}
			// The checkpoint must be consumed: a third run starts fresh.
			if _, ok := ctrl2.Load(suspendRunCfg(tc.proc()).SuspendKey); ok {
				t.Error("checkpoint not cleared after successful resume")
			}
		})
	}
}

func resultsEqual(a, b RunResult) bool {
	if a.Cycles != b.Cycles || a.AvgLatency != b.AvgLatency || a.AvgHops != b.AvgHops ||
		a.AcceptedRate != b.AcceptedRate || a.OfferedRate != b.OfferedRate ||
		a.CombineRate != b.CombineRate || a.Saturated != b.Saturated ||
		a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 ||
		a.QueuingLatency != b.QueuingLatency || a.BlockingLatency != b.BlockingLatency ||
		a.TransferLatency != b.TransferLatency || len(a.Activity) != len(b.Activity) {
		return false
	}
	for i := range a.Activity {
		if a.Activity[i] != b.Activity[i] {
			return false
		}
	}
	return true
}

// TestCancellationBounded pins the acceptance criterion that a cancelled
// run stops within one cycle batch: cancel at cycle 5000 and assert the
// network never advanced past 5000+CancelBatch.
func TestCancellationBounded(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5000
	net.SetObserver(noc.Observer{Cycle: func(c int64) {
		if c == cancelAt {
			cancel()
		}
	}})
	_, err = RunCtx(ctx, net, RunConfig{
		Pattern:        UniformRandom{N: 64},
		Process:        Bernoulli{P: 0.01},
		DataFlits:      6,
		WarmupPackets:  1 << 30, // never satisfied: only cancellation stops it
		MeasurePackets: 1,
		Seed:           3,
		MaxCycles:      1 << 40,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := net.Cycle(); c > cancelAt+CancelBatch {
		t.Errorf("network reached cycle %d, want <= %d (cancel + one batch)", c, cancelAt+CancelBatch)
	}
}

// TestSuspendUnsupportedProcessFallsBack: a process that cannot be
// serialized must not wedge the run — it keeps simulating and stops via
// its context instead.
type opaqueProcess struct{ Bernoulli }

func (opaqueProcess) Name() string { return "opaque" }

func TestSuspendUnsupportedProcessFallsBack(t *testing.T) {
	ctrl := suspend.NewController(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	ctx = suspend.WithController(ctx, ctrl)
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	ctrl.RequestSuspend()
	net.SetObserver(noc.Observer{Cycle: func(c int64) {
		if c == 3*CancelBatch {
			cancel()
		}
	}})
	cfg := suspendRunCfg(opaqueProcess{Bernoulli{P: 0.01}})
	_, err = RunCtx(ctx, net, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (fallback)", err)
	}
	if saves, _ := ctrl.Stats(); saves != 0 {
		t.Errorf("saves = %d, want 0 for unsupported process", saves)
	}
}

// TestResumeCorruptCheckpointStartsFresh: a corrupted checkpoint is not
// loadable (suspend.Load deletes it), so the run silently starts over and
// still matches the uninterrupted control.
func TestResumeCorruptCheckpointStartsFresh(t *testing.T) {
	net, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	cfg := suspendRunCfg(Bernoulli{P: 0.01})
	want, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctrl := suspend.NewController(t.TempDir())
	if err := ctrl.Save(cfg.SuspendKey, []byte("NOCCKPT01 garbage that fails validation")); err == nil {
		// Save does not validate; Load must reject it.
		if _, ok := ctrl.Load(cfg.SuspendKey); ok {
			t.Fatal("corrupt checkpoint loaded")
		}
	}
	ctx := suspend.WithController(context.Background(), ctrl)
	net2, err := buildBaseline()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(ctx, net2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("fresh-start result differs:\n got %+v\nwant %+v", got, want)
	}
}
