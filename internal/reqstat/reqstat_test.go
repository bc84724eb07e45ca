package reqstat

import (
	"context"
	"sync"
	"testing"
)

func counts(c *Collector) [4]int64 {
	return [4]int64{c.CacheHits.Load(), c.CacheMisses.Load(), c.Executions.Load(), c.Cycles.Load()}
}

// TestChargesOnlyTheContextCollector: every charge lands on the Collector
// of the context it was made with, never on another request's.
func TestChargesOnlyTheContextCollector(t *testing.T) {
	var a, b Collector
	ctxA := WithCollector(context.Background(), &a)
	ctxB := WithCollector(context.Background(), &b)
	if FromContext(ctxA) != &a || FromContext(ctxB) != &b {
		t.Fatal("FromContext does not return the attached Collector")
	}
	Hit(ctxA)
	Hit(ctxA)
	Miss(ctxA)
	Exec(ctxA)
	AddCycles(ctxA, 100)
	AddCycles(ctxB, 7)
	if got, want := counts(&a), [4]int64{2, 1, 1, 100}; got != want {
		t.Errorf("collector A = %v, want %v", got, want)
	}
	if got, want := counts(&b), [4]int64{0, 0, 0, 7}; got != want {
		t.Errorf("collector B = %v, want %v", got, want)
	}
}

// TestNoCollectorIsNoop: library callers outside the serve path charge a
// context with no Collector (or a nil one); nothing panics and nothing is
// charged.
func TestNoCollectorIsNoop(t *testing.T) {
	for _, ctx := range []context.Context{
		context.Background(),
		WithCollector(context.Background(), nil),
	} {
		if FromContext(ctx) != nil {
			t.Fatalf("FromContext = %v, want nil", FromContext(ctx))
		}
		Hit(ctx)
		Miss(ctx)
		Exec(ctx)
		AddCycles(ctx, 10)
	}
}

// TestGlobalProgressMonotonic: the watchdog signal advances on every
// AddCycles (even a zero-cycle batch) and never moves backwards while
// requests charge it concurrently.
func TestGlobalProgressMonotonic(t *testing.T) {
	ctx := context.Background()
	g0 := GlobalProgress()
	AddCycles(ctx, 0)
	g1 := GlobalProgress()
	if g1 <= g0 {
		t.Fatalf("zero-cycle batch: progress %d -> %d, want an advance", g0, g1)
	}
	AddCycles(ctx, 50)
	if g2 := GlobalProgress(); g2-g1 < 51 {
		t.Fatalf("50-cycle batch advanced progress by %d, want at least 51", g2-g1)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				AddCycles(ctx, int64(i%3))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := GlobalProgress()
	for {
		select {
		case <-done:
			if end := GlobalProgress(); end < last {
				t.Fatalf("progress went backwards: %d -> %d", last, end)
			}
			return
		default:
		}
		cur := GlobalProgress()
		if cur < last {
			t.Fatalf("progress went backwards: %d -> %d", last, cur)
		}
		last = cur
	}
}
