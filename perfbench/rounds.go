package main

import (
	"fmt"
	"runtime"
	"time"
)

// roundTimes is the outcome of a batch workload's timed phase.
type roundTimes struct {
	// busy is each round's wall-clock time spent inside jobs, garbage
	// collection included.
	busy []time.Duration
	// traced and plain hold the busy time of each traced and untraced
	// round, for the tracing-overhead estimate.
	traced, plain []time.Duration
}

// timedRounds runs whole rounds (one pass over a workload's job list)
// until e.seconds of wall time have passed. round returns the time its
// jobs took. Every round issues the same jobs, so per-round counts repeat
// exactly. In a traced run, odd rounds record spans on rec and even rounds
// run untraced, so the two halves interleave and the overhead estimate is
// not skewed by drift over the run.
func timedRounds(e *env, rec *recorder, round func(i int, rec *recorder) (time.Duration, error)) (roundTimes, error) {
	off := newRecorder(false)
	var rt roundTimes
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds; i++ {
		r, traced := off, false
		if e.trace && i%2 == 1 {
			r, traced = rec, true
		}
		d, err := round(i, r)
		if err != nil {
			return rt, err
		}
		if traced {
			rt.traced = append(rt.traced, d)
		} else {
			rt.plain = append(rt.plain, d)
		}
		rt.busy = append(rt.busy, d)
	}
	return rt, nil
}

// perSecond converts one round's work into a rate using the median round
// time. Every round does identical work, so the median discards the rounds
// that other load on the host slowed most: time the hypervisor stole from
// a VM's vCPUs, or other tenants' cache and memory traffic.
func (rt roundTimes) perSecond(workPerRound float64) float64 {
	return workPerRound / median(seconds(rt.busy))
}

// collect runs a full garbage collection and returns how long it took. A
// batch job ends with one, and the time counts as the job's: each job pays
// for collecting the garbage it made, and the next starts from the same
// heap. Left to the pacer, collections fall at different points of a
// round in different runs: four cmp-apps runs of one seed on a 2-vCPU VM
// read 8.3 to 10.5 jobs per second, and 9.4 to 9.8 with this collection.
func collect() time.Duration {
	t0 := time.Now()
	runtime.GC()
	return time.Since(t0)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// overheadPct is the tracing overhead: mean traced round time over mean
// untraced round time, minus one, in percent.
func (rt roundTimes) overheadPct() (float64, error) {
	if len(rt.traced) == 0 || len(rt.plain) == 0 {
		return 0, fmt.Errorf("tracing overhead needs traced and untraced rounds; ran %d rounds, use more --seconds", len(rt.busy))
	}
	return 100 * (mean(seconds(rt.traced))/mean(seconds(rt.plain)) - 1), nil
}

// timedSetup runs set-up setupReps times and returns the median time in
// seconds.
func timedSetup(setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}
