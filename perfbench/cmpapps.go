package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"heteronoc/internal/cmp"
	"heteronoc/internal/core"
	"heteronoc/internal/runcache"
	"heteronoc/internal/trace"
	"heteronoc/internal/warm"
)

// cmp-apps: Fig 11/12-style full-system runs of a 64-tile CMP. Each job
// opens the workload's traces, builds the system, restores the shared warm
// checkpoint made during set-up and runs a fixed cycle budget.

// cmpProfiles are one commercial and one PARSEC profile, fixed. Profiles
// differ up to tenfold in instructions per host second, so letting the
// seed pick them would make the seed, not the code, set the throughput.
var cmpProfiles = []string{"SPECjbb", "ferret"}

// cmpCycles is each job's measured run in core cycles.
const cmpCycles = 4000

// cmpWarmEntries is the per-core warm-up length. It is fixed: a longer
// warm-up fills the caches further and makes every job slower to simulate,
// so a seed-chosen length would make the seed set the throughput.
const cmpWarmEntries = 15000

func cmpLayouts() []core.Layout {
	return []core.Layout{core.NewBaseline(8, 8), core.NewLayout(core.PlacementDiagonal, 8, 8, true)}
}

// cmpJob is one (profile, layout) run.
type cmpJob struct {
	bench  string
	layout core.Layout
}

func cmpJobs() []cmpJob {
	var js []cmpJob
	for _, b := range cmpProfiles {
		for _, l := range cmpLayouts() {
			js = append(js, cmpJob{b, l})
		}
	}
	return js
}

// cmpOut is one job's outputs and timings.
type cmpOut struct {
	res                     cmpResult
	netCycles               int64
	open, new, restore, run time.Duration // span durations (traced only)
	wall                    time.Duration // the whole job
}

// warmTemplates builds the shared warm checkpoint of every profile into a
// fresh runcache (memory plus a fresh disk directory) and returns the
// seconds each took.
func warmTemplates(ctx context.Context, dir string, entries int) ([]float64, error) {
	runcache.Reset()
	if err := runcache.SetDir(dir); err != nil {
		return nil, err
	}
	var secs []float64
	for _, b := range cmpProfiles {
		l := core.NewBaseline(8, 8)
		trs, err := trace.WorkloadTraces(b, l.Mesh.NumTerminals(), 128)
		if err != nil {
			return nil, err
		}
		s, err := cmp.New(cmp.Config{Layout: l, Traces: trs})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		warm.System(ctx, s, l, b, entries)
		secs = append(secs, time.Since(t0).Seconds())
		s.Net.Close()
	}
	return secs, nil
}

func runCMPJob(ctx context.Context, rec *recorder, id int, j cmpJob, entries int) (cmpOut, error) {
	var out cmpOut
	t0 := time.Now()
	root := rec.begin("job", 0, id, 0)
	defer rec.end(root)
	sp := rec.begin("trace.open", root, id, 0)
	trs, err := trace.WorkloadTraces(j.bench, j.layout.Mesh.NumTerminals(), 128)
	out.open = rec.end(sp)
	if err != nil {
		return out, err
	}
	sp = rec.begin("cmp.new", root, id, 0)
	s, err := cmp.New(cmp.Config{Layout: j.layout, Traces: trs})
	out.new = rec.end(sp)
	if err != nil {
		return out, err
	}
	defer s.Net.Close()
	sp = rec.begin("warm.restore", root, id, 0)
	warm.System(ctx, s, j.layout, j.bench, entries)
	out.restore = rec.end(sp)
	net0 := s.Net.Cycle()
	sp = rec.begin("cmp.run", root, id, 0)
	err = s.RunCtx(ctx, cmpCycles)
	out.run = rec.end(sp)
	if err != nil {
		return out, err
	}
	out.netCycles = s.Net.Cycle() - net0
	out.res = collectCMP(s)
	out.wall = time.Since(t0)
	return out, nil
}

// collectCMP sums the counters the correctness gate pins.
func collectCMP(s *cmp.System) cmpResult {
	r := cmpResult{IPC: s.AvgIPC(), NetFingerprint: s.Net.Fingerprint(), Packets: s.NetStats().PacketsReceived}
	for _, t := range s.Tiles {
		r.Insts += t.Core.Insts
		r.StallCycles += t.Core.StallCycles
		r.L1Hits += t.L1.Hits
		r.L1Misses += t.L1.Misses
		r.L2Hits += t.Home.L2Hits
		r.L2Misses += t.Home.L2Misses
		r.MemReads += t.Home.MemReads
		r.MemWrites += t.Home.MemWrites
	}
	return r
}

func cmpApps(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	jobs := cmpJobs()
	// The profile generators take no seed, so the seed only orders the jobs
	// of a round; every seed simulates the same work.
	order := rand.New(rand.NewSource(e.seed)).Perm(len(jobs))

	// Set-up: build every profile's warm checkpoint into a fresh cache.
	// The last repetition's checkpoints serve the timed jobs.
	var templates []float64
	rep := 0
	setup, err := timedSetup(func() error {
		rep++
		secs, err := warmTemplates(ctx, filepath.Join(e.tmp, fmt.Sprintf("cache%d", rep)), cmpWarmEntries)
		templates = append(templates, secs...)
		return err
	})
	if err != nil {
		return nil, err
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rec := newRecorder(e.trace)
	var (
		lat              []float64
		perRound, traced []cmpOut
	)
	restores0, _ := warm.Stats()
	id := 0
	rt, err := timedRounds(e, rec, func(round int, r *recorder) (time.Duration, error) {
		var busy time.Duration
		for _, i := range order {
			j := jobs[i]
			id++
			o.attempted++
			out, err := runCMPJob(ctx, r, id, j, cmpWarmEntries)
			if err != nil {
				return 0, fmt.Errorf("job %s on %s: %w", j.bench, j.layout.Name, err)
			}
			out.wall += collect()
			if err := check(e.dig.Cmp, i, out.res.digest()); err != nil {
				o.fail(fmt.Errorf("cmp-apps job %s on %s: %w", j.bench, j.layout.Name, err))
			}
			busy += out.wall
			lat = append(lat, ms(out.wall))
			if round == 0 {
				perRound = append(perRound, out)
			}
			if r.on {
				traced = append(traced, out)
			}
		}
		return busy, nil
	})
	if err != nil {
		return nil, err
	}
	restores, fallbacks := warm.Stats()
	if fallbacks != 0 {
		o.fail(fmt.Errorf("cmp-apps: %d warm restores fell back to a direct warm-up", fallbacks))
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	var roundCycles int64
	for _, p := range perRound {
		roundCycles += p.netCycles
	}
	o.e2e["setup_s"] = metric{setup, "s"}
	o.e2e["sim_cycles_per_s"] = metric{rt.perSecond(float64(roundCycles)), "1/s"}
	o.e2e["evals_per_s"] = metric{rt.perSecond(float64(len(jobs))), "1/s"}
	o.e2e["peak_rss_mb"] = metric{rss, "MB"}
	o.latency(o.e2e, "eval", lat)
	o.note("rounds=%d jobs/round=%d median round=%.3fs job order=%v", len(rt.busy), len(jobs), median(seconds(rt.busy)), order)

	if e.trace {
		m := o.layer
		var sum cmpResult
		var ipc float64
		for _, p := range perRound {
			sum.Insts += p.res.Insts
			sum.L1Misses += p.res.L1Misses
			sum.L2Misses += p.res.L2Misses
			sum.MemReads += p.res.MemReads
			sum.StallCycles += p.res.StallCycles
			sum.Packets += p.res.Packets
			ipc += p.res.IPC / float64(len(perRound))
		}
		m["cmp.insts"] = metric{float64(sum.Insts), "count"}
		m["cmp.ipc"] = metric{ipc, "inst/cycle"}
		m["cmp.l1_misses"] = metric{float64(sum.L1Misses), "count"}
		m["cmp.l2_misses"] = metric{float64(sum.L2Misses), "count"}
		m["cmp.mem_reads"] = metric{float64(sum.MemReads), "count"}
		m["cmp.stall_cycles"] = metric{float64(sum.StallCycles), "count"}
		m["cmp.net_packets"] = metric{float64(sum.Packets), "count"}
		m["warm.restores"] = metric{float64(restores-restores0) / float64(len(rt.busy)), "count"}
		m["warm.fallbacks"] = metric{float64(fallbacks), "count"}
		m["warm.template_s"] = metric{mean(templates), "s"}

		var runNS, cyc float64
		var opens, news, rests []float64
		for _, p := range traced {
			runNS += float64(p.run)
			cyc += cmpCycles
			opens = append(opens, ms(p.open))
			news = append(news, ms(p.new))
			rests = append(rests, ms(p.restore))
		}
		m["cmp.ns_per_cycle"] = metric{runNS / cyc, "ns"}
		m["cmp.new_ms"] = metric{mean(news), "ms"}
		m["trace.open_ms"] = metric{mean(opens), "ms"}
		m["warm.restore_ms"] = metric{mean(rests), "ms"}
		ov, err := rt.overheadPct()
		if err != nil {
			return nil, err
		}
		m["trace.overhead_pct"] = metric{ov, "%"}
		o.spans = rec.snapshot()
	}
	return o, nil
}
