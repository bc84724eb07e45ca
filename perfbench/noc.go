package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"heteronoc/internal/core"
	"heteronoc/internal/noc"
	"heteronoc/internal/traffic"
)

// noc-sweep: an uncached Fig 7-style load sweep on the 8x8 mesh. Each probe
// builds a fresh network (core.Layout.Network) and drives it with
// traffic.RunCtx; nothing goes through runcache, serve or cmp.

// sweepRates spans light load up to just under the baseline knee
// (~0.055 packets/node/cycle for uniform random traffic on 8x8).
var sweepRates = []float64{0.010, 0.019, 0.028, 0.037, 0.046, 0.055}

const (
	sweepWarmup  = 1000 // packets, as in the paper
	sweepMeasure = 3000
	// heavyRate splits probes into light and heavy for the per-layer
	// kernel cost.
	heavyRate = 0.03
)

// probe is one sweep point.
type probe struct {
	layout core.Layout
	rate   float64
	seed   int64
}

// sweepProbes lists a variant's probes: Baseline then Diagonal+BL, each at
// every rate. The variant sets the traffic seeds.
func sweepProbes(variant int) []probe {
	var ps []probe
	for _, l := range []core.Layout{core.NewBaseline(8, 8), core.NewLayout(core.PlacementDiagonal, 8, 8, true)} {
		for _, r := range sweepRates {
			ps = append(ps, probe{layout: l, rate: r, seed: int64(variant)*1000 + int64(len(ps)) + 1})
		}
	}
	return ps
}

// probeOut is one probe's outputs and timings.
type probeOut struct {
	probe                     probe
	fingerprint               uint64
	cycles, packets, flitHops int64
	attr                      [noc.NumAttrBuckets]int64
	build, run                time.Duration // span durations (traced only)
	wall                      time.Duration // the whole probe
}

func runProbe(ctx context.Context, rec *recorder, job int, p probe, warmup, measure int) (probeOut, error) {
	out := probeOut{probe: p}
	t0 := time.Now()
	root := rec.begin("probe", 0, job, 0)
	defer rec.end(root)
	b := rec.begin("noc.build", root, job, 0)
	net, err := p.layout.Network()
	out.build = rec.end(b)
	if err != nil {
		return out, err
	}
	defer net.Close()
	r := rec.begin("noc.run", root, job, 0)
	_, err = traffic.RunCtx(ctx, net, traffic.RunConfig{
		Pattern:        traffic.UniformRandom{N: p.layout.Mesh.NumTerminals()},
		Process:        traffic.Bernoulli{P: p.rate},
		DataFlits:      p.layout.DataPacketFlits(),
		WarmupPackets:  warmup,
		MeasurePackets: measure,
		Seed:           p.seed,
	})
	out.run = rec.end(r)
	if err != nil {
		return out, err
	}
	st := net.Stats()
	out.fingerprint = net.Fingerprint()
	out.cycles = net.Cycle()
	out.packets = st.PacketsReceived
	out.attr = st.Attribution()
	for _, a := range net.Activity() {
		out.flitHops += a.XbarFlits
	}
	out.wall = time.Since(t0)
	return out, nil
}

func nocSweep(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	probes := sweepProbes(e.variant)
	expected := e.dig.Noc[variantKey(e.variant)]

	// Set-up: build both layouts' networks and route tables and run one
	// full-size probe on each, so code, heap and arenas are warm before
	// timing.
	setup, err := timedSetup(func() error {
		for _, p := range []probe{probes[0], probes[len(sweepRates)]} {
			p.rate = heavyRate
			if _, err := runProbe(ctx, newRecorder(false), 0, p, sweepWarmup, sweepMeasure); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rec := newRecorder(e.trace)
	var (
		lat      []float64
		perRound []probeOut // outputs of the first round
		traced   []probeOut // outputs of traced rounds, probe order
	)
	job := 0
	rt, err := timedRounds(e, rec, func(round int, r *recorder) (time.Duration, error) {
		var busy time.Duration
		for i, p := range probes {
			job++
			o.attempted++
			out, err := runProbe(ctx, r, job, p, sweepWarmup, sweepMeasure)
			if err != nil {
				return 0, fmt.Errorf("probe %s @%.3f: %w", p.layout.Name, p.rate, err)
			}
			out.wall += collect()
			if err := check(expected, i, out.fingerprint); err != nil {
				o.fail(fmt.Errorf("noc-sweep probe %s @%.3f: %w", p.layout.Name, p.rate, err))
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
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	var roundCycles int64
	for _, p := range perRound {
		roundCycles += p.cycles
	}
	o.e2e["setup_s"] = metric{setup, "s"}
	o.e2e["sim_cycles_per_s"] = metric{rt.perSecond(float64(roundCycles)), "1/s"}
	o.e2e["evals_per_s"] = metric{rt.perSecond(float64(len(probes))), "1/s"}
	o.e2e["peak_rss_mb"] = metric{rss, "MB"}
	o.latency(o.e2e, "eval", lat)
	o.note("rounds=%d probes/round=%d median round=%.3fs", len(rt.busy), len(probes), median(seconds(rt.busy)))

	if e.trace {
		if err := nocLayer(o, rt, perRound, traced); err != nil {
			return nil, err
		}
		o.spans = rec.snapshot()
	}
	return o, nil
}

// nocLayer fills the per-layer metrics of noc-sweep from one round's
// outputs (exact counts) and the traced rounds' (host times).
func nocLayer(o *outcome, rt roundTimes, perRound, traced []probeOut) error {
	m := o.layer
	var cyc, pk, hops int64
	for _, p := range perRound {
		cyc += p.cycles
		pk += p.packets
		hops += p.flitHops
	}
	m["noc.cycles"] = metric{float64(cyc), "count"}
	m["noc.packets"] = metric{float64(pk), "count"}
	m["noc.flit_hops"] = metric{float64(hops), "count"}
	// Modelled stall cycles per delivered packet, per bucket and layout.
	var attr [2][noc.NumAttrBuckets]int64
	var pkts [2]int64
	for _, p := range perRound {
		h := 0
		if p.probe.layout.IsHetero() {
			h = 1
		}
		pkts[h] += p.packets
		for b := range p.attr {
			attr[h][b] += p.attr[b]
		}
	}
	for h, name := range []string{"baseline", "hetero"} {
		for b := noc.AttrBucket(0); b < noc.NumAttrBuckets; b++ {
			m[fmt.Sprintf("noc.attr.%s.%s", b, name)] = metric{float64(attr[h][b]) / float64(pkts[h]), "cycles"}
		}
	}

	// Host time per simulated router-cycle, split by layout and load.
	var runNS, rcyc, buildMS = map[string]float64{}, map[string]float64{}, []float64{}
	var allRun float64
	var allHops int64
	for _, p := range traced {
		pr := p.probe
		routerCycles := float64(p.cycles) * float64(pr.layout.Mesh.NumRouters())
		classes := []string{"baseline", "light"}
		if pr.layout.IsHetero() {
			classes[0] = "hetero"
		}
		if pr.rate > heavyRate {
			classes[1] = "heavy"
		}
		for _, c := range classes {
			runNS[c] += float64(p.run)
			rcyc[c] += routerCycles
		}
		allRun += float64(p.run)
		allHops += p.flitHops
		buildMS = append(buildMS, ms(p.build))
	}
	for _, c := range []string{"baseline", "hetero", "light", "heavy"} {
		m["noc.ns_per_router_cycle."+c] = metric{runNS[c] / rcyc[c], "ns"}
	}
	m["noc.ns_per_flit_hop"] = metric{allRun / float64(allHops), "ns"}
	m["noc.network_build_ms"] = metric{mean(buildMS), "ms"}
	ov, err := rt.overheadPct()
	if err != nil {
		return err
	}
	m["trace.overhead_pct"] = metric{ov, "%"}
	o.note("traced probes=%d", len(traced))
	return nil
}
