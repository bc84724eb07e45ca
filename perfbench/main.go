// Command perfbench is the repository's end-to-end benchmark: it measures
// how fast the simulator and the nocserved run server do the work the
// paper's figures need, and checks every simulated output against recorded
// digests. Run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload noc-sweep|cmp-apps|serve-eval \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
// per-layer metrics, computed from spans the benchmark records around each
// call into the program, and the spans are written as a Chrome trace under
// .bench_build/traces/. A failed operation (a digest mismatch, a request
// that fails after retries) makes the exit code 1. See README.md for the
// workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]metric
	spans             []span
	notes             []string // human-readable lines: sample counts, tails
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail counts a failed operation and keeps the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latency records a latency percentile pair under prefix (prefix+"_p50_ms",
// prefix+"_p90_ms") in m, with its sample count as a note.
func (o *outcome) latency(m map[string]metric, prefix string, msSamples []float64) {
	p50, p90 := percentile(msSamples, 50), percentile(msSamples, 90)
	m[prefix+"_p50_ms"] = metric{p50.Value, "ms"}
	m[prefix+"_p90_ms"] = metric{p90.Value, "ms"}
	o.note("%s: n=%d p50=%.3fms p90=%.3fms (%d samples beyond p90)", prefix, p90.Samples, p50.Value, p90.Value, p90.Beyond)
}

// env is what every workload gets.
type env struct {
	nocserved string
	seed      int64
	variant   int
	seconds   time.Duration
	trace     bool
	tmp       string // fresh scratch directory, removed at exit
	dig       *digests
}

// setupReps is how many times each workload performs its set-up; setup_s
// is the median.
const setupReps = 5

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "noc-sweep, cmp-apps or serve-eval")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "timed-phase length in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := flag.String("root", ".", "repository root (inputs, BENCHMARK.json, scratch under .bench_build)")
	nocserved := flag.String("nocserved", "", "path of the nocserved binary (serve-eval)")
	record := flag.Bool("record", false, "recompute every variant's expected digests into perfbench/digests.json")
	flag.Parse()

	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base := filepath.Join(rootAbs, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	name := *workload
	if *record {
		name = "record"
	}
	tmp, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(tmp)
	if *record {
		if err := recordDigests(context.Background(), tmp, filepath.Join(rootAbs, "perfbench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "record:", err)
			return 1
		}
		return 0
	}
	spec, err := loadSpec(filepath.Join(rootAbs, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dig, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	e := &env{
		nocserved: *nocserved, seed: *seed,
		variant: int(((*seed % Variants) + Variants) % Variants),
		seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		tmp: tmp, dig: dig,
	}
	var o *outcome
	switch *workload {
	case "noc-sweep":
		o, err = nocSweep(context.Background(), e)
	case "cmp-apps":
		o, err = cmpApps(context.Background(), e)
	case "serve-eval":
		o, err = serveEval(context.Background(), e)
	default:
		err = fmt.Errorf("unknown -workload %q (want noc-sweep, cmp-apps or serve-eval)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	host := collectHost(rootAbs)
	want, got := spec.EndToEnd, o.e2e
	if e.trace {
		want, got = spec.PerLayer, o.layer
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !e.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not produce end-to-end metric %s\n", *workload, m.Name)
			return 1
		}
		if !ok {
			// eval_p90_ms is computed with the end-to-end latencies but
			// listed per layer: a tail moves too much with other load on
			// the host to hold a regression bound. A per-layer metric of
			// a layer this workload never calls reads 0.
			v = o.e2e[m.Name]
		}
		metrics[m.Name] = metric{v.Value, m.Unit}
	}
	report(os.Stdout, *workload, e, host, o, metrics)
	if e.trace {
		if err := writeTraceFiles(rootAbs, *workload, *seed, host, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json this program reads: the metric
// names and units each mode must report.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report prints the human-readable summary that precedes the JSON line.
func report(w io.Writer, workload string, e *env, host hostFacts, o *outcome, metrics map[string]metric) {
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d variant=%d seconds=%.0f %s\n", workload, e.seed, e.variant, e.seconds.Seconds(), mode)
	fmt.Fprintf(w, "host: %s\n", host)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if e.trace {
		fmt.Fprintln(w, "per-layer self time (traced operations):")
		writeSelfTable(w, selfTimes(o.spans))
	}
}

// writeTraceFiles writes the spans as a Chrome trace plus a JSON summary
// (host facts, self-time table, per-layer metrics) under
// .bench_build/traces/.
func writeTraceFiles(root, workload string, seed int64, host hostFacts, o *outcome) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChrome(f, o.spans, "perfbench "+workload); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	type selfRow struct {
		Span    string  `json:"span"`
		Count   int     `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	var rows []selfRow
	for _, lt := range selfTimes(o.spans) {
		rows = append(rows, selfRow{lt.Name, lt.Count, ms(lt.Total), ms(lt.Self)})
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "host": host,
		"self_time": rows, "per_layer": o.layer, "notes": o.notes,
	}, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s.trace.json, %s.summary.json\n", stem, stem)
	return os.WriteFile(stem+".summary.json", append(b, '\n'), 0o644)
}
