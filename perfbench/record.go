package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"heteronoc/internal/dse"
	"heteronoc/internal/runcache"
)

// writeBatches is how many serve-eval write batches digests.json records,
// shared by all variants. A variant's run may use all of them before it
// fails; see writeStart.
const writeBatches = 1200

// recordDigests computes every variant's expected outputs in-process,
// through the same public functions the workloads call (the serve-eval
// digests through dse.LocalEvaluator, the code /eval runs), and writes
// them to path; tmp holds the warm-checkpoint caches. Run it only when a
// change is meant to alter simulated results; the benchmark is then rebuilt
// with the new file embedded.
func recordDigests(ctx context.Context, tmp, path string) error {
	d := &digests{Noc: map[string][]string{}, Pool: map[string][]string{}}
	off := newRecorder(false)
	if _, err := warmTemplates(ctx, filepath.Join(tmp, "cache"), cmpWarmEntries); err != nil {
		return err
	}
	for _, j := range cmpJobs() {
		out, err := runCMPJob(ctx, off, 0, j, cmpWarmEntries)
		if err != nil {
			return err
		}
		d.Cmp = append(d.Cmp, hex(out.res.digest()))
	}
	// Every placement below is distinct; memoizing them would only hold
	// memory.
	if err := runcache.SetDir(""); err != nil {
		return err
	}
	runcache.SetEnabled(false)
	for v := 0; v < Variants; v++ {
		k := variantKey(v)
		for _, p := range sweepProbes(v) {
			out, err := runProbe(ctx, off, 0, p, sweepWarmup, sweepMeasure)
			if err != nil {
				return err
			}
			d.Noc[k] = append(d.Noc[k], hex(out.fingerprint))
		}
		pool, _ := placements(v)
		cands, err := dse.LocalEvaluator{}.EvaluateBatch(ctx, evalRecipe, pool)
		if err != nil {
			return err
		}
		for _, c := range cands {
			d.Pool[k] = append(d.Pool[k], hex(candidateDigest(c)))
		}
		fmt.Fprintf(os.Stderr, "variant %d recorded\n", v)
	}
	_, writes := placements(0)
	for i := 0; i < len(writes); i += evalBatch {
		cands, err := dse.LocalEvaluator{}.EvaluateBatch(ctx, evalRecipe, writes[i:i+evalBatch])
		if err != nil {
			return err
		}
		d.Write = append(d.Write, hex(batchDigest(cands)))
		if b := i/evalBatch + 1; b%100 == 0 {
			fmt.Fprintf(os.Stderr, "%d of %d write batches recorded\n", b, writeBatches)
		}
	}
	return d.save(path)
}
