package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"

	"heteronoc/internal/dse"
)

// Variants is how many distinct input sets each workload has. A seed
// selects variant seed mod Variants, so every seed's expected outputs are
// recorded in digests.json and any seed can be checked. Seeds 1 to 10
// select ten distinct variants and seed 11 the one none of them uses, the
// held-out seed of the recorded baseline.
const Variants = 12

// digests holds the expected output digest of every operation: per
// variant ("0".."11"), the noc-sweep probes and the serve-eval hot pool's
// candidates; the serve-eval write batches, one list that every variant
// enters at its own offset (see writeStart); and the cmp-apps jobs, which
// are the same for every seed, in cmpJobs order.
type digests struct {
	Noc   map[string][]string `json:"noc"`
	Cmp   []string            `json:"cmp"`
	Pool  map[string][]string `json:"pool"`
	Write []string            `json:"write"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

func (d *digests) save(path string) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// check compares got with the i-th expected digest of a list.
func check(expected []string, i int, got uint64) error {
	if i >= len(expected) {
		return fmt.Errorf("no recorded digest for operation %d (have %d); re-record digests.json", i, len(expected))
	}
	if want := expected[i]; hex(got) != want {
		return fmt.Errorf("operation %d: digest %s, want %s", i, hex(got), want)
	}
	return nil
}

func hex(x uint64) string { return fmt.Sprintf("%016x", x) }

func variantKey(v int) string { return strconv.Itoa(v) }

// hash64 is the FNV-1a digest of words, each as 8 little-endian bytes.
func hash64(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

// cmpResult is the part of a CMP run's outcome the correctness gate pins.
type cmpResult struct {
	IPC                  float64
	Insts                int64
	L1Hits, L1Misses     int64
	L2Hits, L2Misses     int64
	MemReads, MemWrites  int64
	StallCycles, Packets int64
	NetFingerprint       uint64
}

func (r cmpResult) digest() uint64 {
	return hash64(math.Float64bits(r.IPC), uint64(r.Insts), uint64(r.L1Hits), uint64(r.L1Misses),
		uint64(r.L2Hits), uint64(r.L2Misses), uint64(r.MemReads), uint64(r.MemWrites),
		uint64(r.StallCycles), uint64(r.Packets), r.NetFingerprint)
}

// candidateDigest pins every field of a scored placement.
func candidateDigest(c dse.Candidate) uint64 {
	w := []uint64{uint64(len(c.Big))}
	for _, b := range c.Big {
		w = append(w, uint64(b))
	}
	sat := uint64(0)
	if c.Saturated {
		sat = 1
	}
	w = append(w, math.Float64bits(c.AvgLatency), math.Float64bits(c.LatencyNS),
		math.Float64bits(c.PowerW), math.Float64bits(c.AreaMM2), sat)
	return hash64(w...)
}

// batchDigest pins a whole /eval batch, candidates in order.
func batchDigest(cs []dse.Candidate) uint64 {
	w := make([]uint64, len(cs))
	for i, c := range cs {
		w[i] = candidateDigest(c)
	}
	return hash64(w...)
}
