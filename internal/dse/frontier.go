package dse

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"heteronoc/internal/ckpt"
)

// The frontier file persists a search mid-flight so a killed search
// resumes exactly where it stopped and an extended search (more
// generations, wider budget) reuses every prior evaluation. It is a
// NOCCKPT01 container (internal/ckpt) of kind "dse-frontier"; the header
// fields other than kind and version are zero, and the body is:
//
//	string  config hash           canonical search-config string (see
//	                              SearchConfig.configString); generations
//	                              and eval budget are deliberately excluded
//	uvarint generation            completed generations
//	uvarint evals                 cumulative archive misses (probe requests)
//	uvarint rng state             splitmix64 stream position
//	population                    count, then each member as a router set
//	archive                       count, then each evaluated candidate:
//	                              set + 4 float64 objectives + saturated
//	pareto                        count, then archive indices of the front
//
// Sets are stored as uvarint length plus delta-encoded sorted indices.
// Writes go through ckpt.WriteFile (temp file + rename), so a crash
// mid-save leaves the previous frontier intact.
const (
	frontierKind    = "dse-frontier"
	frontierVersion = 1
)

// ErrFrontierCorrupt wraps any structural failure loading a frontier file.
var ErrFrontierCorrupt = errors.New("dse: corrupt frontier file")

// ErrFrontierConfig reports a frontier whose config hash does not match
// the resuming search — resuming would silently mix incompatible
// objective spaces, so it is an error rather than a fresh start.
var ErrFrontierConfig = errors.New("dse: frontier config mismatch")

// searchState is everything the loop needs to continue a search.
type searchState struct {
	Generation int
	Evals      int
	RNGState   uint64
	Population [][]int
	Archive    []Candidate // evaluation order; Big sets are canonical
	Pareto     []int       // archive indices
}

// putSet delta-codes a sorted router set.
func putSet(w *ckpt.Writer, s []int) {
	w.U64(uint64(len(s)))
	prev := 0
	for _, v := range s { // sorted, so deltas are non-negative
		w.U64(uint64(v - prev))
		prev = v
	}
}

// getSet decodes a putSet set. A router set never has more than 1<<16
// members; a larger count means a corrupt file.
func getSet(r *ckpt.Reader) []int {
	n := r.U64()
	if r.Err() != nil {
		return nil
	}
	if n > 1<<16 {
		r.Fail("set of %d members", n)
		return nil
	}
	out := make([]int, n)
	prev := 0
	for i := range out {
		prev += int(r.U64())
		out[i] = prev
	}
	return out
}

// encodeFrontier serializes a search state as a frontier container.
func encodeFrontier(configHash string, st *searchState) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: frontierKind, Version: frontierVersion})
	w.Str(configHash)
	w.U64(uint64(st.Generation))
	w.U64(uint64(st.Evals))
	w.U64(st.RNGState)
	w.U64(uint64(len(st.Population)))
	for _, p := range st.Population {
		putSet(w, p)
	}
	w.U64(uint64(len(st.Archive)))
	for _, c := range st.Archive {
		putSet(w, c.Big)
		w.F64(c.AvgLatency)
		w.F64(c.LatencyNS)
		w.F64(c.PowerW)
		w.F64(c.AreaMM2)
		w.Bool(c.Saturated)
	}
	w.U64(uint64(len(st.Pareto)))
	for _, i := range st.Pareto {
		w.U64(uint64(i))
	}
	return w.Finish()
}

// decodeFrontier parses a frontier container, checking kind, version, CRC
// and the config hash (wantHash == "" skips the config check, for
// inspection). Every structural failure wraps ErrFrontierCorrupt.
func decodeFrontier(b []byte, wantHash string) (*searchState, error) {
	r, err := ckpt.NewReader(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFrontierCorrupt, err)
	}
	if h := r.Header(); h.Kind != frontierKind || h.Version != frontierVersion {
		return nil, fmt.Errorf("%w: %s v%d container, want %s v%d",
			ErrFrontierCorrupt, h.Kind, h.Version, frontierKind, frontierVersion)
	}
	hash := r.StrMax(4096)
	if r.Err() == nil && wantHash != "" && hash != wantHash {
		return nil, fmt.Errorf("%w: file has %q, search wants %q", ErrFrontierConfig, hash, wantHash)
	}
	st := &searchState{
		Generation: int(r.U64()),
		Evals:      int(r.U64()),
		RNGState:   r.U64(),
	}
	const maxCount = 1 << 22 // sanity bound against corrupt counts
	np := r.U64()
	if np > maxCount {
		r.Fail("population count %d", np)
	}
	for i := uint64(0); i < np && r.Err() == nil; i++ {
		st.Population = append(st.Population, getSet(r))
	}
	na := r.U64()
	if na > maxCount {
		r.Fail("archive count %d", na)
	}
	for i := uint64(0); i < na && r.Err() == nil; i++ {
		c := Candidate{Big: getSet(r)}
		c.AvgLatency = r.F64()
		c.LatencyNS = r.F64()
		c.PowerW = r.F64()
		c.AreaMM2 = r.F64()
		c.Saturated = r.Bool()
		st.Archive = append(st.Archive, c)
	}
	nf := r.U64()
	if nf > na {
		r.Fail("pareto count %d exceeds archive %d", nf, na)
	}
	for i := uint64(0); i < nf && r.Err() == nil; i++ {
		idx := r.U64()
		if idx >= uint64(len(st.Archive)) {
			r.Fail("pareto index %d", idx)
			break
		}
		st.Pareto = append(st.Pareto, int(idx))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFrontierCorrupt, err)
	}
	return st, nil
}

// saveFrontier writes the state atomically.
func saveFrontier(path, configHash string, st *searchState) error {
	return ckpt.WriteFile(path, encodeFrontier(configHash, st))
}

// loadFrontier reads a frontier file. A missing file returns (nil, nil):
// the search starts fresh. A present-but-unreadable file is an error — a
// corrupt or mismatched frontier must not be silently discarded.
func loadFrontier(path, configHash string) (*searchState, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if retired := "HNDSE1"; bytes.HasPrefix(b, []byte(retired)) {
		return nil, fmt.Errorf("%w: %s uses the retired %s frontier format; delete it and rerun the search",
			ErrFrontierCorrupt, path, retired)
	}
	return decodeFrontier(b, configHash)
}
