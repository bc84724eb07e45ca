package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"heteronoc/internal/dse"
	"heteronoc/internal/serve"
)

// serve-eval: a real cmd/nocserved on loopback with a fresh cache
// directory and default workers, driven by two closed-loop tenants that
// POST /eval batches of one fixed probe recipe. Tenant "read" asks for
// placements from a hot pool primed during set-up (every candidate a
// memory-tier hit); tenant "write" asks for placements the server has
// never seen (every candidate simulated, then stored in both tiers).

// evalRecipe is the fixed probe: 8x8, 16 big routers, +BL, uniform load
// below the knee.
var evalRecipe = dse.EvalConfig{W: 8, H: 8, BigCount: 16, LinkRedist: true, InjectionRate: 0.03, Packets: 1000, Seed: 1}

const (
	// evalBatch is the candidates per /eval request: one generation of
	// cmd/dse's default search (-pop 24). serve.RemoteEvaluator, the only
	// client of /eval, POSTs each generation's unscored placements as one
	// batch, and a repeat search over a shared server cache, which the
	// read tenant stands for, re-asks whole generations.
	evalBatch = 24
	// poolSize is two generations, so that successive read batches are
	// different subsets of the hot pool.
	poolSize = 2 * evalBatch
	// countBatches is how many of each tenant's first requests the exact
	// runcache counts cover.
	countBatches = 20
)

// placements returns a variant's hot pool and the write placements, which
// all variants share (each enters them at writeStart): distinct sorted
// sets of evalRecipe.BigCount routers, none shared between the two lists.
func placements(variant int) (pool, writes [][]int) {
	seen := map[string]bool{}
	draw := func(rng *rand.Rand) []int {
		for {
			s := rng.Perm(evalRecipe.W * evalRecipe.H)[:evalRecipe.BigCount]
			sort.Ints(s)
			if k := fmt.Sprint(s); !seen[k] {
				seen[k] = true
				return s
			}
		}
	}
	wr := rand.New(rand.NewSource(1))
	for i := 0; i < writeBatches*evalBatch; i++ {
		writes = append(writes, draw(wr))
	}
	pr := rand.New(rand.NewSource(int64(variant)*7919 + 17))
	for i := 0; i < poolSize; i++ {
		pool = append(pool, draw(pr))
	}
	return pool, writes
}

// writeStart is the write batch a variant's write tenant begins at. The
// variants start evenly spaced, so runs of different variants send
// different placements; a tenant wraps around to the first batch after
// the last, and fails the run once it would repeat one.
func writeStart(variant int) int { return variant * writeBatches / Variants }

// server is a running nocserved process.
type server struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the process's stderr reaches EOF
	mu      sync.Mutex
	tail    []string // last stderr lines, for error reports
}

// startServer launches nocserved on a loopback port with its disk cache in
// cacheDir and waits until it listens.
func startServer(bin, cacheDir string) (*server, error) {
	if bin == "" {
		return nil, errors.New("serve-eval needs -nocserved (run through perfbench/run.sh)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cachedir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if _, url, ok := strings.Cut(line, "listening on "); ok {
				select {
				case ready <- strings.TrimSpace(url):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.url = <-ready:
		return s, nil
	case <-s.drained:
	case <-time.After(30 * time.Second):
	}
	_ = s.stop()
	return nil, fmt.Errorf("nocserved did not start: %s", s.lastLines())
}

func (s *server) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop sends SIGTERM (graceful drain), kills the process if it has not
// exited within 20 s, and waits for it.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	err := s.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return fmt.Errorf("nocserved exited: %v: %s", err, s.lastLines())
	}
	return err
}

// shedTotal scrapes serve_shed_total from the server's /metrics.
func (s *server) shedTotal() (float64, error) {
	res, err := http.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "serve_shed_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no serve_shed_total in /metrics")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// evalReq is one completed /eval round trip.
type evalReq struct {
	done     time.Duration // completion, since the timed phase began
	rtt      time.Duration
	cands    int
	workerMS float64
	cache    serve.CacheStats
	traced   bool
}

// prime scores the hot pool on a fresh server and checks every candidate
// against the recorded digests.
func prime(ctx context.Context, url string, pool [][]int, expected []string) ([]dse.Candidate, error) {
	c := tenantClient(url, 3)
	var out []dse.Candidate
	for i := 0; i < len(pool); i += evalBatch {
		resp, err := c.Eval(ctx, serve.EvalRequest{Tenant: "prime", Cfg: evalRecipe, Sets: pool[i : i+evalBatch]})
		if err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
		if len(resp.Candidates) != evalBatch {
			return nil, fmt.Errorf("prime: %d candidates for %d sets", len(resp.Candidates), evalBatch)
		}
		for j, cand := range resp.Candidates {
			if err := check(expected, i+j, candidateDigest(cand)); err != nil {
				return nil, fmt.Errorf("prime: pool candidate: %w", err)
			}
		}
		out = append(out, resp.Candidates...)
	}
	return out, nil
}

func serveEval(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	vk := variantKey(e.variant)
	if len(e.dig.Write) != writeBatches {
		return nil, fmt.Errorf("digests.json has %d write batches, want %d; re-record it", len(e.dig.Write), writeBatches)
	}
	pool, writes := placements(e.variant)

	// Set-up: start a server on a fresh cache directory and prime the hot
	// pool, setupReps times; the last server takes the timed load.
	var (
		srv      *server
		cacheDir string
		primed   []dse.Candidate
		setups   []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		cacheDir = filepath.Join(e.tmp, fmt.Sprintf("cache%d", rep))
		t0 := time.Now()
		var err error
		if srv, err = startServer(e.nocserved, cacheDir); err != nil {
			return nil, err
		}
		if primed, err = prime(ctx, srv.url, pool, e.dig.Pool[vk]); err != nil {
			_ = srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.attempted += poolSize / evalBatch

	rec := newRecorder(e.trace)
	off := newRecorder(false)
	clients := []*serve.Client{tenantClient(srv.url, 1), tenantClient(srv.url, 2)}
	var (
		mu     sync.Mutex
		reqs   [2][]evalReq
		counts [2]serve.CacheStats // over each tenant's first countBatches
	)
	readRng := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	tenant := func(t int, name string) func(ctx context.Context) error {
		k := 0
		return func(ctx context.Context) error {
			var sets [][]int
			var picks []int // pool indices of a read batch
			wb := 0         // index of a write batch in the recorded list
			if t == 0 {
				picks = readRng.Perm(poolSize)[:evalBatch]
				for _, i := range picks {
					sets = append(sets, pool[i])
				}
			} else {
				if k >= writeBatches {
					// Sending a placement again would make it a cache hit
					// and change the traffic mix under measurement.
					return fmt.Errorf("the write tenant used all %d recorded write batches; raise writeBatches in record.go and re-record digests.json", writeBatches)
				}
				wb = (writeStart(e.variant) + k) % writeBatches
				sets = writes[wb*evalBatch : (wb+1)*evalBatch]
			}
			r := off
			if e.trace && k%2 == 1 {
				r = rec
			}
			mu.Lock()
			o.attempted++
			mu.Unlock()
			t0 := time.Now()
			sp := r.begin("serve."+name, 0, k, t)
			resp, err := clients[t].Eval(ctx, serve.EvalRequest{Tenant: name, Cfg: evalRecipe, Sets: sets})
			r.end(sp)
			rtt := time.Since(t0)
			idx := k
			k++
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				o.fail(fmt.Errorf("serve-eval %s batch %d: %w", name, idx, err))
				return nil
			}
			if err := checkEval(sets, picks, resp, primed, e.dig.Write, wb); err != nil {
				o.fail(fmt.Errorf("serve-eval %s batch %d: %w", name, idx, err))
			}
			reqs[t] = append(reqs[t], evalReq{done: time.Since(start), rtt: rtt, workerMS: resp.ElapsedMS,
				cands: len(resp.Candidates), cache: resp.Cache, traced: r.on})
			if idx < countBatches {
				counts[t].Hits += resp.Cache.Hits
				counts[t].Misses += resp.Cache.Misses
				counts[t].Executions += resp.Cache.Executions
			}
			return nil
		}
	}
	loopErr := closedLoop(ctx, start.Add(e.seconds), []func(context.Context) error{tenant(0, "read"), tenant(1, "write")})
	elapsed := time.Since(start).Seconds()
	rss, rssErr := peakRSSMB(srv.cmd.Process.Pid)
	shed, shedErr := srv.shedTotal()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if err := errors.Join(loopErr, rssErr, shedErr); err != nil {
		return nil, err
	}
	diskBytes, err := dirBytes(cacheDir)
	if err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["sim_cycles_per_s"] = metric{simRate(reqs[1]), "1/s"}
	o.e2e["evals_per_s"] = metric{windowRate(append(reqs[0], reqs[1]...), e.seconds), "1/s"}
	o.e2e["peak_rss_mb"] = metric{rss, "MB"}
	o.latency(o.e2e, "eval", rttMS(reqs[1], false))
	o.note("read requests=%d write requests=%d elapsed=%.3fs", len(reqs[0]), len(reqs[1]), elapsed)
	o.latency(o.layer, "serve.read", rttMS(reqs[0], false))

	if e.trace {
		m := o.layer
		for t, name := range []string{"read", "write"} {
			var over, work []float64
			for _, r := range reqs[t] {
				if r.traced {
					over = append(over, ms(r.rtt)-r.workerMS)
					work = append(work, r.workerMS)
				}
			}
			m["serve."+name+".overhead_ms"] = metric{median(over), "ms"}
			m["serve."+name+".worker_ms"] = metric{median(work), "ms"}
			c := counts[t]
			m["runcache.hits."+name] = metric{float64(c.Hits), "count"}
			m["runcache.misses."+name] = metric{float64(c.Misses), "count"}
			m["runcache.execs."+name] = metric{float64(c.Executions), "count"}
			m["runcache.hit_ratio."+name] = metric{float64(c.Hits) / float64(c.Hits+c.Misses), "ratio"}
		}
		var hitUS, candMS []float64
		for _, r := range reqs[0] {
			if r.traced {
				hitUS = append(hitUS, 1000*r.workerMS/evalBatch)
			}
		}
		for _, r := range reqs[1] {
			if r.traced {
				candMS = append(candMS, r.workerMS/evalBatch)
			}
		}
		m["runcache.hit_us_per_candidate"] = metric{median(hitUS), "us"}
		m["dse.eval_ms_per_candidate"] = metric{median(candMS), "ms"}
		m["runcache.disk_bytes"] = metric{float64(diskBytes), "bytes"}
		var retries int64
		for _, c := range clients {
			retries += c.Retries.Load()
		}
		m["serve.retries"] = metric{float64(retries), "count"}
		m["serve.shed"] = metric{shed, "count"}
		var ov []float64
		for t := range reqs {
			traced, plain := median(rttMS(reqs[t], true)), median(rttMS(reqs[t], false))
			ov = append(ov, 100*(traced/plain-1))
		}
		m["trace.overhead_pct"] = metric{mean(ov), "%"}
		o.spans = rec.snapshot()
	}
	return o, nil
}

// windowRate is the median, over the whole seconds of the timed phase, of
// the candidates answered in each second. Contention from other processes
// on the host comes in bursts; the median second is not moved by them.
func windowRate(rs []evalReq, timed time.Duration) float64 {
	per := make([]float64, int(timed/time.Second))
	for _, r := range rs {
		if w := int(r.done / time.Second); w < len(per) {
			per[w] += float64(r.cands)
		}
	}
	return median(per)
}

// simRate is the median, over write requests, of the simulated cycles a
// request carried per second of its round trip.
func simRate(rs []evalReq) float64 {
	var per []float64
	for _, r := range rs {
		if !r.traced {
			per = append(per, float64(r.cache.Cycles)/r.rtt.Seconds())
		}
	}
	return median(per)
}

// rttMS returns the round trips of the traced (or untraced) requests in ms.
func rttMS(rs []evalReq, traced bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.traced == traced {
			out = append(out, ms(r.rtt))
		}
	}
	return out
}

// checkEval is the correctness gate for one /eval answer. A read batch
// (picks lists its pool indices) must return exactly what priming returned
// for each placement, from cache and with no executions; a write batch
// (picks nil) must match the recorded digest of write batch wb and be
// simulated in full.
func checkEval(sets [][]int, picks []int, resp *serve.EvalResponse, primed []dse.Candidate, writeDigests []string, wb int) error {
	if len(resp.Candidates) != len(sets) {
		return fmt.Errorf("%d candidates for %d sets", len(resp.Candidates), len(sets))
	}
	if picks == nil {
		if resp.Cache.Executions != int64(len(sets)) {
			return fmt.Errorf("write batch ran %d simulations, want %d", resp.Cache.Executions, len(sets))
		}
		return check(writeDigests, wb, batchDigest(resp.Candidates))
	}
	if !resp.FromCache || resp.Cache.Executions != 0 {
		return fmt.Errorf("read batch not answered from cache (from_cache=%t executions=%d)", resp.FromCache, resp.Cache.Executions)
	}
	for j, cand := range resp.Candidates {
		if candidateDigest(cand) != candidateDigest(primed[picks[j]]) {
			return fmt.Errorf("read candidate %v differs from its primed value", sets[j])
		}
	}
	return nil
}
