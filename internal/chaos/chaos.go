// Package chaos is the fault-injection layer behind the hardened run
// server's acceptance tests. A Chaos value holds a set of named injection
// points ("worker.panic", "disk.load.corrupt", ...), each with a firing
// probability and an action — delay, data corruption, or panic. The code
// under test calls the point hooks at its natural seams (the serve worker
// before running a job, the runcache disk tier around file I/O, the
// traffic step loop at batch boundaries); with no Chaos armed the hooks
// are nil checks and cost nothing.
//
// Draws are made from a seeded RNG behind a mutex, so a chaos run is
// reproducible given the same seed and the same sequence of point visits
// per goroutine interleaving — not bit-deterministic under concurrency,
// but statistically stable, which is what the graceful-degradation
// assertions need. Every firing is counted per point (Fired) so tests can
// assert the fault actually happened rather than silently passing against
// a healthy server.
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spec configures one injection point.
type Spec struct {
	// Prob is the firing probability per visit in [0,1].
	Prob float64
	// Delay is slept on firing (slow-disk, stalled-run injection).
	Delay time.Duration
	// Corrupt flips a byte of the data passed through Mangle on firing.
	Corrupt bool
	// Panic makes the point panic on firing (worker-crash injection).
	Panic bool
	// Times caps the number of firings (0 = unlimited).
	Times int
}

// Chaos is a set of armed injection points. The zero value and the nil
// pointer are both inert: every hook on a nil *Chaos is a no-op.
type Chaos struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

type point struct {
	spec  Spec
	fired int64
}

// New returns an empty chaos configuration drawing from the given seed.
func New(seed int64) *Chaos {
	if seed == 0 {
		seed = 1
	}
	return &Chaos{rng: rand.New(rand.NewSource(seed)), points: map[string]*point{}}
}

// Set arms (or re-arms) a point. A zero Spec disarms it.
func (c *Chaos) Set(name string, spec Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if spec == (Spec{}) {
		delete(c.points, name)
		return
	}
	c.points[name] = &point{spec: spec}
}

// Fired returns how many times the named point has fired.
func (c *Chaos) Fired(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.points[name]; ok {
		return p.fired
	}
	return 0
}

// Points lists the armed point names (sorted; for logs and /stats).
func (c *Chaos) Points() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.points))
	for n := range c.points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// draw decides whether the point fires this visit and returns its spec.
func (c *Chaos) draw(name string) (Spec, bool) {
	if c == nil {
		return Spec{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.points[name]
	if !ok {
		return Spec{}, false
	}
	if p.spec.Times > 0 && p.fired >= int64(p.spec.Times) {
		return Spec{}, false
	}
	if c.rng.Float64() >= p.spec.Prob {
		return Spec{}, false
	}
	p.fired++
	return p.spec, true
}

// Hit visits a point: sleeps the configured delay and panics if the point
// is armed to. Returns whether the point fired.
func (c *Chaos) Hit(name string) bool {
	spec, fired := c.draw(name)
	if !fired {
		return false
	}
	if spec.Delay > 0 {
		time.Sleep(spec.Delay)
	}
	if spec.Panic {
		panic(fmt.Sprintf("chaos: injected panic at %s", name))
	}
	return true
}

// Mangle visits a data-path point: on firing it applies the delay and, if
// Corrupt is set, returns a copy of data with one byte flipped (position
// drawn from the chaos RNG). Otherwise data is returned untouched.
func (c *Chaos) Mangle(name string, data []byte) []byte {
	spec, fired := c.draw(name)
	if !fired {
		return data
	}
	if spec.Delay > 0 {
		time.Sleep(spec.Delay)
	}
	if spec.Panic {
		panic(fmt.Sprintf("chaos: injected panic at %s", name))
	}
	if spec.Corrupt && len(data) > 0 {
		c.mu.Lock()
		i := c.rng.Intn(len(data))
		c.mu.Unlock()
		out := make([]byte, len(data))
		copy(out, data)
		out[i] ^= 0xff
		return out
	}
	return data
}

// Parse builds a Chaos from a CLI flag string: comma-separated
// name=action clauses, where action is one or more of
//
//	p<prob>     firing probability (default 1)
//	d<dur>      delay, e.g. d50ms
//	corrupt     flip a byte (data-path points)
//	panic       panic on firing
//	x<times>    fire at most <times> times
//
// joined by "+". Example:
//
//	worker.panic=p0.1+panic,disk.load.slow=d50ms+p0.5,disk.load.corrupt=corrupt+p0.2
//
// A name that is not one of the Point constants is an error: it would arm
// a point no code visits.
func Parse(s string, seed int64) (*Chaos, error) {
	c := New(seed)
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, clause := range strings.Split(s, ",") {
		name, actions, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("chaos: bad clause %q (want name=actions)", clause)
		}
		if !slices.Contains(knownPoints, name) {
			return nil, fmt.Errorf("chaos: unknown point %q in %q (known: %s)", name, clause, strings.Join(knownPoints, ", "))
		}
		spec := Spec{Prob: 1}
		for _, a := range strings.Split(actions, "+") {
			switch {
			case a == "corrupt":
				spec.Corrupt = true
			case a == "panic":
				spec.Panic = true
			case strings.HasPrefix(a, "p"):
				p, err := strconv.ParseFloat(a[1:], 64)
				if err != nil || !(p >= 0 && p <= 1) { // also rejects NaN
					return nil, fmt.Errorf("chaos: bad probability %q in %q", a, clause)
				}
				spec.Prob = p
			case strings.HasPrefix(a, "x"):
				n, err := strconv.Atoi(a[1:])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("chaos: bad count %q in %q", a, clause)
				}
				spec.Times = n
			case strings.HasPrefix(a, "d"):
				d, err := time.ParseDuration(a[1:])
				if err != nil || d < 0 {
					return nil, fmt.Errorf("chaos: bad delay %q in %q", a, clause)
				}
				spec.Delay = d
			default:
				return nil, fmt.Errorf("chaos: unknown action %q in %q", a, clause)
			}
		}
		c.Set(name, spec)
	}
	return c, nil
}

// Point names used across the tree, collected here so tests and flag
// writers don't drift from the injection sites.
const (
	PointWorkerPanic = "worker.panic"      // serve worker, before running a job
	PointDiskLoad    = "disk.load.slow"    // runcache disk tier, read path delay
	PointDiskCorrupt = "disk.load.corrupt" // runcache disk tier, read payload corruption
	PointDiskStore   = "disk.store.slow"   // runcache disk tier, write path delay
	PointRunStall    = "run.stall"         // traffic step loop, batch boundary
)

var knownPoints = []string{PointWorkerPanic, PointDiskLoad, PointDiskCorrupt, PointDiskStore, PointRunStall}
