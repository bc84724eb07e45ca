package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"heteronoc/internal/obs"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one job (a probe, a CMP run, a request) share Job;
// Parent is the enclosing span's ID, 0 for a job's root span. Lane is the
// load goroutine that made the call (its Chrome trace thread).
type span struct {
	ID, Parent, Job, Lane int
	Name                  string
	Start, End            time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// (untraced runs) records nothing and costs one branch per call.
type recorder struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (r *recorder) begin(name string, parent, job, lane int) int {
	if !r.on {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Lane: lane, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned and returns its duration (0 when
// tracing is off).
func (r *recorder) end(id int) time.Duration {
	if id == 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of it that its child spans cover.
// Sorted by descending self time.
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeSelfTable renders selfTimes as a fixed-width table.
func writeSelfTable(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-16s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ms/call")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-16s %8d %12.3f %12.3f %12.4f\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), ms(lt.Self)/float64(lt.Count))
	}
}

// writeChrome writes the spans as a Chrome trace (begin/end event pairs,
// one thread per load lane), loadable in Perfetto.
func writeChrome(w io.Writer, spans []span, process string) error {
	events := []obs.ChromeEvent{obs.ProcessName(1, process)}
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			events = append(events, obs.ThreadName(1, s.Lane, fmt.Sprintf("lane %d", s.Lane)))
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job}
		events = append(events,
			obs.ChromeEvent{Name: s.Name, Cat: category(s.Name), Ph: "B", TS: us(s.Start), PID: 1, TID: s.Lane, Args: args},
			obs.ChromeEvent{Name: s.Name, Cat: category(s.Name), Ph: "E", TS: us(s.End), PID: 1, TID: s.Lane})
	}
	// Viewers expect events in timestamp order; the stable sort keeps a
	// span's begin before its end when the two share a timestamp.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return obs.WriteChromeTrace(w, events)
}

// category is a span name's layer prefix ("noc.run" -> "noc").
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
