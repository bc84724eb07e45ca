package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refController is the scheduler as first written: one global FIFO that
// schedule rescans once per free bank, recomputing every entry's bank and
// row, and repeats whole passes until one moves nothing. It is kept only
// as the reference the per-bank controller must match exactly.
type refController struct {
	Latency, RowHitLatency int64
	Banks                  int
	RowLines               uint64

	bankFree []int64
	openRow  []uint64
	rowValid []bool
	queue    []*Request
	inFlight reqHeap

	Reads, Writes, RowHits                       int64
	TotalQueueDelay, TotalServiceTime, Completed int64
}

func newRef(c *Controller) *refController {
	return &refController{
		Latency: c.Latency, RowHitLatency: c.RowHitLatency, Banks: c.Banks, RowLines: c.RowLines,
		bankFree: make([]int64, c.Banks), openRow: make([]uint64, c.Banks), rowValid: make([]bool, c.Banks),
	}
}

func (c *refController) bankOf(line uint64) int   { return int((line / c.RowLines) % uint64(c.Banks)) }
func (c *refController) rowOf(line uint64) uint64 { return line / c.RowLines / uint64(c.Banks) }

func (c *refController) Enqueue(r *Request, now int64) {
	r.Arrived = now
	if r.Write {
		c.Writes++
	} else {
		c.Reads++
	}
	c.queue = append(c.queue, r)
	c.schedule(now)
}

func (c *refController) schedule(now int64) {
	if len(c.queue) == 0 {
		return
	}
	for {
		moved := false
		for bank := 0; bank < c.Banks; bank++ {
			if c.bankFree[bank] > now {
				continue
			}
			pick := -1
			for i, r := range c.queue {
				if c.bankOf(r.Line) != bank {
					continue
				}
				if c.rowValid[bank] && c.rowOf(r.Line) == c.openRow[bank] {
					pick = i
					break
				}
				if pick < 0 {
					pick = i
				}
			}
			if pick < 0 {
				continue
			}
			r := c.queue[pick]
			c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
			lat := c.Latency
			if c.rowValid[bank] && c.rowOf(r.Line) == c.openRow[bank] {
				lat = c.RowHitLatency
				c.RowHits++
			}
			c.openRow[bank] = c.rowOf(r.Line)
			c.rowValid[bank] = true
			r.done = now + lat
			c.bankFree[bank] = r.done
			c.TotalQueueDelay += now - r.Arrived
			c.inFlight.push(r)
			moved = true
		}
		if !moved {
			return
		}
	}
}

func (c *refController) Tick(now int64) []*Request {
	c.schedule(now)
	var out []*Request
	for len(c.inFlight) > 0 && c.inFlight[0].done <= now {
		r := c.inFlight.pop()
		c.Completed++
		c.TotalServiceTime += r.done - r.Arrived
		out = append(out, r)
	}
	return out
}

// completion identifies one finished request: Home carries the request's
// index in the generated stream.
type completion struct {
	id   int
	line uint64
	done int64
}

func completions(rs []*Request) []completion {
	out := make([]completion, len(rs))
	for i, r := range rs {
		out[i] = completion{id: r.Home, line: r.Line, done: r.done}
	}
	return out
}

// TestPerBankSchedulerMatchesReference drives the controller and the
// reference with identical random streams — random lines over a few rows
// per bank so row hits and FR-FCFS reordering are common, random writes,
// bursts of same-cycle arrivals, random bank counts and latencies down to
// one cycle, and Enqueue/Tick interleavings — and requires the same
// completions in the same order at the same cycles, and the same counters.
func TestPerBankSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewController(0)
		c.Banks = 1 + rng.Intn(16)
		c.RowLines = uint64(1 + rng.Intn(8))
		c.Latency = int64(1 + rng.Intn(40))
		c.RowHitLatency = int64(1 + rng.Intn(int(c.Latency)))
		c.bankFreeReset()
		ref := newRef(c)
		lines := uint64(c.Banks) * c.RowLines * uint64(1+rng.Intn(4))

		var got, want []completion
		now, id := int64(0), 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // arrival, possibly in the same cycle as the last
				line, write := uint64(rng.Int63n(int64(lines))), rng.Intn(4) == 0
				if rng.Intn(2) == 0 {
					c.EnqueueLine(line, id, write, now)
				} else {
					c.Enqueue(&Request{Line: line, Home: id, Write: write}, now)
				}
				ref.Enqueue(&Request{Line: line, Home: id, Write: write}, now)
				id++
			case op < 9:
				now += rng.Int63n(3)
				got = append(got, completions(c.Tick(now))...)
				want = append(want, completions(ref.Tick(now))...)
			default:
				now += rng.Int63n(2 * c.Latency)
			}
			if c.QueueLen() != len(ref.queue) {
				t.Fatalf("seed %d step %d: queue length %d, reference %d", seed, step, c.QueueLen(), len(ref.queue))
			}
		}
		for c.Busy() || len(ref.queue)+len(ref.inFlight) > 0 {
			now++
			got = append(got, completions(c.Tick(now))...)
			want = append(want, completions(ref.Tick(now))...)
		}

		if len(got) != id || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d (banks %d, row %d lines, latency %d/%d): completions differ\n got %v\nwant %v",
				seed, c.Banks, c.RowLines, c.Latency, c.RowHitLatency, got, want)
		}
		gotC := [...]int64{c.Reads, c.Writes, c.RowHits, c.TotalQueueDelay, c.TotalServiceTime, c.Completed}
		wantC := [...]int64{ref.Reads, ref.Writes, ref.RowHits, ref.TotalQueueDelay, ref.TotalServiceTime, ref.Completed}
		if gotC != wantC {
			t.Fatalf("seed %d: counters (reads, writes, row hits, queue delay, service time, completed) %v, reference %v",
				seed, gotC, wantC)
		}
	}
}

func TestNewControllerRejectsZeroLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a zero row-hit latency was accepted")
		}
	}()
	c := NewController(0)
	c.RowHitLatency = 0
	c.bankFreeReset()
}
