package noc

// ring is a fixed-capacity FIFO of flits, sized to the VC buffer depth.
// Indexing wraps by conditional subtraction rather than modulo: the ring is
// touched on every buffer write/read of the cycle kernel.
type ring struct {
	buf   []Flit
	head  int32
	count int32
}

func newRing(capacity int) ring { return ring{buf: make([]Flit, capacity)} }

func (r *ring) len() int   { return int(r.count) }
func (r *ring) cap() int   { return len(r.buf) }
func (r *ring) full() bool { return int(r.count) == len(r.buf) }

func (r *ring) push(f Flit) {
	if r.full() {
		panic("noc: VC buffer overflow (credit accounting broken)")
	}
	i := int(r.head) + int(r.count)
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.count++
}

// at returns the i-th buffered flit (0 = front) for audits and the fault
// purge; i must be < count.
func (r *ring) at(i int32) *Flit {
	j := int(r.head) + int(i)
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

func (r *ring) peek() *Flit {
	if r.count == 0 {
		return nil
	}
	return &r.buf[r.head]
}

func (r *ring) pop() Flit {
	if r.count == 0 {
		panic("noc: pop from empty VC buffer")
	}
	f := r.buf[r.head]
	r.buf[r.head].Pkt = nil // drop reference for GC
	r.head++
	if int(r.head) == len(r.buf) {
		r.head = 0
	}
	r.count--
	return f
}

// removePacket deletes every flit of packet p from the ring, preserving
// the order of the remaining flits, and returns the number removed. Only
// the fault-recovery purge calls it; the hot path never removes from the
// middle of a buffer.
func (r *ring) removePacket(p *Packet) int {
	if r.count == 0 {
		return 0
	}
	w := int32(0)
	n := len(r.buf)
	for i := int32(0); i < r.count; i++ {
		j := int(r.head) + int(i)
		if j >= n {
			j -= n
		}
		if r.buf[j].Pkt == p {
			continue
		}
		k := int(r.head) + int(w)
		if k >= n {
			k -= n
		}
		r.buf[k] = r.buf[j]
		w++
	}
	removed := int(r.count - w)
	for i := w; i < r.count; i++ {
		k := int(r.head) + int(i)
		if k >= n {
			k -= n
		}
		r.buf[k].Pkt = nil // drop reference for GC
	}
	r.count = w
	return removed
}

// evq is a growable FIFO ring of timed events (link wires and credit
// returns). Both event kinds are appended with a fixed delay from the
// current cycle, so maturity times are nondecreasing within a queue and
// deliver can pop matured events from the front instead of scanning and
// compacting a slice each cycle. The zero value is ready to use.
type evq[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *evq[T]) len() int { return q.n }

func (q *evq[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// front returns the oldest event; the queue must be non-empty.
func (q *evq[T]) front() *T { return &q.buf[q.head] }

func (q *evq[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop packet references for GC
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// at returns the i-th queued event (0 = oldest) for audits and debugging.
func (q *evq[T]) at(i int) T {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

func (q *evq[T]) grow() {
	nb := make([]T, max(2*len(q.buf), 8))
	for i := 0; i < q.n; i++ {
		nb[i] = q.at(i)
	}
	q.buf, q.head = nb, 0
}

// overwriteRing is a fixed-capacity ring that keeps the newest values:
// pushing into a full ring overwrites the oldest value and counts it as
// dropped. The observation recorders (FlitTracer, AttrTrace) bound their
// memory with it. buf must be non-empty.
type overwriteRing[T any] struct {
	buf     []T
	head    int // next write slot
	n       int // live values (≤ len(buf))
	dropped uint64
}

func (r *overwriteRing[T]) push(v T) {
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// appendTo appends the live values to out, oldest first.
func (r *overwriteRing[T]) appendTo(out []T) []T {
	start := r.head - r.n
	if start >= 0 {
		return append(out, r.buf[start:r.head]...)
	}
	return append(append(out, r.buf[start+len(r.buf):]...), r.buf[:r.head]...)
}
