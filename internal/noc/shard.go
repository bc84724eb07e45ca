package noc

// Deterministic intra-cycle sharding. The allocation stages of Step —
// route computation / VC allocation (stage 1a) and switch allocation /
// traversal (stage 1b+2) — only read and write state owned by the router
// being visited: its input VCs, its per-router counters and its own output
// ports. Exactly three effects cross a router boundary, and all three are
// order-independent or order-normalizable:
//
//   - the credit sent upstream when a flit leaves its buffer: each output
//     port's credit queue is filled by exactly one downstream input port,
//     so the shard that owns the downstream router is the queue's only
//     writer this cycle (nothing reads credit queues until next cycle's
//     deliver);
//   - the event-mask bit telling the upstream router it has a queued
//     credit: a read-modify-write on another router's word, so shards
//     buffer (router, port) pairs and the commit phase ORs them in after
//     the join (OR is commutative — any commit order yields the same mask);
//   - the watchdog progress flag and the broken-packet queue: buffered
//     per shard and folded in shard order, which equals ascending router
//     order because shards are contiguous ascending spans.
//
// Under that discipline the merged state is byte-identical to the
// sequential kernel for every worker count, which the golden fingerprints
// and the par determinism test pin down. Sharding is only taken on cycles
// with no cross-cutting machinery active: no Observer (one deterministic
// event order, callbacks that need not be thread safe), no escaper
// (global escape stats in stage 1a), no armed faults (purges walk the
// whole network). Those runs fall back to the sequential path and stay
// bit-identical too.

import "heteronoc/internal/par"

// tickFx is the side-effect sink of one allocation pass. The sequential
// kernel uses a single direct sink that applies effects immediately; each
// shard of a parallel pass gets its own deferred sink whose buffered
// effects the commit phase folds in.
type tickFx struct {
	n      *Network
	direct bool     // apply effects immediately (sequential kernel)
	evOr   []uint32 // deferred evMask bits, packed router<<5|port
	moved  bool     // a flit moved (watchdog progress)
	broken []*Packet
	_      [40]byte // keep neighboring shard sinks off one cache line
}

// creditNotify marks the upstream output port's event mask so next cycle's
// deliver visits its freshly queued credit.
func (fx *tickFx) creditNotify(router, port int) {
	if fx.direct {
		fx.n.evMask[router] |= 1 << uint(port)
		return
	}
	fx.evOr = append(fx.evOr, uint32(router)<<5|uint32(port))
}

// progress records that a flit moved this cycle.
func (fx *tickFx) progress() {
	if fx.direct {
		fx.n.lastMove = fx.n.cycle
		return
	}
	fx.moved = true
}

// markBroken queues a packet for purging; the first cause wins. Only the
// shard holding the packet's head flit can reach it, so the flag write is
// single-writer even in a parallel pass.
func (fx *tickFx) markBroken(p *Packet, why DropReason) {
	if p == nil || p.broken {
		return
	}
	p.broken = true
	p.dropWhy = why
	if fx.direct {
		fx.n.brokenQ = append(fx.n.brokenQ, p)
		return
	}
	fx.broken = append(fx.broken, p)
}

// SetShardWorkers reconfigures intra-cycle sharding: w > 0 runs the
// allocation stages of every eligible Step on a persistent pool of w
// workers (w = 1 exercises the sharded path serially), 0 restores the
// plain sequential kernel. Requests beyond the router count are clamped —
// extra workers could never hold a router and would only idle in the pool.
// Results are bit-identical in every mode. Call Close when done with a
// sharded network to release the pool.
func (n *Network) SetShardWorkers(w int) {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
	}
	if w <= 0 {
		n.shards = nil
		return
	}
	if nr := len(n.routers); w > nr {
		w = nr
	}
	n.pool = par.NewPool(w)
	// One sink per steal chunk, not per worker: the pool oversubscribes
	// the tick into Shards(n) chunks and hands fn the chunk index.
	n.shards = make([]tickFx, n.pool.Shards(len(n.routers)))
	for i := range n.shards {
		n.shards[i].n = n
	}
}

// ShardWorkers returns the effective (post-clamp) worker count of the
// intra-cycle sharding pool, or 0 when the sequential kernel is active.
func (n *Network) ShardWorkers() int {
	if n.pool == nil {
		return 0
	}
	return n.pool.Workers()
}

// Close releases the shard worker pool, if any. The network remains usable
// sequentially. Idempotent.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
		n.shards = nil
	}
}

// shardable reports whether this cycle's allocation stages may run on the
// worker pool: no observer and no machinery with global side effects can
// be active.
func (n *Network) shardable() bool {
	return n.pool != nil && n.obs == nil && n.escaper == nil && !n.faultsArmed
}

// allocateSharded runs stages 1a and 1b+2 over contiguous router spans on
// the worker pool, then commits the buffered cross-router effects in shard
// order.
func (n *Network) allocateSharded() {
	shards := n.shards
	n.pool.ShardedTick(len(n.routers), func(shard, lo, hi int) {
		fx := &shards[shard]
		n.routeAndAllocate(lo, hi, fx)
		n.switchAllocate(lo, hi, fx)
	})
	for i := range shards {
		fx := &shards[i]
		for _, e := range fx.evOr {
			n.evMask[e>>5] |= 1 << (e & 31)
		}
		fx.evOr = fx.evOr[:0]
		if fx.moved {
			n.lastMove = n.cycle
			fx.moved = false
		}
		if len(fx.broken) > 0 {
			n.brokenQ = append(n.brokenQ, fx.broken...)
			for j := range fx.broken {
				fx.broken[j] = nil
			}
			fx.broken = fx.broken[:0]
		}
	}
}
