package noc

// EventKind classifies the events an Observer receives.
type EventKind uint8

const (
	// EvInject: the head flit left the NI queue into the source router.
	EvInject EventKind = iota
	// EvHop: the head flit was delivered into a router input buffer.
	EvHop
	// EvEscape: the packet diverted to the escape sub-network.
	EvEscape
	// EvEject: the tail flit was consumed at the destination.
	EvEject

	// Detail events, emitted only to an Observer with a Detail stream.
	// They expose the microarchitectural pipeline the macro events skip
	// over:

	// EvVCAlloc: a waiting head won a downstream virtual channel.
	EvVCAlloc
	// EvSwitchAlloc: a flit won switch allocation and traversed the
	// crossbar onto its output link.
	EvSwitchAlloc
	// EvCreditStall: an active VC had a flit ready but no downstream
	// credit this cycle (back-pressure; emitted once per stalled VC per
	// cycle).
	EvCreditStall
)

func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvHop:
		return "hop"
	case EvEscape:
		return "escape"
	case EvEject:
		return "eject"
	case EvVCAlloc:
		return "vc_alloc"
	case EvSwitchAlloc:
		return "sw_alloc"
	case EvCreditStall:
		return "credit_stall"
	}
	return "?"
}

// Event is one Packet or Detail observation.
type Event struct {
	Cycle  int64
	Kind   EventKind
	Packet uint64
	// Router is the router involved (the receiving router for hops, the
	// source router for injects, the allocating router for detail events,
	// -1 for ejects).
	Router int
	// Port and VC locate detail events in the router microarchitecture:
	// the output port / downstream VC being allocated or stalled on. They
	// are -1 on the macro events (inject/hop/escape/eject).
	Port int16
	VC   int16
}

// Observer is the one hook through which the kernel reports what it does.
// Each non-nil field is a capability, called on the stepping goroutine:
//
//   - Packet receives the packet life-cycle events (inject, hop, escape,
//     eject);
//   - Detail receives the microarchitectural events (VC allocation, switch
//     allocation, credit stalls), interleaved with Packet in kernel order;
//   - AttrHop receives one per-hop attribution record per settled head
//     flit, while attribution is enabled (attrib.go);
//   - Cycle is called at the end of every successful Step, after all
//     per-cycle statistics have been accumulated (the sampler hangs off
//     it).
//
// Observation disables intra-cycle sharding and idle fast-forward: a
// network with an observer always runs the sequential kernel cycle by
// cycle, so every stream sees one deterministic order at any worker count
// and the callbacks never race. Callbacks must be fast: they sit on the
// hot path while installed.
type Observer struct {
	Packet  func(Event)
	Detail  func(Event)
	AttrHop func(AttrHopRec)
	Cycle   func(cycle int64)
}

// SetObserver installs o, replacing any previous observer. An Observer
// with every field nil removes observation; the hot path then pays one
// branch per hook point.
func (n *Network) SetObserver(o Observer) {
	n.obs = nil
	if o.Packet != nil || o.Detail != nil || o.AttrHop != nil || o.Cycle != nil {
		n.obs = &o
	}
}

// trace reports one event about packet p to the observer's Packet stream,
// or to its Detail stream for EvVCAlloc onwards; port and vc are -1 on
// macro events. Only the nil check inlines into the kernel and p is read
// only behind it, so an unobserved network pays one branch per hook point.
func (n *Network) trace(kind EventKind, p *Packet, router int, port, vc int16) {
	if n.obs != nil {
		n.obs.dispatch(n.cycle, kind, p, router, port, vc)
	}
}

// dispatch stays out of line: inlined into trace it would push trace past
// the inliner's budget.
//
//go:noinline
func (o *Observer) dispatch(cycle int64, kind EventKind, p *Packet, router int, port, vc int16) {
	fn := o.Packet
	if kind >= EvVCAlloc {
		fn = o.Detail
	}
	if fn != nil {
		fn(Event{Cycle: cycle, Kind: kind, Packet: p.ID, Router: router, Port: port, VC: vc})
	}
}
