package noc

import (
	"fmt"
	"strings"
)

// CollectingTracer buffers macro events, optionally filtered to one packet
// ID: install it as Observer{Packet: c.PacketEvent}.
type CollectingTracer struct {
	// Filter enables filtering: only events of packet Only are kept.
	// (Packet IDs start at 1, but 0 is a legal value to filter for, so
	// the switch is explicit rather than a zero-value sentinel.)
	Filter bool
	Only   uint64
	Events []Event
}

// PacketEvent records e unless the filter excludes it.
func (c *CollectingTracer) PacketEvent(e Event) {
	if c.Filter && e.Packet != c.Only {
		return
	}
	c.Events = append(c.Events, e)
}

// PathOf returns the router sequence a packet visited.
func (c *CollectingTracer) PathOf(pkt uint64) []int {
	var out []int
	for _, e := range c.Events {
		if e.Packet != pkt {
			continue
		}
		switch e.Kind {
		case EvInject, EvHop:
			out = append(out, e.Router)
		}
	}
	return out
}

// Dump renders the event log for one packet.
func (c *CollectingTracer) Dump(pkt uint64) string {
	var b strings.Builder
	for _, e := range c.Events {
		if e.Packet != pkt {
			continue
		}
		fmt.Fprintf(&b, "cycle %6d  %-7s router %d\n", e.Cycle, e.Kind, e.Router)
	}
	return b.String()
}
