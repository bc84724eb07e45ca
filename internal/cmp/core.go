// Package cmp assembles the full CMP system of Table 2: 64 tiles (core +
// private L1 + shared L2 bank + router) on the HeteroNoC, a two-level MESI
// directory protocol, and memory controllers — the substrate for the
// paper's system-level evaluation (Sections 5.2-7).
package cmp

import (
	"heteronoc/internal/cmp/coherence"
	"heteronoc/internal/stats"
	"heteronoc/internal/trace"
)

// CoreConfig sizes a core model.
type CoreConfig struct {
	// Width is the issue/commit width in instructions per cycle.
	Width int
	// Window bounds how many instructions may commit past the oldest
	// outstanding miss (reorder-buffer reach).
	Window int
	// L1HitDelay stalls the pipeline on loads that hit (in-order cores
	// cannot hide the 2-cycle L1; OoO cores can).
	L1HitDelay int
}

// LargeCore is the Table 2 out-of-order core: 3-wide, 64-entry window.
func LargeCore() CoreConfig { return CoreConfig{Width: 3, Window: 64, L1HitDelay: 0} }

// SmallCore is the single-issue in-order core of the asymmetric CMP.
func SmallCore() CoreConfig { return CoreConfig{Width: 1, Window: 4, L1HitDelay: 1} }

// Core is a trace-driven processor model: it commits gap instructions at
// its width, issues memory operations against the L1, continues past
// misses up to its window, and stalls when MSHRs or the window fill up.
type Core struct {
	id   int
	cfg  CoreConfig
	tr   trace.Reader
	l1   *coherence.L1
	now  *int64 // system clock
	line func(addr uint64) uint64

	gapLeft     int
	havePending bool
	pending     trace.Entry
	pos         int64   // committed instructions; unlike Insts, not reset by ResetStats
	outstanding []int64 // instruction positions of in-flight misses (ascending)
	hitStall    int
	cbFree      []*missCB // completion-callback pool (see issueMem)

	// Statistics.
	Insts       int64
	Cycles      int64
	StallCycles int64
	MissRTT     stats.Summary // round-trip miss latency in core cycles
}

// NewCore builds a core bound to its L1 and trace.
func NewCore(id int, cfg CoreConfig, tr trace.Reader, l1 *coherence.L1, clock *int64, line func(uint64) uint64) *Core {
	return &Core{id: id, cfg: cfg, tr: tr, l1: l1, now: clock, line: line}
}

// IPC returns committed instructions per cycle.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Insts) / float64(c.Cycles)
}

// Step advances the core by one cycle.
func (c *Core) Step() {
	c.Cycles++
	if c.hitStall > 0 {
		c.hitStall--
		c.StallCycles++
		return
	}
	budget := c.cfg.Width
	progressed := false
	for budget > 0 {
		if len(c.outstanding) > 0 && c.pos-c.outstanding[0] >= int64(c.cfg.Window) {
			break // window full behind the oldest miss
		}
		if c.gapLeft > 0 {
			n := budget
			if c.gapLeft < n {
				n = c.gapLeft
			}
			c.gapLeft -= n
			c.pos += int64(n)
			c.Insts += int64(n)
			budget -= n
			progressed = true
			continue
		}
		if !c.havePending {
			c.pending = c.tr.Next()
			c.havePending = true
			c.gapLeft = c.pending.Gap
			if c.gapLeft > 0 {
				continue
			}
		}
		if !c.issueMem(&budget) {
			break
		}
		progressed = true
	}
	if !progressed {
		c.StallCycles++
	}
}

// missCB is a pooled completion context: it replaces the closure issueMem
// used to allocate per access. fn is the method value handed to L1.Access,
// bound once when the context is first created and reused thereafter.
type missCB struct {
	c        *Core
	issuePos int64
	issueAt  int64
	// sync is true while L1.Access is still on the stack: a hit's callback
	// runs in place and must not do miss bookkeeping.
	sync bool
	fn   func()
}

func (c *Core) getCB() *missCB {
	if n := len(c.cbFree); n > 0 {
		cb := c.cbFree[n-1]
		c.cbFree = c.cbFree[:n-1]
		return cb
	}
	cb := &missCB{c: c}
	cb.fn = cb.complete
	return cb
}

func (c *Core) putCB(cb *missCB) { c.cbFree = append(c.cbFree, cb) }

func (cb *missCB) complete() {
	c := cb.c
	c.pos++
	c.Insts++
	if cb.sync {
		return // L1 hit: the operation committed in place; issueMem frees cb
	}
	c.MissRTT.Add(float64(*c.now - cb.issueAt))
	for i, p := range c.outstanding {
		if p == cb.issuePos {
			c.outstanding = append(c.outstanding[:i], c.outstanding[i+1:]...)
			break
		}
	}
	c.putCB(cb)
}

// issueMem tries to issue the pending memory operation. It reports whether
// the core may keep executing this cycle.
func (c *Core) issueMem(budget *int) bool {
	e := c.pending
	cb := c.getCB()
	cb.issuePos = c.pos
	cb.issueAt = *c.now
	cb.sync = true
	res := c.l1.Access(c.line(e.Addr), e.Write, cb.fn)
	cb.sync = false
	switch res {
	case coherence.Hit:
		c.putCB(cb)
		c.havePending = false
		*budget--
		c.hitStall = c.cfg.L1HitDelay
		return c.hitStall == 0
	case coherence.MissIssued, coherence.Coalesced:
		c.havePending = false
		c.outstanding = append(c.outstanding, cb.issuePos)
		*budget--
		return true
	default: // Blocked: the L1 kept nothing; retry next cycle
		c.putCB(cb)
		return false
	}
}
