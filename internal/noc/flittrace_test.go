package noc

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/obs"
)

func TestCollectingTracerFilterZero(t *testing.T) {
	// Packet ID 0 must be filterable: the switch is explicit, not a
	// zero-value sentinel.
	c := &CollectingTracer{Filter: true, Only: 0}
	c.PacketEvent(Event{Kind: EvInject, Packet: 0, Router: 1})
	c.PacketEvent(Event{Kind: EvInject, Packet: 7, Router: 2})
	if len(c.Events) != 1 || c.Events[0].Packet != 0 {
		t.Fatalf("filter for packet 0 kept %v", c.Events)
	}
	// And the zero value (Filter false) collects everything.
	all := &CollectingTracer{}
	all.PacketEvent(Event{Kind: EvInject, Packet: 0})
	all.PacketEvent(Event{Kind: EvInject, Packet: 7})
	if len(all.Events) != 2 {
		t.Fatalf("unfiltered tracer kept %d events, want 2", len(all.Events))
	}
}

func TestCollectingTracerPathOfAndDump(t *testing.T) {
	c := &CollectingTracer{}
	for _, e := range []Event{
		{Cycle: 1, Kind: EvInject, Packet: 5, Router: 0},
		{Cycle: 4, Kind: EvHop, Packet: 5, Router: 1},
		{Cycle: 5, Kind: EvHop, Packet: 9, Router: 3}, // other packet
		{Cycle: 7, Kind: EvHop, Packet: 5, Router: 2},
		{Cycle: 9, Kind: EvEject, Packet: 5, Router: -1},
	} {
		c.PacketEvent(e)
	}
	path := c.PathOf(5)
	want := []int{0, 1, 2}
	if len(path) != len(want) {
		t.Fatalf("PathOf = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathOf = %v, want %v", path, want)
		}
	}
	dump := c.Dump(5)
	for _, sub := range []string{"inject", "hop", "eject"} {
		if !bytes.Contains([]byte(dump), []byte(sub)) {
			t.Errorf("Dump missing %q:\n%s", sub, dump)
		}
	}
	if c.Dump(42) != "" {
		t.Error("Dump of unknown packet not empty")
	}
}

// tracedMeshRun drives a loaded mesh with ft installed and returns the
// network.
func tracedMeshRun(t *testing.T, ft *FlitTracer) *Network {
	t.Helper()
	n := newMeshNet(t)
	n.SetTracer(ft)
	for i := 0; i < 40; i++ {
		n.Inject(&Packet{Src: i % 64, Dst: (i*17 + 5) % 64, NumFlits: 4})
	}
	runUntilQuiesced(t, n, 10000)
	return n
}

func TestFlitTracerCapturesDetail(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	recs := ft.Records()
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	seen := map[EventKind]int{}
	for _, r := range recs {
		seen[r.Kind]++
	}
	for _, k := range []EventKind{EvInject, EvHop, EvEject, EvVCAlloc, EvSwitchAlloc} {
		if seen[k] == 0 {
			t.Errorf("no %v records (saw %v)", k, seen)
		}
	}
	// Capture order: seq strictly increasing implies cycles nondecreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			t.Fatal("records out of capture order")
		}
	}
}

func TestFlitTracerMacroOnly(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{MacroOnly: true})
	tracedMeshRun(t, ft)
	for _, r := range ft.Records() {
		switch r.Kind {
		case EvVCAlloc, EvSwitchAlloc, EvCreditStall:
			t.Fatalf("macro-only tracer captured %v", r.Kind)
		}
	}
}

func TestFlitTracerRingBound(t *testing.T) {
	const per = 8
	ft := NewFlitTracer(64, FlitTracerConfig{PerRouter: per})
	tracedMeshRun(t, ft)
	if got, max := ft.Len(), (64+1)*per; got > max {
		t.Fatalf("tracer holds %d records, cap is %d", got, max)
	}
	if ft.Dropped() == 0 {
		t.Fatal("tiny rings dropped nothing under load")
	}
}

func TestFlitTraceBinaryRoundTrip(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	var buf bytes.Buffer
	if err := ft.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	want := ft.Records()
	if h, err := ckpt.ReadHeader(buf.Bytes()); err != nil || h.Kind != flitTraceKind {
		t.Fatalf("flit trace is not a %s container: %+v, %v", flitTraceKind, h, err)
	}
	tr, err := ReadFlitTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRouters != 64 || len(tr.Records) != len(want) {
		t.Fatalf("decoded %d routers / %d records, want 64 / %d",
			tr.NumRouters, len(tr.Records), len(want))
	}
	for i := range want {
		g, w := tr.Records[i], want[i]
		g.seq, w.seq = 0, 0
		if g != w {
			t.Fatalf("record %d: %+v != %+v", i, g, w)
		}
	}
}

func TestReadFlitTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadFlitTrace(bytes.NewReader([]byte("BADMAGIC\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadFlitTrace(bytes.NewReader([]byte("NOCFLT01"))); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestReadFlitTraceHugeCountNoAlloc is the regression for a 24-byte file
// claiming 2^32 records: the count is checked against the body bytes
// before anything is allocated, so the read fails instead of exhausting
// memory.
func TestReadFlitTraceHugeCountNoAlloc(t *testing.T) {
	w := ckpt.NewWriter(ckpt.Header{Kind: flitTraceKind, Version: flitTraceVersion})
	w.U64(64)
	w.U64(1 << 32)
	data := w.Finish()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFlitTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("huge record count: err = %v, want a count error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 2^32-record claim allocated %d bytes", grew)
	}
}

// TestReadFlitTraceTruncatedFailsCRC: flit traces now carry the
// container CRC, so a file cut short anywhere is rejected as corrupt.
func TestReadFlitTraceTruncatedFailsCRC(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	var buf bytes.Buffer
	if err := ft.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) - flitRecordSize, len(full) / 2} {
		_, err := ReadFlitTrace(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "crc mismatch") {
			t.Fatalf("cut at %d of %d: err = %v, want a CRC failure", cut, len(full), err)
		}
	}
}

func TestFlitTraceChromeExport(t *testing.T) {
	ft := NewFlitTracer(64, FlitTracerConfig{})
	tracedMeshRun(t, ft)
	var buf bytes.Buffer
	if err := ft.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	nEvents, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if nEvents <= ft.Len() {
		t.Fatalf("chrome trace has %d events for %d records (missing metadata/counters?)",
			nEvents, ft.Len())
	}
}
