package noc

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"heteronoc/internal/ckpt"
	"heteronoc/internal/obs"
)

// FlitRecord is one compact trace record: a macro packet event or a
// microarchitectural detail event (see EventKind). Router is -1 for ejects;
// Port/VC are -1 where not applicable.
type FlitRecord struct {
	Cycle  int64
	Packet uint64
	Kind   EventKind
	Router int16
	Port   int16
	VC     int16

	seq uint64 // global capture order; in-memory only, implied by file order
}

// FlitTracerConfig sizes the flit tracer.
type FlitTracerConfig struct {
	// PerRouter is the ring capacity (records) of each per-router arena.
	// Zero means 4096. When an arena fills, the oldest records in it are
	// overwritten and counted in Dropped.
	PerRouter int
}

// FlitTracer captures flit/packet events into per-router ring arenas with a
// bounded memory footprint, for export to the binary trace format or a
// Perfetto-loadable Chrome trace. Install Record as the Observer's Packet
// stream, and also as its Detail stream to capture the microarchitectural
// events; a macro-only capture leaves Detail nil.
//
// Per-router rings (rather than one global ring) keep a congested hot spot
// from evicting the history of quiet routers, so a post-mortem still shows
// every router's recent activity.
type FlitTracer struct {
	numRouters int
	arenas     []overwriteRing[FlitRecord] // one per router + one sink arena for ejects
	seq        uint64
}

// NewFlitTracer builds a tracer for a network with numRouters routers.
func NewFlitTracer(numRouters int, cfg FlitTracerConfig) *FlitTracer {
	if numRouters < 1 {
		panic("noc: NewFlitTracer with no routers")
	}
	per := cfg.PerRouter
	if per <= 0 {
		per = 4096
	}
	ft := &FlitTracer{numRouters: numRouters}
	ft.arenas = make([]overwriteRing[FlitRecord], numRouters+1)
	backing := make([]FlitRecord, (numRouters+1)*per)
	for i := range ft.arenas {
		ft.arenas[i].buf = backing[i*per : (i+1)*per]
	}
	return ft
}

// NewNetworkFlitTracer is NewFlitTracer sized for n, but not yet installed
// (pass its Record to n.SetObserver).
func NewNetworkFlitTracer(n *Network, cfg FlitTracerConfig) *FlitTracer {
	return NewFlitTracer(len(n.routers), cfg)
}

// Record captures one event into its router's arena.
func (ft *FlitTracer) Record(e Event) {
	idx := e.Router
	if idx < 0 || idx >= ft.numRouters {
		idx = ft.numRouters // sink arena: ejects and anything off-mesh
	}
	ft.arenas[idx].push(FlitRecord{
		Cycle: e.Cycle, Packet: e.Packet, Kind: e.Kind,
		Router: int16(e.Router), Port: e.Port, VC: e.VC,
		seq: ft.seq,
	})
	ft.seq++
}

// Dropped returns how many records were overwritten by ring wrap-around.
func (ft *FlitTracer) Dropped() uint64 {
	var total uint64
	for i := range ft.arenas {
		total += ft.arenas[i].dropped
	}
	return total
}

// Len returns the number of live records across all arenas.
func (ft *FlitTracer) Len() int {
	total := 0
	for i := range ft.arenas {
		total += ft.arenas[i].n
	}
	return total
}

// Records returns all live records merged into global capture order.
func (ft *FlitTracer) Records() []FlitRecord {
	out := make([]FlitRecord, 0, ft.Len())
	for i := range ft.arenas {
		out = ft.arenas[i].appendTo(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Binary flit-trace file format: a NOCCKPT01 container (internal/ckpt) of
// kind "flit-trace", so the file carries a CRC like every other artifact.
// Header fields other than kind and version are zero. Body:
//
//	uvarint  number of routers
//	uvarint  record count N
//	24*N     records, in capture order, fixed-width little-endian:
//	         int64 cycle, uint64 packet,
//	         int16 router, int16 port, int16 vc,
//	         uint8 kind, uint8 reserved (zero)
const (
	flitTraceKind    = "flit-trace"
	flitTraceVersion = 1
	flitRecordSize   = 24
)

// FlitTrace is a decoded binary flit trace.
type FlitTrace struct {
	NumRouters int
	Records    []FlitRecord // capture order
}

func writeFlitTrace(w io.Writer, numRouters int, recs []FlitRecord) error {
	cw := ckpt.NewWriter(ckpt.Header{Kind: flitTraceKind, Version: flitTraceVersion})
	cw.U64(uint64(numRouters))
	cw.U64(uint64(len(recs)))
	var b [flitRecordSize]byte
	for i := range recs {
		rec := &recs[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(rec.Cycle))
		binary.LittleEndian.PutUint64(b[8:], rec.Packet)
		binary.LittleEndian.PutUint16(b[16:], uint16(rec.Router))
		binary.LittleEndian.PutUint16(b[18:], uint16(rec.Port))
		binary.LittleEndian.PutUint16(b[20:], uint16(rec.VC))
		b[22] = byte(rec.Kind)
		cw.Write(b[:])
	}
	_, err := w.Write(cw.Finish())
	return err
}

// WriteBinary writes the tracer's live records in the binary trace format.
func (ft *FlitTracer) WriteBinary(w io.Writer) error {
	return writeFlitTrace(w, ft.numRouters, ft.Records())
}

// WriteBinary re-encodes a decoded trace.
func (tr *FlitTrace) WriteBinary(w io.Writer) error {
	return writeFlitTrace(w, tr.NumRouters, tr.Records)
}

// ReadFlitTrace decodes a binary flit trace. The container's CRC is
// verified before any record is decoded, and the record count must match
// the body bytes that follow it exactly, so allocation is bounded by the
// file's size, never by the count it claims.
func ReadFlitTrace(r io.Reader) (*FlitTrace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("noc: flit trace: %w", err)
	}
	cr, err := ckpt.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("noc: flit trace: %w", err)
	}
	if h := cr.Header(); h.Kind != flitTraceKind || h.Version != flitTraceVersion {
		return nil, fmt.Errorf("noc: not a flit trace (%s v%d container)", h.Kind, h.Version)
	}
	tr := &FlitTrace{NumRouters: int(cr.U64())}
	count := cr.U64()
	body := cr.Rest()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("noc: flit trace: %w", err)
	}
	if count > uint64(len(body))/flitRecordSize || count*flitRecordSize != uint64(len(body)) {
		return nil, fmt.Errorf("noc: flit trace claims %d records in %d body bytes", count, len(body))
	}
	tr.Records = make([]FlitRecord, count)
	for i := range tr.Records {
		b := body[i*flitRecordSize:]
		tr.Records[i] = FlitRecord{
			Cycle:  int64(binary.LittleEndian.Uint64(b[0:])),
			Packet: binary.LittleEndian.Uint64(b[8:]),
			Router: int16(binary.LittleEndian.Uint16(b[16:])),
			Port:   int16(binary.LittleEndian.Uint16(b[18:])),
			VC:     int16(binary.LittleEndian.Uint16(b[20:])),
			Kind:   EventKind(b[22]),
			seq:    uint64(i),
		}
	}
	return tr, nil
}

// ChromeTraceEvents converts flit records into Chrome trace events laid out
// for Perfetto: one process per router (plus a "network" process for NI
// injects/ejects), one thread per output port, one instant event per record
// (1 cycle = 1 µs), and a running packets-in-flight counter derived from
// inject/eject pairs. recs must be in capture order.
func ChromeTraceEvents(numRouters int, recs []FlitRecord) []obs.ChromeEvent {
	netPID := numRouters
	out := make([]obs.ChromeEvent, 0, len(recs)+numRouters+8)
	pidSeen := make([]bool, numRouters+1)
	type tidKey struct{ pid, tid int }
	tidSeen := map[tidKey]bool{}
	meta := func(pid, tid int) {
		if !pidSeen[pid] {
			pidSeen[pid] = true
			name := fmt.Sprintf("router %d", pid)
			if pid == netPID {
				name = "network"
			}
			out = append(out, obs.ProcessName(pid, name))
		}
		k := tidKey{pid, tid}
		if !tidSeen[k] {
			tidSeen[k] = true
			name := fmt.Sprintf("port %d", tid-1)
			if tid == 0 {
				name = "packets"
			}
			out = append(out, obs.ThreadName(pid, tid, name))
		}
	}
	inflight := 0
	for i := range recs {
		rec := &recs[i]
		pid := int(rec.Router)
		if pid < 0 || pid > numRouters {
			pid = netPID
		}
		tid := int(rec.Port) + 1 // port -1 (macro events) → thread 0
		meta(pid, tid)
		args := map[string]any{"packet": rec.Packet}
		if rec.VC >= 0 {
			args["vc"] = rec.VC
		}
		out = append(out, obs.ChromeEvent{
			Name: rec.Kind.String(), Cat: "noc", Ph: "i", S: "t",
			TS: float64(rec.Cycle), PID: pid, TID: tid, Args: args,
		})
		switch rec.Kind {
		case EvInject:
			inflight++
		case EvEject:
			inflight--
		default:
			continue
		}
		meta(netPID, 0)
		out = append(out, obs.ChromeEvent{
			Name: "packets_inflight", Ph: "C", TS: float64(rec.Cycle),
			PID: netPID, Args: map[string]any{"packets": inflight},
		})
	}
	return out
}

// WriteChromeTrace exports the tracer's live records as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (ft *FlitTracer) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, ChromeTraceEvents(ft.numRouters, ft.Records()))
}

// WriteChromeTrace exports a decoded binary trace as Chrome trace-event JSON.
func (tr *FlitTrace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, ChromeTraceEvents(tr.NumRouters, tr.Records))
}
