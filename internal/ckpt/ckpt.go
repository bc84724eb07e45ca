// Package ckpt implements the NOCCKPT01 container: a small, versioned,
// CRC-protected binary format and the one framing for every whole-file
// artifact the repository writes — simulator checkpoints (noc.Network,
// noc.Reliable, cmp.System warm state), run-cache disk entries, search
// frontiers and flit traces. Only the streamed, seekable HNTR2 trace
// keeps its own chunk framing (see internal/trace/chunk.go).
//
// Layout:
//
//	magic   "NOCCKPT01"                  (9 bytes)
//	kind    string                       (what is inside: "noc-net", ...)
//	version uvarint                      (per-kind schema version)
//	header  cycle, flits, queued, nextPktID, fingerprint
//	body    kind-specific varint-coded fields
//	crc32   IEEE, little-endian fixed32  (over everything preceding it)
//
// All integers are varints (zigzag for signed); strings and byte slices
// are length-prefixed. Readers carry a sticky error: after the first
// decode failure every subsequent call is a no-op returning zero values,
// and Err reports the failure. Any structural problem — short buffer, bad
// magic, CRC mismatch, truncation — yields an error wrapping ErrCorrupt,
// which cache layers treat as a miss rather than a failure.
//
// Kinds written today: "noc-net", "noc-rel", "noc-run" (suspended runs),
// "cmp-warm", "runcache", "dse-frontier" and "flit-trace".
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint container. The trailing "01" is the
// container version; kind payloads carry their own schema version.
const Magic = "NOCCKPT01"

// ErrCorrupt is wrapped by every decode error caused by malformed input
// (as opposed to a well-formed checkpoint for a mismatched config).
var ErrCorrupt = errors.New("ckpt: corrupt container")

// Header is the kind-independent prefix of every checkpoint, readable
// without the originating Config (cmd/ckpttool relies on this). Kinds
// that have no natural value for a field store zero.
type Header struct {
	Kind        string
	Version     uint64
	Cycle       int64
	Flits       int64 // flits in flight inside the network
	Queued      int64 // packets queued at NIs
	NextPktID   uint64
	Fingerprint uint64 // golden fingerprint the restored state must reproduce
}

// Writer accumulates a checkpoint body after the magic and header.
type Writer struct {
	buf []byte
}

// NewWriter starts a checkpoint with the given header already encoded.
func NewWriter(h Header) *Writer {
	w := &Writer{buf: make([]byte, 0, 256)}
	w.buf = append(w.buf, Magic...)
	w.Str(h.Kind)
	w.U64(h.Version)
	w.I64(h.Cycle)
	w.I64(h.Flits)
	w.I64(h.Queued)
	w.U64(h.NextPktID)
	w.U64(h.Fingerprint)
	return w
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a zigzag-coded signed varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// F64 appends the IEEE-754 bits of v as a fixed 8-byte little-endian word.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Write appends p unframed, making Writer an io.Writer so an encoder
// (gob, a record block) can stream straight into the body. Only the last
// field of a body may be written this way; Reader.Rest returns it.
func (w *Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// crcLen is the CRC footer width.
const crcLen = 4

// Finish appends the CRC32 footer and returns the completed checkpoint.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	return w.buf
}

// Reader decodes a checkpoint produced by Writer. The magic, header and
// CRC are verified up front by NewReader; field accessors share a sticky
// error so call sites can decode a whole section and check Err once.
type Reader struct {
	data []byte // body only (header consumed, CRC stripped)
	pos  int
	hdr  Header
	err  error
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// NewReader validates the container (magic, CRC, header) and positions
// the reader at the first body field.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+crcLen {
		return nil, corrupt("short buffer (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corrupt("bad magic %q", data[:len(Magic)])
	}
	body := data[:len(data)-crcLen]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corrupt("crc mismatch: got %08x want %08x", got, want)
	}
	r := &Reader{data: body, pos: len(Magic)}
	r.hdr.Kind = r.StrMax(64)
	r.hdr.Version = r.U64()
	r.hdr.Cycle = r.I64()
	r.hdr.Flits = r.I64()
	r.hdr.Queued = r.I64()
	r.hdr.NextPktID = r.U64()
	r.hdr.Fingerprint = r.U64()
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// ReadHeader decodes only the header, without requiring the body to
// parse. Used by ckpttool for inspection.
func ReadHeader(data []byte) (Header, error) {
	r, err := NewReader(data)
	if err != nil {
		return Header{}, err
	}
	return r.hdr, nil
}

// Header returns the decoded container header.
func (r *Reader) Header() Header { return r.hdr }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error wrapping ErrCorrupt unless one is already
// set, so decoders can report semantic violations (a count out of range,
// an index past a table) through the same sticky error.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(format, args...)
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// I64 reads a zigzag-coded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Int reads a signed varint as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads one byte; anything other than 0/1 is corruption.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.Fail("truncated bool at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	r.pos++
	if b > 1 {
		r.Fail("bad bool byte %d at offset %d", b, r.pos-1)
		return false
	}
	return b == 1
}

// F64 reads a fixed 8-byte float.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.Fail("truncated float at offset %d", r.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// Bytes reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.pos) {
		r.Fail("byte slice length %d exceeds remaining %d", n, len(r.data)-r.pos)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return r.StrMax(1 << 20) }

// StrMax reads a length-prefixed string refusing lengths beyond max —
// used where a huge length would mean a corrupt stream, to avoid a large
// bogus allocation before the CRC would have caught it.
func (r *Reader) StrMax(max int) string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > uint64(max) || n > uint64(len(r.data)-r.pos) {
		r.Fail("string length %d exceeds remaining %d (max %d)", n, len(r.data)-r.pos, max)
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Rest consumes and returns every remaining body byte, unframed and
// uncopied (the counterpart of Writer.Write). The slice aliases the
// buffer passed to NewReader.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	rest := r.data[r.pos:]
	r.pos = len(r.data)
	return rest
}

// Done verifies the whole body was consumed. Trailing garbage would mean
// an encoder/decoder schema skew, which must not pass silently.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return corrupt("%d trailing bytes after body", len(r.data)-r.pos)
	}
	return nil
}

// WriteFile stores data at path atomically: it writes a temp file in the
// same directory and renames it into place, so a reader never observes a
// partial file and a crash mid-write leaves the previous contents (or
// nothing) behind. On any failure the temp file is removed.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}
