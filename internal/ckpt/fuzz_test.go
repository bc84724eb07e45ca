package ckpt

import (
	"runtime"
	"testing"
)

// seal frames body behind a valid magic and CRC, so the header and body
// decoders see fuzzed bytes instead of the CRC check rejecting them.
func seal(body []byte) []byte {
	w := &Writer{buf: append([]byte(Magic), body...)}
	return w.Finish()
}

// decodeAll runs NewReader, then the accessor sequence ops selects, then
// Done — the surface every kind decoder is built from.
func decodeAll(data, ops []byte) {
	ReadHeader(data)
	r, err := NewReader(data)
	if err != nil {
		return
	}
	r.Header()
	for _, op := range ops {
		switch op % 10 {
		case 0:
			r.U64()
		case 1:
			r.I64()
		case 2:
			r.Int()
		case 3:
			r.Bool()
		case 4:
			r.F64()
		case 5:
			r.Bytes()
		case 6:
			r.Str()
		case 7:
			r.StrMax(int(op))
		case 8:
			r.Rest()
		case 9:
			r.Fail("op %d", op)
		}
	}
	r.Err()
	r.Done()
}

// FuzzContainer feeds arbitrary bytes to the container decoder twice: raw
// (magic, length and CRC rejection) and sealed (header and body fields).
// No input may panic, and decoding may allocate no more than the input
// length — every Str/Bytes copy is paid for by the input bytes it
// consumes — up to allocator size-class rounding (at most 16 bytes per
// consumed byte) and a fixed allowance for the Reader and one error.
func FuzzContainer(f *testing.F) {
	w := NewWriter(Header{Kind: "noc-net", Version: 2, Cycle: 9, Flits: 3, Fingerprint: 7})
	w.U64(3)
	w.Str("abc")
	w.Bytes([]byte{1, 2})
	w.F64(1.5)
	w.Bool(true)
	w.I64(-4)
	good := w.Finish()
	f.Add(good, []byte{0, 6, 5, 4, 3, 1})
	f.Add(good[len(Magic):len(good)-crcLen], []byte{6, 0, 1, 1, 1, 1, 1, 0, 6, 5, 4, 3, 1})
	f.Add([]byte{}, []byte{})
	f.Add([]byte(Magic), []byte{8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{5, 6, 7})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeAll(in, ops)
			runtime.ReadMemStats(&after)
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+4096); grew > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(in), grew, limit)
			}
		}
	})
}
