package dse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteronoc/internal/ckpt"
)

// sealFrontier wraps body in a valid dse-frontier container: the real
// magic and header, the fuzzed body, and a correct CRC, so the body
// decoder — not the checksum — is what sees the bytes.
func sealFrontier(body []byte) []byte {
	empty := ckpt.NewWriter(ckpt.Header{Kind: frontierKind, Version: frontierVersion}).Finish()
	out := append(empty[:len(empty)-4:len(empty)-4], body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// frontierBody strips the header and CRC off an encoded frontier.
func frontierBody(b []byte) []byte {
	empty := ckpt.NewWriter(ckpt.Header{Kind: frontierKind, Version: frontierVersion}).Finish()
	return b[len(empty)-4 : len(b)-4]
}

// FuzzFrontierDecode drives the frontier body decoder with arbitrary
// bodies inside valid containers. It must never panic, every rejection
// must wrap ErrFrontierCorrupt, and any state it accepts must survive an
// encode/decode round trip unchanged.
func FuzzFrontierDecode(f *testing.F) {
	f.Add(frontierBody(encodeFrontier("cfg", testState())))
	f.Add(frontierBody(encodeFrontier("", &searchState{})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeFrontier(sealFrontier(body), "")
		if err != nil {
			if !errors.Is(err, ErrFrontierCorrupt) {
				t.Fatalf("rejection does not wrap ErrFrontierCorrupt: %v", err)
			}
			return
		}
		again, err := decodeFrontier(encodeFrontier("h", st), "h")
		if err != nil {
			t.Fatalf("re-encoded accepted state fails to decode: %v", err)
		}
		if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", st) {
			t.Fatalf("round trip changed state:\n got %+v\nwant %+v", again, st)
		}
	})
}

// TestFrontierRetiredFormatNamed: a frontier written in the retired
// pre-container format fails with an error that names the format and
// says to delete the file, rather than a bare magic mismatch.
func TestFrontierRetiredFormatNamed(t *testing.T) {
	p := filepath.Join(t.TempDir(), "old.hndse")
	if err := os.WriteFile(p, []byte("HNDSE1\x01\x03cfg\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadFrontier(p, "cfg")
	if !errors.Is(err, ErrFrontierCorrupt) {
		t.Fatalf("err = %v, want ErrFrontierCorrupt", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "HNDSE1") || !strings.Contains(msg, "delete") {
		t.Fatalf("error %q does not name the retired format and the fix", msg)
	}
}

// TestFrontierRejectsOtherKind: a valid container of another kind (a run
// cache entry, a checkpoint) passed as a frontier is corrupt, not a
// fresh search.
func TestFrontierRejectsOtherKind(t *testing.T) {
	w := ckpt.NewWriter(ckpt.Header{Kind: "flit-trace", Version: 1})
	w.Str("cfg")
	if _, err := decodeFrontier(w.Finish(), "cfg"); !errors.Is(err, ErrFrontierCorrupt) {
		t.Fatalf("err = %v, want ErrFrontierCorrupt", err)
	}
}
