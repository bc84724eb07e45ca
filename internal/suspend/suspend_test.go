package suspend

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"heteronoc/internal/ckpt"
)

func testCheckpoint(cycle int64) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: "noc-run", Version: 1, Cycle: cycle, Fingerprint: 0xfeed})
	w.Str("runner position")
	w.U64(12345)
	return w.Finish()
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts") // Save creates it
	c := NewController(dir)
	data := testCheckpoint(900)
	if err := c.Save("run-a", data); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load("run-a")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Load = %d bytes, ok=%t; want the %d saved bytes", len(got), ok, len(data))
	}
	if saves, resumes := c.Stats(); saves != 1 || resumes != 1 {
		t.Fatalf("stats = %d saves / %d resumes, want 1/1", saves, resumes)
	}
	if n := Pending(dir); n != 1 {
		t.Fatalf("Pending = %d, want 1", n)
	}
	c.Clear("run-a")
	if _, ok := c.Load("run-a"); ok {
		t.Fatal("cleared checkpoint still loads")
	}
	if n := Pending(dir); n != 0 {
		t.Fatalf("Pending after Clear = %d, want 0", n)
	}
}

func TestLoadMissingKeyMisses(t *testing.T) {
	c := NewController(t.TempDir())
	if err := c.Save("present", testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Load("absent"); ok || got != nil {
		t.Fatalf("missing key loaded %d bytes", len(got))
	}
	if _, resumes := c.Stats(); resumes != 0 {
		t.Fatalf("a miss counted %d resumes", resumes)
	}
}

// TestLoadCorruptDeletesAndMisses: a truncated or bit-flipped checkpoint
// is deleted and treated as absent, so the run restarts from zero.
func TestLoadCorruptDeletesAndMisses(t *testing.T) {
	data := testCheckpoint(77)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)-3],
		"bitflip":   flipped,
		"empty":     {},
	} {
		c := NewController(t.TempDir())
		if err := c.Save("k", data); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path("k"), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Load("k"); ok {
			t.Fatalf("%s: corrupt checkpoint loaded", name)
		}
		if _, err := os.Stat(c.path("k")); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt checkpoint not deleted (stat err %v)", name, err)
		}
	}
}

func TestSaveWithoutDirFails(t *testing.T) {
	for _, c := range []*Controller{NewController(""), nil} {
		if err := c.Save("k", testCheckpoint(1)); err == nil {
			t.Fatal("Save with no directory succeeded")
		}
		if _, ok := c.Load("k"); ok {
			t.Fatal("Load with no directory hit")
		}
	}
}

// TestSaveFailureLeavesNoTemp drives the shared atomic write into a
// failing rename (a directory occupies the checkpoint's path): Save must
// return the error and leave no temp file behind.
func TestSaveFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c := NewController(dir)
	if err := os.Mkdir(c.path("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.path("k"), "occupant"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Save("k", testCheckpoint(5)); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	if left := tmpFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed Save left temp files: %v", left)
	}
	if saves, _ := c.Stats(); saves != 0 {
		t.Fatalf("failed Save counted %d saves", saves)
	}
}

func TestRequestSuspendAndContext(t *testing.T) {
	var nilCtl *Controller
	nilCtl.RequestSuspend() // inert, must not panic
	if nilCtl.Requested() {
		t.Fatal("nil controller reports a request")
	}
	c := NewController("")
	if c.Requested() {
		t.Fatal("fresh controller already requested")
	}
	c.RequestSuspend()
	c.RequestSuspend()
	if !c.Requested() {
		t.Fatal("RequestSuspend did not latch")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context carries a controller")
	}
	if FromContext(WithController(context.Background(), c)) != c {
		t.Fatal("controller lost through the context")
	}
}
