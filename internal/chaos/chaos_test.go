package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want map[string]Spec
	}{
		{"", map[string]Spec{}},
		{"  ", map[string]Spec{}},
		{"worker.panic=panic", map[string]Spec{PointWorkerPanic: {Prob: 1, Panic: true}}},
		{"worker.panic=p0.3+panic+x3,disk.load.slow=d20ms+p0.5,disk.load.corrupt=corrupt+p0.3",
			map[string]Spec{
				PointWorkerPanic: {Prob: 0.3, Panic: true, Times: 3},
				PointDiskLoad:    {Prob: 0.5, Delay: 20 * time.Millisecond},
				PointDiskCorrupt: {Prob: 0.3, Corrupt: true},
			}},
		{"disk.store.slow=d1s+p0, run.stall=d5ms+p1+x0", map[string]Spec{
			PointDiskStore: {Prob: 0, Delay: time.Second},
			PointRunStall:  {Prob: 1, Delay: 5 * time.Millisecond},
		}},
	}
	for _, tc := range cases {
		c, err := Parse(tc.spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		got := map[string]Spec{}
		for name, p := range c.points {
			got[name] = p.spec
		}
		if len(got) != len(tc.want) {
			t.Errorf("Parse(%q) armed %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("Parse(%q) %s = %+v, want %+v", tc.spec, name, got[name], want)
			}
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, errSub string }{
		{"worker.panic", "want name=actions"},
		{"=panic", "want name=actions"},
		{"worker.panik=panic", "unknown point"},
		{"worker.panic=panic,Disk.load.slow=d1ms", "unknown point"},
		{"worker.panic=pNaN+panic", "bad probability"},
		{"worker.panic=p-0.1", "bad probability"},
		{"worker.panic=p1.5", "bad probability"},
		{"worker.panic=pabc", "bad probability"},
		{"worker.panic=x-1", "bad count"},
		{"worker.panic=xmany", "bad count"},
		{"disk.load.slow=d-5ms", "bad delay"},
		{"disk.load.slow=dsoon", "bad delay"},
		{"worker.panic=explode", "unknown action"},
		{"worker.panic=panic+", "unknown action"},
	} {
		_, err := Parse(tc.spec, 1)
		if err == nil || !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("Parse(%q) err = %v; want an error containing %q", tc.spec, err, tc.errSub)
		}
	}
}

func TestHitCountsFiringsUpToTimes(t *testing.T) {
	c := New(1)
	c.Set(PointRunStall, Spec{Prob: 1, Times: 2})
	for i := 0; i < 5; i++ {
		c.Hit(PointRunStall)
	}
	if got := c.Fired(PointRunStall); got != 2 {
		t.Fatalf("Fired = %d, want 2 (Times cap)", got)
	}
	var nilChaos *Chaos
	if nilChaos.Hit(PointRunStall) || nilChaos.Fired(PointRunStall) != 0 {
		t.Fatal("nil *Chaos is not inert")
	}
}
