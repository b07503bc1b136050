package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 20, pct: 50, value: 10, beyond: 10},
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 199, pct: 90, value: 180, beyond: 19},
		{n: 200, pct: 95, value: 190, beyond: 10},
		{n: 999, pct: 95, value: 950, beyond: 49},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10},
	} {
		pct, v, beyond, ok := tail(samples(tc.n))
		if !ok || pct != tc.pct || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond (ok=%v), want p%g=%g with %d beyond",
				tc.n, pct, v, beyond, ok, tc.pct, tc.value, tc.beyond)
		}
	}
	if _, _, _, ok := tail(samples(19)); ok {
		t.Error("19 samples cannot leave 10 beyond the median")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("no samples should give NaN")
	}
}

func TestPerUnit(t *testing.T) {
	if v, err := perUnit(1500, 300); err != nil || v != 5 {
		t.Errorf("perUnit(1500, 300) = %g, %v", v, err)
	}
	if _, err := perUnit(1500, 0); err == nil {
		t.Error("a layer with no units must be an error, not +Inf")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.x", Start: 12, End: 18, Parent: 1},
		{Name: "op", Start: 200, End: 210, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if tot := layerTotals(spans); tot["op"] != 50+10 || tot["a"] != 14 {
		t.Errorf("layer totals %v", tot)
	}
}

func TestAggregateSpansTileTheirParent(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("replay", -1, 0)
	time.Sleep(time.Millisecond)
	tr.end(parent)
	at := tr.aggregate("arrive", parent, 0, tr.spans[parent].Start, 300*time.Microsecond)
	tr.aggregate("transmit", parent, 0, at, 200*time.Microsecond)
	self := selfTimes(tr.spans)
	dur := tr.spans[parent].End - tr.spans[parent].Start
	if self[0] != dur-int64(500*time.Microsecond) || self[1] != int64(300*time.Microsecond) || self[2] != int64(200*time.Microsecond) {
		t.Errorf("self times %v of a %d ns parent", self, dur)
	}
}

// TestSmoke builds smbsimd and runs every workload, untraced and
// traced, for a short window; any failed check fails the test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds smbsimd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "smbsimd")
	if out, err := exec.Command("go", "build", "-o", bin, "smbm/cmd/smbsimd").CombinedOutput(); err != nil {
		t.Fatalf("building smbsimd: %v\n%s", err, out)
	}
	for _, name := range []string{"sim_proc", "sim_value", "live_stream"} {
		for _, trace := range []int{0, 1} {
			var out bytes.Buffer
			res, err := run(config{
				workload: name, seed: 7, seconds: 3 * time.Second, trace: trace,
				daemon: bin, workdir: filepath.Join(dir, "run"),
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d checks failed\n%s", name, trace, res.Failed, res.Attempted, out.String())
			}
			if !strings.Contains(out.String(), "failed_ratio = 0 ratio") {
				t.Errorf("%s trace=%d: failed_ratio not 0\n%s", name, trace, out.String())
			}
			if trace == 1 {
				for _, m := range []string{"sim.attributed_share", "trace.overhead_ratio", "smbsimd.socket_share"} {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("%s traced run lacks %s", name, m)
					}
				}
			} else if _, ok := res.Metrics["setup_s"]; !ok {
				t.Errorf("%s lacks setup_s", name)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%d: result does not marshal: %v", name, trace, err)
			}
		}
	}
}
