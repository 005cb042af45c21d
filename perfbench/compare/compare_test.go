package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if math.Abs(q[i]-want) > 1e-12 {
			t.Fatalf("quartile %d = %v, want %v", i, q[i], want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q = quartiles([]float64{1, 2, 4, 8, 16})
	for i, want := range []float64{1.5, 4, 12} {
		if math.Abs(q[i]-want) > 1e-12 {
			t.Fatalf("quartile %d = %v, want %v", i, q[i], want)
		}
	}
}

func bound(b float64) *float64 { return &b }

func TestJudgeRules(t *testing.T) {
	higher := metricSpec{Name: "kops", Better: "higher", Bound: bound(0.1)}
	lower := metricSpec{Name: "p99_us", Better: "lower", Bound: bound(0.1)}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		m      metricSpec
		parent []float64
		change []float64
		want   string
	}{
		{"clear gain", higher, steady, scale(steady, 1.2), "improved"},
		{"gain inside the parent's spread", higher, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, scale(steady, 1.02), "unresolved"},
		{"regression past the bound", lower, steady, scale(steady, 1.3), "worse"},
		{"small regression", lower, steady, scale(steady, 1.05), "within bound"},
		{"noisy parent, change everywhere better", lower, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, scale(steady, 0.5), "improved"},
		{"unbounded metric moved", metricSpec{Name: "x", Better: "higher"}, steady, scale(steady, 0.5), "worse"},
		{"unbounded metric still", metricSpec{Name: "x", Better: "higher"}, steady, steady, "no change shown"},
	} {
		if got := judge(tc.m, tc.parent, tc.change).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestFixtures runs the tool's comparison on the result sets in testdata.
func TestFixtures(t *testing.T) {
	data, err := os.ReadFile("testdata/bench.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	parent, err := loadRuns("testdata/parent")
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadRuns("testdata/change")
	if err != nil {
		t.Fatal(err)
	}
	rows, notes := compare(spec, parent, change)
	want := map[string]string{
		"fill/kops":                "improved",
		"fill/p50_us":              "unresolved",
		"fill/p99_us":              "worse",
		"fill/write_amp":           "within bound",
		"read/cache.get_hit_ratio": "improved",
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Workload + "/" + r.Metric
		if r.Verdict != want[key] {
			t.Errorf("%s: verdict %q, want %q", key, r.Verdict, want[key])
		}
		if r.Pairs != 10 {
			t.Errorf("%s: %d pairs, want 10 (the unpaired seed is ignored)", key, r.Pairs)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "read seed 4: change run incorrect") {
		t.Errorf("notes = %q, want one note on the failed read run", notes)
	}
	var out bytes.Buffer
	report(&out, rows, notes)
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "note: read seed 4") {
		t.Errorf("report output missing verdicts or notes:\n%s", out.String())
	}
}
