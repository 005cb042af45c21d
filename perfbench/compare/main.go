// Command compare judges a change against its parent from two sets of
// benchmark results. Each set is a directory of files named
// <workload>-seed<N>.json, each holding the JSON line one run of perfbench
// printed last. Runs of the two sets pair up by workload and seed.
//
//	go run ./compare -bench ../BENCHMARK.json parent-dir change-dir
//
// For each workload and metric it prints both sides' median and quartiles,
// how many pairs the change won, and a verdict:
//
//   - improved: the change won at least nine tenths of the pairs and the
//     medians differ by more than the parent's own quartile spread;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound, and by more than the parent's own spread when
//     that spread is wider than the bound;
//   - unresolved: the parent's own spread is wider than the bound and the
//     medians lie within it, unless every run of the change reads better
//     than every run of the parent;
//   - within bound: none of the above.
//
// Per-layer metrics have no bound; they are improved or worse by the
// nine-tenths rule, in either direction, and otherwise "no change shown".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// result is the JSON line one run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runs maps workload -> seed -> result.
type runs map[string]map[int]result

var fileRE = regexp.MustCompile(`^([A-Za-z0-9_.-]+)-seed(-?\d+)\.json$`)

func loadRuns(dir string) (runs, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := runs{}
	for _, e := range entries {
		m := fileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seed, _ := strconv.Atoi(m[2])
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if out[m[1]] == nil {
			out[m[1]] = map[int]result{}
		}
		out[m[1]][seed] = r
	}
	return out, nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var q [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// row is one workload x metric comparison.
type row struct {
	Workload, Metric, Unit string
	Parent, Change         [3]float64 // q1, median, q3
	Wins, Pairs            int
	Verdict                string
}

// judge applies the verdict rules to one metric's paired values.
func judge(m metricSpec, parent, change []float64) row {
	r := row{Metric: m.Name, Unit: m.Unit, Pairs: len(parent)}
	pq, cq := quartiles(parent), quartiles(change)
	pm, cm := median(parent), median(change)
	r.Parent = [3]float64{pq[0], pm, pq[2]}
	r.Change = [3]float64{cq[0], cm, cq[2]}
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	losses := 0
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			r.Wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	spread := pq[2] - pq[0]
	diff := cm - pm
	if diff < 0 {
		diff = -diff
	}
	separated := diff > spread
	switch {
	case 10*r.Wins >= 9*r.Pairs && separated && better(cm, pm):
		r.Verdict = "improved"
	case m.Bound == nil && 10*losses >= 9*r.Pairs && separated && better(pm, cm):
		r.Verdict = "worse"
	case m.Bound == nil:
		r.Verdict = "no change shown"
	case worseBy(m, pm, cm) > *m.Bound && separated:
		r.Verdict = "worse"
	case pm != 0 && spread/abs(pm) > *m.Bound && !allBetter(m, change, parent):
		r.Verdict = "unresolved"
	case worseBy(m, pm, cm) > *m.Bound:
		r.Verdict = "worse"
	default:
		r.Verdict = "within bound"
	}
	return r
}

// worseBy is how much worse the change's median is than the parent's, as
// a share of the parent's median (negative when it is better).
func worseBy(m metricSpec, parent, change float64) float64 {
	if parent == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (parent - change) / abs(parent)
	}
	return (change - parent) / abs(parent)
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(m metricSpec, change, parent []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if m.Better == "higher" && c <= p || m.Better != "higher" && c >= p {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compare pairs the two sets and judges every metric present in both.
func compare(spec benchSpec, parent, change runs) ([]row, []string) {
	var rows []row
	var notes []string
	specs := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, w := range spec.Workloads {
		var seeds []int
		for s := range parent[w.Name] {
			if _, ok := change[w.Name][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Ints(seeds)
		if len(seeds) == 0 {
			continue
		}
		for _, s := range seeds {
			for side, r := range map[string]result{"parent": parent[w.Name][s], "change": change[w.Name][s]} {
				if !r.Correct || r.Failed > 0 {
					notes = append(notes, fmt.Sprintf("%s seed %d: %s run incorrect (%d of %d ops failed)", w.Name, s, side, r.Failed, r.Attempted))
				}
			}
		}
		for _, m := range specs {
			var p, c []float64
			for _, s := range seeds {
				pv, pok := parent[w.Name][s].Metrics[m.Name]
				cv, cok := change[w.Name][s].Metrics[m.Name]
				if pok && cok {
					p, c = append(p, pv.Value), append(c, cv.Value)
				}
			}
			if len(p) == 0 {
				continue
			}
			r := judge(m, p, c)
			r.Workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows, notes
}

func report(w io.Writer, rows []row, notes []string) {
	fmt.Fprintf(w, "%-8s %-32s %-32s %-32s %8s %7s  %s\n", "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "delta", "wins", "verdict")
	for _, r := range rows {
		delta := 0.0
		if r.Parent[1] != 0 {
			delta = (r.Change[1] - r.Parent[1]) / abs(r.Parent[1]) * 100
		}
		fmt.Fprintf(w, "%-8s %-32s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%% %3d/%-3d  %s\n",
			r.Workload, r.Metric,
			r.Parent[0], r.Parent[1], r.Parent[2],
			r.Change[0], r.Change[1], r.Change[2],
			delta, r.Wins, r.Pairs, r.Verdict)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] parent-dir change-dir")
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *benchPath, err)
		os.Exit(1)
	}
	parent, err := loadRuns(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	change, err := loadRuns(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rows, notes := compare(spec, parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "compare: no workload has runs with the same seed in both sets")
		os.Exit(1)
	}
	report(os.Stdout, rows, notes)
}
