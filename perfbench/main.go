// Command perfbench is the repository's benchmark. It drives the store
// from outside — the pebblesdb API, internal/server's Server and Client,
// and the exported functions of the layer packages — through three seeded
// workloads (fill, read, serve), checks every result, and prints one JSON
// line of metrics: the end-to-end metrics in an untraced run (--trace 0),
// the per-layer metrics in a traced run (--trace 1). A traced fill run
// also loads a PebblesDB and a HyperLevelDB store in lockstep, for the
// exact structural metrics.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fill --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for what each workload measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// e2eUnits lists the end-to-end metrics, printed by every untraced run.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"kops":        "kops",
	"p50_us":      "us",
	"p99_us":      "us",
	"write_amp":   "ratio",
	"mem_peak_mb": "MB",
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	g        *gen
	dur      time.Duration
	traced   bool
	tr       *tracer

	attempted, failed atomic.Int64
	errsShown         atomic.Int64
	guardFailed       bool

	setups []float64 // set-up durations in seconds, one per set-up
	e2e    map[string]float64
	layer  map[string]float64
	mem    *memPeak
}

// opErr records one checked operation; a non-nil err counts as failed.
func (b *bench) opErr(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		if b.errsShown.Add(1) <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		}
	}
}

// guard fails the run when the workload no longer exercises its layer.
func (b *bench) guard(ok bool, format string, args ...any) {
	if !ok {
		b.guardFailed = true
		fmt.Fprintf(os.Stderr, "perfbench: %s: guard failed: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// say prints one named measurement for a human reader.
func say(name string, v float64, unit string, n int) {
	if n > 0 {
		fmt.Printf("%-32s %12.4f %-6s (n=%d)\n", name, v, unit, n)
	} else {
		fmt.Printf("%-32s %12.4f %s\n", name, v, unit)
	}
}

// setupReps is how many times fill sets up each round, closing all but
// the last store: its set-up takes milliseconds, so setup_s is a median
// over many.
const setupReps = 5

// timeSetup runs one set-up and records its duration.
func (b *bench) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	b.setups = append(b.setups, time.Since(start).Seconds())
	return err
}

// roundOut is what one round (a fresh store's fill, or one window
// of a long-running read or serve phase) measured.
type roundOut struct {
	ops  int64
	secs float64
	lat  map[string]*lat // per op type: put, get, seek, all
	c    counters        // counter delta over the timed phase
	rt   rtStats         // runtime delta over the timed phase
	v    map[string]float64
}

func newRound() roundOut {
	return roundOut{lat: map[string]*lat{}, v: map[string]float64{}}
}

func (r *roundOut) latOf(op string) *lat {
	l := r.lat[op]
	if l == nil {
		l = newLat(1 << 14)
		r.lat[op] = l
	}
	return l
}

// rounds runs fn until the measuring time is used up, at least once. In a
// traced run rounds alternate untraced and traced, at least one of each,
// so tracing overhead is measured within the run.
func (b *bench) rounds(fn func(r int, traced bool) (roundOut, error)) (plain, traced []roundOut, err error) {
	minRounds := 1
	if b.traced {
		minRounds = 2
	}
	deadline := time.Now().Add(b.dur)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		t := b.traced && r%2 == 1
		if t {
			b.tr.setRound(r)
		}
		out, err := fn(r, t)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", r, err)
		}
		fmt.Printf("round %d traced=%t: %d ops in %.3fs (%.2f kops)", r, t, out.ops, out.secs, float64(out.ops)/out.secs/1e3)
		for _, op := range []string{"put", "get", "seek"} {
			if l := out.lat[op]; l != nil && l.n() > 0 {
				p50, _ := l.pct(50)
				p99, _ := l.pct(99)
				fmt.Printf(" %s p50=%.3f p99=%.2f", op, p50, p99)
			}
		}
		fmt.Println()
		if t {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}
	return plain, traced, nil
}

// medianOf returns the median over rounds of f.
func medianOf(rs []roundOut, f func(r roundOut) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd fills the end-to-end metrics shared by all workloads from the
// untraced rounds; primary names the op type whose latency is reported.
func (b *bench) endToEnd(rs []roundOut, primary string) {
	b.e2e["kops"] = medianOf(rs, func(r roundOut) float64 { return float64(r.ops) / r.secs / 1e3 })
	n := 0
	for _, r := range rs {
		n += r.latOf(primary).n()
	}
	b.e2e["p50_us"] = medianOf(rs, func(r roundOut) float64 { v, _ := r.latOf(primary).pct(50); return v })
	b.e2e["p99_us"] = medianOf(rs, func(r roundOut) float64 { v, _ := r.latOf(primary).pct(99); return v })
	say(primary+"_p50_us", b.e2e["p50_us"], "us", n)
	say(primary+"_p99_us", b.e2e["p99_us"], "us", n)
	if _, ok := rs[0].v["write_amp"]; ok {
		b.e2e["write_amp"] = medianOf(rs, func(r roundOut) float64 { return r.v["write_amp"] })
	}
	for _, op := range []string{"put", "get", "seek"} {
		if op == primary {
			continue
		}
		pooled := newLat(0)
		for _, r := range rs {
			if l := r.lat[op]; l != nil {
				pooled.merge(l)
			}
		}
		if pooled.n() > 0 {
			p50, n := pooled.pct(50)
			p99, _ := pooled.pct(99)
			say(op+"_p50_us", p50, "us", n)
			say(op+"_p99_us", p99, "us", n)
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload: fill, read or serve")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fill|read|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		g:        newGen(*seed),
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		mem:      startMemPeak(),
	}
	if b.traced {
		b.tr = &tracer{}
	}
	err := run(b)
	memMB := b.mem.mb()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	b.e2e["setup_s"] = median(b.setups)
	if _, ok := b.e2e["mem_peak_mb"]; !ok {
		b.e2e["mem_peak_mb"] = memMB
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	if attempted == 0 {
		attempted = 1
		failed = 1
	}
	say("setup_s", b.e2e["setup_s"], "s", len(b.setups))
	say("mem_peak_mb", b.e2e["mem_peak_mb"], "MB", 0)
	say("op_fail_ratio", float64(failed)/float64(attempted), "ratio", int(attempted))

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   failed == 0 && !b.guardFailed,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]map[string]any{},
	}
	if b.traced {
		b.layer["op.fail_ratio"] = float64(failed) / float64(attempted)
		for _, m := range layerMetrics {
			out.Metrics[m.name] = map[string]any{"value": b.layer[m.name], "unit": m.unit}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := b.e2e[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", b.workload, name)
				os.Exit(1)
			}
			out.Metrics[name] = map[string]any{"value": v, "unit": unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(b *bench) error{
	"fill":  runFill,
	"read":  runRead,
	"serve": runServe,
}
