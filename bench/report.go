package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef declares one metric the bench reports on every workload.
type metricDef struct {
	name, unit string
	higher     bool // true when a higher value is better
}

// e2eMetrics are what a user of the system sees; runs without tracing
// report them, and BENCHMARK.json bounds each one.
var e2eMetrics = []metricDef{
	{"setup_s", "s", false},
	{"cells_per_s", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// layerMetrics are the layer costs the ladder measures on every workload's
// own classes; traced runs report them.
var layerMetrics = []metricDef{
	{"workload.generate_ms", "ms", false},
	{"asm.assemble_us", "us", false},
	{"core.install_us", "us", false},
	{"core.expansions_per_kinst", "1/kinst", false},
	{"core.memo_hit_frac", "frac", true},
	{"emu.ns_per_inst", "ns", false},
	{"emu.interp_ns_per_inst", "ns", false},
	{"emu.translated_blocks", "count", false},
	{"trace.capture_ns_per_rec", "ns", false},
	{"trace.encode_ns_per_rec", "ns", false},
	{"trace.bytes_per_rec", "B", false},
	{"trace.decode_ns_per_rec", "ns", false},
	{"store.put_ns_per_rec", "ns", false},
	{"store.get_ns_per_rec", "ns", false},
	{"cpu.replay_ns_per_rec", "ns", false},
	{"cpu.many_shared_ns_per_rec", "ns", false},
	{"cpu.many_walk_ns_per_rec_cfg", "ns", false},
}

// measure is one reported value with the number of samples behind it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// outcome is everything one workload run reports.
type outcome struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Attempted int64            `json:"attempted"`
	Done      int64            `json:"done"`
	Trapped   int64            `json:"trapped"`
	Failed    map[string]int64 `json:"failed,omitempty"`

	E2E map[string]measure `json:"e2e"`
	// Layers holds the declared layer metrics plus the workload's own:
	// server.* on serving workloads, experiments.* on figures.
	Layers map[string]measure `json:"layers,omitempty"`
	// Overhead is, per end-to-end metric, the traced run's value relative
	// to the untraced one, minus one.
	Overhead map[string]float64 `json:"tracing_overhead,omitempty"`

	Gates  []string `json:"gates"`  // checks that passed
	Broken []string `json:"broken"` // checks that failed
}

func newOutcome(name string, seed int64) *outcome {
	return &outcome{Workload: name, Seed: seed, Failed: map[string]int64{},
		E2E: map[string]measure{}, Layers: map[string]measure{}}
}

func (o *outcome) failed() int64 {
	var n int64
	for _, v := range o.Failed {
		n += v
	}
	return n
}

// gate records a correctness check: ok, or broken with the reason.
func (o *outcome) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		o.Gates = append(o.Gates, msg)
	} else {
		o.Broken = append(o.Broken, msg)
	}
}

func (o *outcome) layer(name, unit string, v float64, n int) {
	o.Layers[name] = measure{Value: v, Unit: unit, N: n}
}

// print writes the human-readable report.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d): attempted %d, done %d, trapped %d, failed %d\n",
		o.Workload, o.Seed, o.Attempted, o.Done, o.Trapped, o.failed())
	for _, d := range e2eMetrics {
		if m, ok := o.E2E[d.name]; ok {
			line := fmt.Sprintf("  %-30s %12.4f %-7s n=%d", d.name, m.Value, m.Unit, m.N)
			if ov, ok := o.Overhead[d.name]; ok {
				line += fmt.Sprintf("  tracing %+.1f%%", 100*ov)
			}
			fmt.Fprintln(w, line)
		}
	}
	names := make([]string, 0, len(o.Layers))
	for n := range o.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Layers[n]
		fmt.Fprintf(w, "  %-30s %12.4f %-7s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, g := range o.Gates {
		fmt.Fprintln(w, "  ok:     "+g)
	}
	for _, g := range o.Broken {
		fmt.Fprintln(w, "  BROKEN: "+g)
	}
}

// result is the one-line JSON the benchmark contract reads last on stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine condenses outcomes into the contract's line: the end-to-end
// metrics untraced, the declared layer metrics traced. With more than one
// workload every metric name is prefixed with its workload.
func resultLine(outs []*outcome, traced bool) result {
	r := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, o := range outs {
		r.Attempted += o.Attempted
		r.Failed += o.failed()
		if len(o.Broken) > 0 {
			r.Correct = false
		}
		defs, vals := e2eMetrics, o.E2E
		if traced {
			defs, vals = layerMetrics, o.Layers
		}
		for _, d := range defs {
			name := d.name
			if len(outs) > 1 {
				name = o.Workload + "/" + name
			}
			if m, ok := vals[d.name]; ok {
				r.Metrics[name] = resultValue{m.Value, m.Unit}
			}
		}
	}
	if !r.Correct {
		r.Metrics = map[string]resultValue{}
	}
	return r
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), which is how spreads are judged against their bounds.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
