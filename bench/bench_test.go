package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/load"
)

// The tests run every workload at a tiny scale through the same code as
// the benchmark: real disesrvd children, figure children re-executed from
// the test binary, the ladder, the gates.

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "figures" {
		os.Exit(figuresChild())
	}
	os.Exit(m.Run())
}

var tinyScale = scale{
	standIns:   []string{"mcf", "bzip2"},
	figBenches: []string{"bzip2", "gzip", "mcf"},
	figScaleK:  60,
	setups:     2,
	figPasses:  1,
}

var tinyGolden = sync.OnceValue(func() []byte {
	o, _ := parseFigOpts(tinyScale.figOpts())
	var buf bytes.Buffer
	experiments.All(o, &buf)
	return buf.Bytes()
})

func tinyBench(t *testing.T, traced bool) *bench {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, seed: 7, seconds: 300 * time.Millisecond, scale: tinyScale, figGolden: tinyGolden()}
	if traced {
		b.tracer = newTracer()
	}
	return b
}

// declared is BENCHMARK.json as the contract reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatch is the static drift gate: the workloads and the
// metrics with their units and directions are the same in the code and in
// BENCHMARK.json, in both directions.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	var want, got []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	for _, w := range d.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if !slices.Equal(want, got) {
		t.Errorf("workloads: code %q, BENCHMARK.json %q", want, got)
	}
	render := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			out = append(out, m.name+" "+m.unit+" "+better)
		}
		return out
	}
	want, got = render(e2eMetrics), nil
	for _, m := range d.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(want, got) {
		t.Errorf("end_to_end: code %q, BENCHMARK.json %q", want, got)
	}
	want, got = render(layerMetrics), nil
	for _, m := range d.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	if !slices.Equal(want, got) {
		t.Errorf("per_layer: code %q, BENCHMARK.json %q", want, got)
	}
}

// TestTinyRun runs all six workloads traced, checks every gate passed,
// and that the result lines carry exactly the metrics BENCHMARK.json
// declares, untraced and traced.
func TestTinyRun(t *testing.T) {
	d := readDeclared(t)
	var e2e, layers []string
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := tinyBench(t, true)
			o, err := b.run(w.name, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(o.Broken) > 0 {
				t.Fatalf("broken gates: %q", o.Broken)
			}
			if o.Attempted == 0 || o.Attempted != o.Done+o.Trapped+o.failed() {
				t.Errorf("attempted %d, done %d, trapped %d, failed %d", o.Attempted, o.Done, o.Trapped, o.failed())
			}
			for traced, want := range map[bool][]string{false: e2e, true: layers} {
				var got []string
				for name, v := range resultLine([]*outcome{o}, traced).Metrics {
					got = append(got, name)
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, v.Value)
					}
				}
				sort.Strings(got)
				if !slices.Equal(got, want) {
					t.Errorf("traced=%v: emitted %q, declared %q", traced, got, want)
				}
			}
		})
	}
}

// TestTamperedGoldenFails shows that a golden the output does not match
// fails the run: the figure tables, and a served result body.
func TestTamperedGoldenFails(t *testing.T) {
	t.Run("figures", func(t *testing.T) {
		b := tinyBench(t, false)
		b.figGolden = bytes.Replace(b.figGolden, []byte("1."), []byte("2."), 1)
		o, err := b.run("figures", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Broken) == 0 || resultLine([]*outcome{o}, false).Correct {
			t.Fatalf("a tampered figures golden passed: %q", o.Gates)
		}
	})
	t.Run("jobs_tiny", func(t *testing.T) {
		b := tinyBench(t, false)
		b.goldens = load.NewGoldens()
		b.goldens.Check(goldenKey(tinyFor(b.seed), 0), []byte(`{"cycles":1}`))
		o, err := b.run("jobs_tiny", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Broken) < 2 || !strings.Contains(strings.Join(o.Broken, "\n"), "byte-identical") {
			t.Fatalf("a tampered result golden passed: broken %q", o.Broken)
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		if q1, m, q3 := quartiles(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]int64{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st.SelfNS
	}
	if got["root"] != 100-50-10 || got["a"] != 30 || got["b"] != 60 {
		t.Errorf("self times %v", got)
	}
}
