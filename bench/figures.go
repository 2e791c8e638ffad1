package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The figures workload runs experiments.All's tables in a child process of
// the bench, one fresh process per pass: the experiments package keeps a
// process-wide trace cache and the generator memoizes programs, so a second
// pass in one process would time cache hits.

// Environment of a figures child: childEnv selects the child role,
// figOptsEnv scopes the run ("" = full scale, or "bench,bench@scaleK"),
// figOutEnv names the file the tables go to.
const (
	childEnv   = "DISEBENCH_CHILD"
	figOptsEnv = "DISEBENCH_FIGURES"
	figOutEnv  = "DISEBENCH_OUT"
)

// figures are experiments.All's calls, in its order.
var figures = []struct {
	name string
	run  func(experiments.Options) []*stats.Table
}{
	{"fig6_formulation", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig6Formulation(o)} }},
	{"fig6_cache_size", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig6CacheSize(o)} }},
	{"fig6_width", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig6Width(o)} }},
	{"fig7_compression", func(o experiments.Options) []*stats.Table {
		text, total := experiments.Fig7Compression(o)
		return []*stats.Table{text, total}
	}},
	{"fig7_performance", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig7Performance(o)} }},
	{"fig7_rt_size", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig7RTSize(o)} }},
	{"fig8_combos", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig8Combos(o)} }},
	{"fig8_rt", func(o experiments.Options) []*stats.Table { return []*stats.Table{experiments.Fig8RT(o)} }},
}

// figReport is what a child reports of its pass.
type figReport struct {
	Cells   int       `json:"cells"`   // table cells written
	Seconds float64   `json:"seconds"` // the whole pass
	Figs    []figTime `json:"figs"`
}

type figTime struct {
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"` // since the pass began
	Seconds float64 `json:"seconds"`
}

func (sc scale) figOpts() string {
	if sc.figBenches == nil {
		return ""
	}
	return strings.Join(sc.figBenches, ",") + "@" + strconv.Itoa(sc.figScaleK)
}

func parseFigOpts(s string) (experiments.Options, error) {
	o := experiments.Options{Workers: runtime.NumCPU()}
	if s == "" {
		return o, nil
	}
	list, k, ok := strings.Cut(s, "@")
	n, err := strconv.Atoi(k)
	if !ok || err != nil {
		return o, fmt.Errorf("bad %s %q", figOptsEnv, s)
	}
	o.Benchmarks, o.DynScaleK = strings.Split(list, ","), n
	return o, nil
}

// figuresChild is the child's side: set up (generate every program the
// tables use), report ready, and on "run" write the tables and report the
// timings on stdout.
func figuresChild() int {
	o, err := parseFigOpts(os.Getenv(figOptsEnv))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench figures child:", err)
		return 1
	}
	for _, p := range workload.Profiles() {
		if o.DynScaleK > 0 {
			p.TargetDynK = o.DynScaleK
		}
		if o.Benchmarks != nil && !slices.Contains(o.Benchmarks, p.Name) {
			continue
		}
		if _, err := p.Generate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench figures child:", err)
			return 1
		}
	}
	fmt.Println("ready")
	cmd, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	if strings.TrimSpace(cmd) != "run" {
		return 0
	}
	var out bytes.Buffer
	var rep figReport
	t0 := time.Now()
	for _, fig := range figures {
		t := time.Now()
		for _, tb := range fig.run(o) {
			fmt.Fprintln(&out, tb)
			rep.Cells += len(tb.Rows) * len(tb.Cols)
		}
		rep.Figs = append(rep.Figs, figTime{fig.name, t.Sub(t0).Nanoseconds(), time.Since(t).Seconds()})
	}
	rep.Seconds = time.Since(t0).Seconds()
	if err := os.WriteFile(os.Getenv(figOutEnv), out.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench figures child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(&rep); err != nil {
		return 1
	}
	return 0
}

// figChild is a started child that has reported ready.
type figChild struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	table string
}

func (b *bench) startFigChild(i int) (*figChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &figChild{table: filepath.Join(b.runDir, fmt.Sprintf("figures-%d.txt", i))}
	c.cmd = exec.Command(self)
	c.cmd.Env = append(os.Environ(), childEnv+"=figures", figOptsEnv+"="+b.scale.figOpts(), figOutEnv+"="+c.table)
	c.cmd.Stderr = os.Stderr
	detach(c.cmd)
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	if line, err := c.out.ReadString('\n'); err != nil || line != "ready\n" {
		c.in.Close()
		_ = c.cmd.Wait()
		return nil, fmt.Errorf("figures child did not get ready: %q %v", line, err)
	}
	return c, nil
}

// quit dismisses a child that was only set up.
func (c *figChild) quit() error {
	c.in.Close()
	return c.cmd.Wait()
}

// pass runs the tables and returns the report, the tables and the peak
// RSS. started is when the pass was requested.
func (c *figChild) pass() (rep *figReport, tables []byte, rss float64, started time.Time, err error) {
	started = time.Now()
	if _, err = io.WriteString(c.in, "run\n"); err != nil {
		return
	}
	rep = &figReport{}
	derr := json.NewDecoder(c.out).Decode(rep)
	c.in.Close()
	if err = c.cmd.Wait(); err != nil {
		err = fmt.Errorf("figures child: %w", err)
		return
	}
	if derr != nil {
		err = fmt.Errorf("figures child report: %w", derr)
		return
	}
	rss = peakRSSMB(c.cmd.ProcessState)
	tables, err = os.ReadFile(c.table)
	return
}

// runFigures measures the figures workload: it starts a child per set-up,
// lets the last few run a pass each, and pools their passes; a traced run
// adds one more pass for the spans, and the ladder over the stand-ins
// under DISE3 isolation.
func (b *bench) runFigures() (*outcome, error) {
	o := newOutcome("figures", b.seed)
	if b.tracer != nil {
		var vs []*variant
		for _, n := range b.scale.standIns {
			vs = append(vs, mfiVariant(n))
		}
		if _, err := b.reference(o, vs, oneCell, false); err != nil {
			return nil, err
		}
	}
	golden := b.figGolden
	if golden == nil {
		var err error
		if golden, err = os.ReadFile(filepath.Join(b.root, "experiments_full.txt")); err != nil {
			return nil, err
		}
	}

	var setups, rss []float64
	pooled := &figReport{}
	identical := 0
	k := b.scale.setups
	for i := range k {
		t0 := time.Now()
		c, err := b.startFigChild(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < k-b.scale.figPasses {
			if err := c.quit(); err != nil {
				return nil, fmt.Errorf("figures child %d: %w", i, err)
			}
			continue
		}
		rep, tables, peak, _, err := c.pass()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(tables, golden) {
			identical++
		}
		rss = append(rss, peak)
		pooled.add(rep)
	}
	o.gate(identical == b.scale.figPasses, "%d of %d figure passes byte-identical to the golden tables (%d bytes)",
		identical, b.scale.figPasses, len(golden))
	_, med, _ := quartiles(setups)
	o.E2E["setup_s"] = measure{med, "s", len(setups)}
	pooled.e2e(o.E2E)
	_, med, _ = quartiles(rss)
	o.E2E["peak_rss_mb"] = measure{med, "MB", len(rss)}
	o.Attempted, o.Done = int64(pooled.Cells), int64(pooled.Cells)

	if b.tracer != nil {
		c, err := b.startFigChild(k)
		if err != nil {
			return nil, err
		}
		traced, tables, _, started, err := c.pass()
		if err != nil {
			return nil, err
		}
		o.gate(bytes.Equal(tables, golden), "traced figure pass byte-identical to the golden tables")
		// The child times its figures; their spans are placed from when the
		// pass was requested.
		epoch := started.Sub(b.tracer.epoch).Nanoseconds()
		root := span{ID: b.tracer.ids.Add(1), Name: "figures.pass", Start: epoch, End: epoch + int64(traced.Seconds*1e9)}
		b.tracer.add(root)
		for _, f := range traced.Figs {
			b.tracer.add(span{ID: b.tracer.ids.Add(1), Parent: root.ID, Name: "experiments." + f.Name,
				Start: epoch + f.StartNS, End: epoch + f.StartNS + int64(f.Seconds*1e9)})
		}
		t := map[string]measure{}
		traced.e2e(t)
		o.Overhead = map[string]float64{}
		for k, m := range t {
			o.Overhead[k] = m.Value/o.E2E[k].Value - 1
		}
		pooled.add(traced)
	}
	passes := float64(len(pooled.Figs) / len(figures))
	for _, fig := range figures {
		var sum float64
		for _, f := range pooled.Figs {
			if f.Name == fig.name {
				sum += f.Seconds
			}
		}
		o.layer("experiments."+fig.name+"_s", "s", sum/passes, int(passes))
	}
	o.layer("experiments.figures_s", "s", pooled.Seconds/passes, int(passes))
	return o, nil
}

// add pools another pass into r.
func (r *figReport) add(p *figReport) {
	r.Cells += p.Cells
	r.Seconds += p.Seconds
	r.Figs = append(r.Figs, p.Figs...)
}

// e2e fills the end-to-end metrics of one or more passes. A figure call is
// the request: its latency is the time to produce that figure's tables.
func (r *figReport) e2e(m map[string]measure) {
	var lat []float64
	for _, f := range r.Figs {
		lat = append(lat, f.Seconds*1e3)
	}
	m["cells_per_s"] = measure{float64(r.Cells) / r.Seconds, "1/s", r.Cells}
	m["latency_p50_ms"] = measure{quantile(lat, 0.5), "ms", len(lat)}
	m["latency_p90_ms"] = measure{quantile(lat, 0.9), "ms", len(lat)}
}
