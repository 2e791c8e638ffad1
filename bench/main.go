// Command bench is the repository's end-to-end benchmark: six workloads
// that reproduce the paper's figure tables and drive a real disesrvd over
// HTTP, with every output checked against an in-process reference, and a
// traced mode that costs each layer a job crosses (see README.md).
//
//	go run -C bench . -seed 1                      all six workloads
//	go run -C bench . -workload jobs_warm -trace 1 one workload, with spans and layer costs
//	go run -C bench . -ab HEAD~1 -pairs 10         same-box A/B against a git ref
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check makes
// correct false, empties metrics and exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/store"
)

// bench is one single-workload run.
type bench struct {
	root      string // repository root
	runDir    string // this run's scratch directory, removed at exit
	daemonBin string
	seed      int64
	seconds   time.Duration // length of a timed phase
	scale     scale
	tracer    *tracer // nil when untraced

	goldens   *load.Goldens // the result body every (variant, cell) must carry
	figGolden []byte        // the figure tables; nil reads experiments_full.txt
	recs      map[*variant]int64
	daemons   atomic.Int64
	seq       atomic.Int64 // the run's request sequence, continued by every phase
}

func main() {
	if os.Getenv(childEnv) == "figures" {
		os.Exit(figuresChild())
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = fs.Int64("seed", 1, "seed the workloads' inputs are made from")
		seconds = fs.Int("seconds", 12, "length of each timed phase in seconds")
		traced  = fs.Int("trace", 0, "1 = also run a traced phase, the layer ladder, and report layer metrics")
		spans   = fs.String("spans", "", "spans file of a traced run (default .bench_build/spans-<workload>.json)")
		jsonOut = fs.String("json", "", "write the full report to this file")
		root    = fs.String("root", "", "repository root (default: found from the working directory)")
		ab      = fs.String("ab", "", "compare the working tree against this git ref, same box, alternating runs")
		pairs   = fs.Int("pairs", 10, "with -ab: runs of each side per workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	r, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names, err := parseWorkloads(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *ab != "" {
		if err := abCompare(r, *ab, *pairs, names, *seed, *seconds, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	var outs []*outcome
	if len(names) == 1 {
		b := &bench{root: r, seed: *seed, seconds: time.Duration(*seconds) * time.Second, scale: fullScale}
		if *traced == 1 {
			b.tracer = newTracer()
		}
		o, err := b.run(names[0], *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		o.print(stdout)
		outs = []*outcome{o}
	} else if outs, err = runEach(r, names, *seed, *seconds, *traced, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, outs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line := resultLine(outs, *traced == 1)
	data, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func parseWorkloads(s string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	if s == "" {
		return all, nil
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("unknown workload %q (workloads: %s)", n, strings.Join(all, ", "))
		}
	}
	return names, nil
}

// findRoot returns dir, or the nearest directory at or above the working
// directory that holds cmd/disesrvd.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "cmd", "disesrvd")); err == nil {
			return d, nil
		}
		up := filepath.Dir(d)
		if up == d {
			return "", errors.New("no repository root (a directory holding cmd/disesrvd) at or above the working directory")
		}
		d = up
	}
}

// runEach runs every workload in a fresh process of this binary, so that
// no workload times caches another left warm, and collects their reports.
func runEach(root string, names []string, seed int64, seconds, traced int, stdout io.Writer) ([]*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "each-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var outs []*outcome
	for _, n := range names {
		out := filepath.Join(dir, n+".json")
		cmd := exec.Command(self, "-root", root, "-workload", n, "-json", out, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdoutPipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		detach(cmd)
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		// Pass the child's report through, without its result line.
		sc := bufio.NewScanner(stdoutPipe)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				fmt.Fprintln(stdout, sc.Text())
			}
		}
		if err := cmd.Wait(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				return nil, fmt.Errorf("workload %s: %w", n, err)
			}
		}
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, fmt.Errorf("workload %s wrote no report: %w", n, err)
		}
		var got []*outcome
		if err := json.Unmarshal(data, &got); err != nil {
			return nil, err
		}
		outs = append(outs, got...)
	}
	return outs, nil
}

// run measures one workload in this process.
func (b *bench) run(name, spansPath string) (*outcome, error) {
	var err error
	if b.runDir, err = makeRunDir(b.root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	if b.goldens == nil {
		b.goldens = load.NewGoldens()
	}
	b.recs = map[*variant]int64{}
	var o *outcome
	if name == "figures" {
		o, err = b.runFigures()
	} else {
		if b.daemonBin, err = buildDaemon(b.root); err != nil {
			return nil, err
		}
		o, err = b.runServing(name)
	}
	if err != nil {
		return nil, err
	}
	if b.tracer != nil {
		if spansPath == "" {
			spansPath = filepath.Join(b.root, ".bench_build", "spans-"+name+".json")
		}
		if err := b.tracer.write(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "bench: spans written to", spansPath)
	}
	return o, nil
}

func makeRunDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-"+strconv.Itoa(os.Getpid())+"-")
}

// buildDaemon compiles cmd/disesrvd of root into root/.bench_build/bin.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "disesrvd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/disesrvd")
	cmd.Dir = root
	var errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &errOut, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building disesrvd: %v\n%s", err, errOut.String())
	}
	return bin, nil
}

// reference runs the ladder over vs: as the in-process reference of every
// cell always, and with every layer step timed when the run is traced. The
// expected result bodies seed the goldens, so the first response of each
// (variant, cell) is checked against them as strictly as every later one.
// It returns the class costs of a traced run, nil otherwise.
func (b *bench) reference(o *outcome, vs []*variant, cells []server.MachineSpec, batch bool) ([]*classCost, error) {
	full := b.tracer != nil
	var p probes
	var st *store.Store
	if full {
		// Under the closed loop's two requests on two cores each daemon
		// worker has one core, so the ladder costs the layers on one:
		// grouped replay would otherwise fan its walks out over both.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var err error
		if p, err = runProbes(b.scale.standIns, tinyFor(b.seed), b.tracer); err != nil {
			return nil, err
		}
		// A small budget: the store evicts earlier classes' entries as the
		// ladder goes.
		if st, _, err = store.Open(store.OSFS{}, filepath.Join(b.runDir, "ladder-store"), 64<<20); err != nil {
			return nil, err
		}
	}
	var costs []*classCost
	bad := 0
	for _, v := range vs {
		c, err := ladder(v, cells, batch, full, st, b.tracer)
		if err != nil {
			return nil, err
		}
		b.recs[v] = c.recs
		for j, body := range c.expected {
			if !b.goldens.Check(goldenKey(v, j), body) {
				bad++
			}
		}
		costs = append(costs, c)
	}
	o.gate(bad == 0, "in-process reference agrees with the goldens on %d of %d cells", len(vs)*len(cells)-bad, len(vs)*len(cells))
	if !full {
		return nil, nil
	}
	layerValues(o, p, costs)
	return costs, nil
}
