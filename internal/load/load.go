// Package load is the disesrvd load harness: it drives one server with a
// weighted mix of simulation jobs through the typed SDK (internal/client)
// and reports outcome counts and latency percentiles.
//
// Two generator shapes are supported. The closed loop keeps a fixed number
// of workers each waiting for their previous response before issuing the
// next job — it measures the server at its own pace and hides queueing
// delay (coordinated omission). The open loop issues jobs on a fixed
// arrival schedule (target RPS) regardless of completions — latency then
// includes every queueing effect, which is what a production SLO sees; a
// bounded outstanding-request cap sheds arrivals (counted, never silently
// dropped) instead of growing without bound when the server falls behind.
//
// Cache behaviour is controllable: every logical job can be fanned out over
// N distinct trace-cache classes (budget salting — the instruction budget
// is part of the server's cache key, and programs that halt before the
// budget produce identical results under any salt), so a mix can dial in
// anything from 100% hits to one miss per request.
//
// With golden checking on, the harness records the first result body per
// (entry, class) and asserts every later response is byte-identical — the
// serving layer's cache-contract made an invariant under load. Every issued
// job lands in exactly one Report bucket (done, trapped, or a failure
// class), so "no job was lost" is checkable by arithmetic.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// defaultBudget bounds benchmark jobs in the default mix: long enough to
// exercise the simulator, short enough that one job is milliseconds.
const defaultBudget = 200_000

// Entry is one weighted element of the job mix. Cells > 1 turns the entry
// into a batch: each arrival submits one POST /v1/batches sweep of Cells
// timing configurations over the entry's request (cell 0 is the request
// verbatim; later cells vary machine width over sweepWidths), and all
// accounting — issued, done, shed, goldens — is per cell.
type Entry struct {
	Name   string
	Weight int
	Cells  int // 0 or 1 = single job; > 1 = batch of this many cells
	Req    *server.SubmitRequest
}

// units is the number of accounting units one arrival of e carries.
func (e *Entry) units() int64 {
	if e.Cells > 1 {
		return int64(e.Cells)
	}
	return 1
}

// sweepWidths supplies the timing variation for batch cells past the
// first: cell j uses width sweepWidths[(j-1) % len]. Pure timing knobs, so
// every cell stays in the entry's functional-equivalence class.
var sweepWidths = []int{8, 2, 1, 6, 16, 3, 12, 5}

// NamedEntry resolves a mix-entry name: "quickstart" (the smoke program and
// its store-counting productions), a built-in benchmark name ("gzip", ...),
// or "<bench>+count" (the benchmark with the store-counting production set
// installed, so the DISE engine is on the served path).
func NamedEntry(name string) (Entry, error) {
	e := Entry{Name: name, Weight: 1}
	bench, withProds := strings.CutSuffix(name, "+count")
	switch {
	case name == "quickstart":
		e.Req = server.SmokeRequest()
	default:
		if _, ok := workload.ProfileByName(bench); !ok {
			return Entry{}, fmt.Errorf("unknown mix entry %q (quickstart, a bench name, or <bench>+count; benches: %s)",
				name, strings.Join(workload.Names(), ", "))
		}
		e.Req = &server.SubmitRequest{Bench: bench, BudgetInsts: defaultBudget}
		if withProds {
			e.Req.Prods = server.SmokeProds
		}
	}
	return e, nil
}

// ParseMix parses a mix spec: comma-separated name[@cells][:weight] parts,
// weight defaulting to 1 and cells to a single job —
// "quickstart:4,gzip:1,mcf+count:2,quickstart@16:1" mixes single jobs with
// a 16-cell batch sweep.
func ParseMix(spec string) ([]Entry, error) {
	var mix []Entry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, ":")
		name, cstr, hasC := strings.Cut(name, "@")
		e, err := NamedEntry(name)
		if err != nil {
			return nil, err
		}
		if hasC {
			cells, err := strconv.Atoi(cstr)
			if err != nil || cells < 2 {
				return nil, fmt.Errorf("bad batch cell count %q for %q (need >= 2)", cstr, name)
			}
			e.Cells = cells
			e.Name = fmt.Sprintf("%s@%d", name, cells)
		}
		if hasW {
			w, err := strconv.Atoi(wstr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight %q for %q", wstr, name)
			}
			e.Weight = w
		}
		mix = append(mix, e)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix spec")
	}
	return mix, nil
}

// DefaultMix is the stock workload: mostly the quickstart job (fast,
// DISE-expanded), plus one plain and one production-carrying benchmark.
func DefaultMix() []Entry {
	q, _ := NamedEntry("quickstart")
	q.Weight = 4
	g, _ := NamedEntry("gzip")
	m, _ := NamedEntry("mcf+count")
	return []Entry{q, g, m}
}

// Goldens is the byte-identity ledger: the first result body seen per key
// becomes that key's golden, and every later body must match it. Share one
// across phases to assert identity across a server's whole lifetime
// (including across a drain/restart).
type Goldens struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewGoldens returns an empty ledger.
func NewGoldens() *Goldens { return &Goldens{m: make(map[string][]byte)} }

// Check records body under key on first sight and reports whether body
// matches the recorded golden.
func (g *Goldens) Check(key string, body []byte) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.m[key]
	if !ok {
		g.m[key] = bytes.Clone(body)
		return true
	}
	return bytes.Equal(want, body)
}

// Len returns the number of recorded goldens.
func (g *Goldens) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// Options parameterizes one load run.
type Options struct {
	// Client submits the jobs: a single-node *client.Client or a routing
	// *client.FleetClient — the harness is agnostic.
	Client client.API
	Mix    []Entry // default DefaultMix()

	Mode        string  // "closed" (default) or "open"
	Concurrency int     // closed-loop workers (default 8)
	RPS         float64 // open-loop arrival rate (default 20)
	// MaxOutstanding caps concurrently outstanding open-loop requests
	// (default 256); arrivals beyond it are shed and counted.
	MaxOutstanding int

	// Duration bounds how long new jobs are started (default 5s). Jobs in
	// flight when it passes run to completion; the caller's context is the
	// hard bound on the whole run.
	Duration    time.Duration
	MaxRequests int64 // stop after this many issued jobs (0 = duration-bound)

	// Classes fans each entry out over N trace-cache classes by salting the
	// instruction budget (default 1: every repeat hits the cache).
	Classes int
	// Golden asserts byte-identity of every response against the first one
	// seen for its (entry, class); violations are counted and fail the run.
	Golden  bool
	Goldens *Goldens // optional shared ledger; nil allocates a fresh one
	Seed    int64    // shuffles the weighted schedule
}

func (o Options) withDefaults() (Options, error) {
	if o.Client == nil {
		return o, fmt.Errorf("load: Options.Client is required")
	}
	if len(o.Mix) == 0 {
		o.Mix = DefaultMix()
	}
	switch o.Mode {
	case "":
		o.Mode = "closed"
	case "closed", "open":
	default:
		return o, fmt.Errorf("load: mode %q is not closed or open", o.Mode)
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.RPS <= 0 {
		o.RPS = 20
	}
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 256
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Classes <= 0 {
		o.Classes = 1
	}
	if o.Golden && o.Goldens == nil {
		o.Goldens = NewGoldens()
	}
	return o, nil
}

// Report is the outcome of one load run. All work is accounted in cells: a
// single job is one cell, a batch arrival of K cells is K. Every issued
// cell is counted in exactly one of Done, Trapped, or a Failed class, so
// Issued == Done + Trapped + sum(Failed) always holds (see Accounted) —
// for pure-job, pure-batch, and mixed runs alike. Shed likewise counts the
// cells an open-loop arrival would have carried, so issued + shed covers
// every cell of work the schedule generated.
type Report struct {
	Mode       string `json:"mode"`
	DurationMS int64  `json:"duration_ms"`

	Issued    int64            `json:"issued"`
	Batches   int64            `json:"batches"` // batch submissions among the issued arrivals
	Done      int64            `json:"done"`
	Trapped   int64            `json:"trapped"`
	CacheHits int64            `json:"cache_hits"`
	Shed      int64            `json:"shed"` // open-loop cells dropped at the outstanding cap
	Failed    map[string]int64 `json:"failed,omitempty"`

	GoldenViolations int64 `json:"golden_violations"`

	// Latency of successful submissions (incl. retries), µs.
	P50US   int64              `json:"p50_us"`
	P90US   int64              `json:"p90_us"`
	P99US   int64              `json:"p99_us"`
	MeanUS  float64            `json:"mean_us"`
	Latency stats.HistSnapshot `json:"latency_us"`
}

// Accounted reports the no-lost-jobs identity: every issued job landed in
// exactly one terminal bucket.
func (r *Report) Accounted() bool {
	sum := r.Done + r.Trapped
	for _, n := range r.Failed {
		sum += n
	}
	return sum == r.Issued
}

// Summary renders the one-line human form.
func (r *Report) Summary() string {
	var fails []string
	for k, n := range r.Failed {
		fails = append(fails, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(fails)
	s := fmt.Sprintf("%s loop: issued %d, done %d, trapped %d, cache hits %d, p50 %dµs, p99 %dµs",
		r.Mode, r.Issued, r.Done, r.Trapped, r.CacheHits, r.P50US, r.P99US)
	if r.Batches > 0 {
		s += fmt.Sprintf(", batches %d", r.Batches)
	}
	if len(fails) > 0 {
		s += ", failed " + strings.Join(fails, " ")
	}
	if r.Shed > 0 {
		s += fmt.Sprintf(", shed %d", r.Shed)
	}
	return s
}

// BenchRecord is one row of the benchjson-compatible report: the same JSON
// shape cmd/benchjson reads, so two load reports diff with
// `benchjson -compare OLD.json NEW.json` exactly like perf receipts.
// Latency rows carry nanoseconds in NsOp; counter rows carry the count.
type BenchRecord struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// BenchJSON renders the report as a benchjson-compatible record list.
// Latency percentiles become <prefix>/p50 etc. (ns/op), outcome counters
// become <prefix>/count/<bucket> with the count in ns_op.
func (r *Report) BenchJSON(prefix string) []BenchRecord {
	runs := int(r.Latency.Count)
	recs := []BenchRecord{
		{Name: prefix + "/p50", Runs: runs, NsOp: float64(r.P50US) * 1e3},
		{Name: prefix + "/p90", Runs: runs, NsOp: float64(r.P90US) * 1e3},
		{Name: prefix + "/p99", Runs: runs, NsOp: float64(r.P99US) * 1e3},
		{Name: prefix + "/mean", Runs: runs, NsOp: r.MeanUS * 1e3},
		{Name: prefix + "/count/issued", Runs: 1, NsOp: float64(r.Issued)},
		{Name: prefix + "/count/done", Runs: 1, NsOp: float64(r.Done)},
		{Name: prefix + "/count/trapped", Runs: 1, NsOp: float64(r.Trapped)},
		{Name: prefix + "/count/cache_hits", Runs: 1, NsOp: float64(r.CacheHits)},
	}
	if r.Batches > 0 {
		recs = append(recs, BenchRecord{Name: prefix + "/count/batches", Runs: 1, NsOp: float64(r.Batches)})
	}
	var fails []string
	for k := range r.Failed {
		fails = append(fails, k)
	}
	sort.Strings(fails)
	for _, k := range fails {
		recs = append(recs, BenchRecord{Name: prefix + "/count/failed/" + k, Runs: 1, NsOp: float64(r.Failed[k])})
	}
	return recs
}

// WriteBenchJSON marshals records in the exact on-disk form benchjson
// expects (indented array, trailing newline).
func WriteBenchJSON(recs []BenchRecord) ([]byte, error) {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// run carries the mutable state of one Run.
type run struct {
	o        Options
	schedule []*Entry
	seq      atomic.Int64 // issued-arrival sequence (a batch is one arrival)
	hist     stats.Histogram

	issued, batches                        atomic.Int64 // cells / batch arrivals
	done, trapped, cached, shed, goldenBad atomic.Int64

	mu     sync.Mutex
	failed map[string]int64
}

// Run drives the server per o and reports. The returned error is non-nil
// only for harness-level failures (bad options, golden violations, a run
// with zero successes); individual job failures are data in the Report.
func Run(ctx context.Context, o Options) (*Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &run{o: o, failed: make(map[string]int64)}
	for i := range o.Mix {
		for range o.Mix[i].Weight {
			r.schedule = append(r.schedule, &o.Mix[i])
		}
	}
	rand.New(rand.NewSource(o.Seed)).Shuffle(len(r.schedule), func(i, j int) {
		r.schedule[i], r.schedule[j] = r.schedule[j], r.schedule[i]
	})

	start := time.Now()
	arrivals, cancel := context.WithDeadline(ctx, start.Add(o.Duration))
	defer cancel()
	if o.Mode == "closed" {
		r.closedLoop(ctx, arrivals)
	} else {
		r.openLoop(ctx, arrivals)
	}
	rep := r.report(time.Since(start))

	if !rep.Accounted() {
		return rep, fmt.Errorf("load: accounting hole: issued %d != done %d + trapped %d + failed %v",
			rep.Issued, rep.Done, rep.Trapped, rep.Failed)
	}
	if rep.GoldenViolations > 0 {
		return rep, fmt.Errorf("load: %d responses diverged from their golden bytes", rep.GoldenViolations)
	}
	return rep, nil
}

// closedLoop and openLoop start arrivals until the arrivals context is done
// and run each under ctx, so the duration bound stops new work without cutting short the
// work already in flight.
func (r *run) closedLoop(ctx, arrivals context.Context) {
	var wg sync.WaitGroup
	wg.Add(r.o.Concurrency)
	for range r.o.Concurrency {
		go func() {
			defer wg.Done()
			for {
				i := r.seq.Add(1) - 1
				if arrivals.Err() != nil || (r.o.MaxRequests > 0 && i >= r.o.MaxRequests) {
					r.seq.Add(-1) // not issued
					return
				}
				r.runOne(ctx, i)
			}
		}()
	}
	wg.Wait()
}

func (r *run) openLoop(ctx, arrivals context.Context) {
	interval := time.Duration(float64(time.Second) / r.o.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sem := make(chan struct{}, r.o.MaxOutstanding)
	var wg sync.WaitGroup
	for n := int64(0); r.o.MaxRequests == 0 || n < r.o.MaxRequests; n++ {
		select {
		case <-arrivals.Done():
			wg.Wait()
			return
		case <-ticker.C:
		}
		select {
		case sem <- struct{}{}:
			i := r.seq.Add(1) - 1
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				r.runOne(ctx, i)
			}()
		default:
			// Shed work is counted in cells: dropping a K-cell batch arrival
			// sheds K units, not one, so job and batch mixes stay comparable
			// and issued + shed covers the whole generated schedule. The
			// arrival is charged to the entry the next issued slot would take.
			r.shed.Add(r.schedule[r.seq.Load()%int64(len(r.schedule))].units())
		}
	}
	wg.Wait()
}

// runOne issues arrival i: picks its mix entry and cache class, submits
// (as a single job or a batch sweep) with retries, and files every cell in
// exactly one bucket. Successive passes over the schedule take successive
// classes, so len(schedule) x Classes arrivals visit every (entry, class)
// pair once.
func (r *run) runOne(ctx context.Context, i int64) {
	n := int64(len(r.schedule))
	ent := r.schedule[i%n]
	r.issued.Add(ent.units())
	req := *ent.Req
	class := (i / n) % int64(r.o.Classes)
	if r.o.Classes > 1 {
		// Budget salting: distinct budgets are distinct cache keys, but any
		// program that halts before the smallest budget produces identical
		// result bytes under all of them.
		base := req.BudgetInsts
		if base == 0 {
			base = defaultBudget
		}
		req.BudgetInsts = base + class
	}
	if ent.Cells > 1 {
		r.runBatch(ctx, ent, &req, class)
		return
	}

	t0 := time.Now()
	resp, err := r.o.Client.Submit(ctx, &req)
	if err != nil {
		r.fail(err, 1)
		return
	}
	r.hist.Observe(time.Since(t0).Microseconds())
	if resp.Cached {
		r.cached.Add(1)
	}
	if resp.Outcome == "trapped" {
		r.trapped.Add(1)
	} else {
		r.done.Add(1)
	}
	if r.o.Golden && !r.o.Goldens.Check(goldenKey(ent.Name, class, 0), resp.Result) {
		r.goldenBad.Add(1)
	}
}

// runBatch issues one batch arrival: a Cells-wide sweep over base, cell 0
// verbatim and later cells varying machine width. Every cell lands in a
// bucket; aborted cells are classified by the batch's failure outcome.
func (r *run) runBatch(ctx context.Context, ent *Entry, base *server.SubmitRequest, class int64) {
	jobs := make([]server.SubmitRequest, ent.Cells)
	for j := range jobs {
		jobs[j] = *base
		if j > 0 {
			jobs[j].Machine.Width = sweepWidths[(j-1)%len(sweepWidths)]
		}
	}

	t0 := time.Now()
	cells, sum, err := r.o.Client.BatchCollect(ctx, &server.BatchRequest{Jobs: jobs})
	if err != nil && sum == nil && cells == nil {
		// Admission failed: no cell was ever accepted.
		r.fail(err, int64(ent.Cells))
		return
	}
	// Latency is one sample per batch: the sweep's wall clock, the number a
	// sweep-shaped client actually experiences.
	r.hist.Observe(time.Since(t0).Microseconds())
	r.batches.Add(1)

	landed := int64(0)
	for j, cell := range cells {
		if cell == nil {
			continue
		}
		landed++
		if cell.Outcome == "trapped" {
			r.trapped.Add(1)
		} else {
			r.done.Add(1)
		}
		if r.o.Golden && !r.o.Goldens.Check(goldenKey(ent.Name, class, j), cell.Result) {
			r.goldenBad.Add(1)
		}
	}
	if sum != nil && sum.Cache != "capture" {
		r.cached.Add(landed)
	}
	if missing := int64(ent.Cells) - landed; missing > 0 {
		// Aborted (or never-streamed) cells: classify by the batch error.
		r.fail(err, missing)
	}
}

// goldenKey names the byte-identity ledger slot for one response. Cell 0
// of a batch is the entry's request verbatim, so it shares its key with
// the single-job form of the same entry: the ledger then asserts
// batch/single byte-identity whenever a mix carries both.
func goldenKey(name string, class int64, cell int) string {
	name, _, _ = strings.Cut(name, "@")
	if cell == 0 {
		return fmt.Sprintf("%s#%d", name, class)
	}
	return fmt.Sprintf("%s#%d/c%d", name, class, cell)
}

// fail classifies a terminal submission failure covering n cells.
func (r *run) fail(err error, n int64) {
	class := "transport"
	switch {
	case errors.Is(err, client.ErrBatchAborted):
		class = batchAbortClass(err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		class = "cancelled"
	case errors.Is(err, ErrOverloaded):
		class = "overloaded"
	case errors.Is(err, ErrUnavailable):
		class = "unavailable"
	case errors.Is(err, client.ErrJobTimeout):
		class = "timeout"
	case errors.Is(err, client.ErrInvalid):
		class = "invalid"
	}
	r.mu.Lock()
	r.failed[class] += n
	r.mu.Unlock()
}

// batchAbortClass maps an ErrBatchAborted (which embeds the summary's
// outcome word) onto the single-job failure classes.
func batchAbortClass(err error) string {
	msg := err.Error()
	for _, class := range []string{"timeout", "unavailable", "cancelled"} {
		if strings.Contains(msg, "("+class+")") {
			return class
		}
	}
	return "cancelled"
}

// Failure sentinels re-exported so callers can classify without importing
// the SDK package alongside this one.
var (
	ErrOverloaded  = client.ErrOverloaded
	ErrUnavailable = client.ErrUnavailable
)

func (r *run) report(elapsed time.Duration) *Report {
	snap := r.hist.Snapshot()
	rep := &Report{
		Mode:             r.o.Mode,
		DurationMS:       elapsed.Milliseconds(),
		Issued:           r.issued.Load(),
		Batches:          r.batches.Load(),
		Done:             r.done.Load(),
		Trapped:          r.trapped.Load(),
		CacheHits:        r.cached.Load(),
		Shed:             r.shed.Load(),
		GoldenViolations: r.goldenBad.Load(),
		P50US:            snap.Quantile(0.50),
		P90US:            snap.Quantile(0.90),
		P99US:            snap.Quantile(0.99),
		MeanUS:           snap.Mean(),
		Latency:          snap,
	}
	r.mu.Lock()
	if len(r.failed) > 0 {
		rep.Failed = make(map[string]int64, len(r.failed))
		for k, v := range r.failed {
			rep.Failed[k] = v
		}
	}
	r.mu.Unlock()
	return rep
}
