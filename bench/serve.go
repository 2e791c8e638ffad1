package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stats"
)

// workers is the daemon's worker count, one per core of the two-core
// machines the benchmark was sized on; it is also the concurrency of
// set-up, which no metric but setup_s times.
const workers = 2

// daemon is a disesrvd child process.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	base string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startDaemon execs disesrvd, "$dir" in its flags standing for store, and
// waits until it answers /healthz.
func (b *bench) startDaemon(flags []string, store string) (*daemon, error) {
	seq := b.daemons.Add(1)
	addrFile := filepath.Join(b.runDir, fmt.Sprintf("addr-%d", seq))
	log, err := os.Create(filepath.Join(b.runDir, fmt.Sprintf("disesrvd-%d.log", seq)))
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", strconv.Itoa(workers)}
	for _, f := range flags {
		args = append(args, strings.ReplaceAll(f, "$dir", store))
	}
	cmd := exec.Command(b.daemonBin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	detach(cmd)
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting disesrvd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, done: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.done) }()

	// The address file appears once the listener is bound, so the first
	// health check queues until the daemon serves it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil && len(raw) > 0 {
			d.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		select {
		case <-d.done:
			log.Close()
			return nil, fmt.Errorf("disesrvd exited during start-up: %v\n%s", d.err, logTail(log.Name()))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("disesrvd wrote no address within a minute")
		}
	}
	if ok, _, err := client.New(d.base).Healthz(context.Background()); err != nil || !ok {
		d.kill()
		return nil, fmt.Errorf("disesrvd not healthy: ok=%v err=%v", ok, err)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and returns its peak RSS. A daemon
// that does not exit 0 within a minute is an error.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		d.kill()
		return 0, fmt.Errorf("disesrvd did not exit within a minute of SIGTERM")
	}
	if d.err != nil {
		return 0, fmt.Errorf("disesrvd exited with %v on SIGTERM\n%s", d.err, logTail(d.log.Name()))
	}
	return peakRSSMB(d.cmd.ProcessState), nil
}

// logTail returns the end of a daemon's log, which the run deletes.
func logTail(path string) string {
	data, _ := os.ReadFile(path)
	return string(data[max(0, len(data)-2000):])
}

// kill ends the daemon if it still runs, and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
}

// submitAll runs reqs to completion, one per worker at a time.
func submitAll(base string, reqs []*server.SubmitRequest) error {
	c := client.New(base)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs) && errs[w] == nil; i = int(next.Add(1) - 1) {
				_, errs[w] = c.Submit(context.Background(), reqs[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phaseResult is what one or more timed phases observed.
type phaseResult struct {
	wall       time.Duration
	requests   int
	cells      int64 // cells attempted
	done, trap int64
	failed     map[string]int64
	mismatched int64 // cells whose bytes differ from the reference
	recs       int64 // records of the answered requests' classes: their work

	// Per answered request: latency as the client saw it, the daemon's
	// queue and run time, the rest (client latency minus queue minus run),
	// and which variant and cache tier it was.
	latMS   []float64
	queueUS []float64
	runUS   []float64
	overUS  []float64
	served  []served

	// The daemon's counters over the phase: trace-cache lookups by the
	// tier that answered, cells its job ledger served, compile latency,
	// and batch stream bytes and cells; and its cache at the end.
	mem, disk, capture, lookups int64
	ledger                      int64
	compile                     stats.HistSnapshot
	streamBytes, streamCells    int64
	cache                       server.CacheStats
}

type served struct {
	v    int
	tier string // a batch's provenance; "hit" or "capture" for a job
}

// phase drives the daemon for d with the closed loop: w.clients goroutines
// sharing one client.Client keep issuing w.next(i), continuing the run's
// request sequence, until the time is up; requests in flight then run to
// completion, none is cancelled. Every cell lands in exactly one bucket:
// done, trapped or failed:<class>.
func (b *bench) phase(dm *daemon, w *serving, d time.Duration, tr *tracer) (*phaseResult, error) {
	ctx := context.Background()
	c := client.New(dm.base)
	r := &phaseResult{failed: map[string]int64{}}
	before, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				b.issue(c, w, w.next(int(b.seq.Add(1)-1)), r, &mu, tr)
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	after, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	a, z := before.Cache, after.Cache
	r.mem, r.disk, r.capture = z.Hits-a.Hits, z.DiskHits-a.DiskHits, z.Misses-a.Misses
	r.lookups = r.mem + r.disk + r.capture + z.PeerHits - a.PeerHits
	r.ledger = after.Jobs.Done + after.Jobs.Trapped - before.Jobs.Done - before.Jobs.Trapped
	r.compile = histAdd(after.Latency.CompileUS, before.Latency.CompileUS, -1)
	r.streamBytes = after.Batches.StreamBytes - before.Batches.StreamBytes
	r.streamCells = after.Batches.CellsDone + after.Batches.CellsTrapped - before.Batches.CellsDone - before.Batches.CellsTrapped
	r.cache = z
	return r, nil
}

// merge pools phases run on separate daemons into one result.
func merge(rs []*phaseResult) *phaseResult {
	m := &phaseResult{failed: map[string]int64{}}
	for _, r := range rs {
		m.wall += r.wall
		m.requests += r.requests
		m.cells, m.done, m.trap, m.mismatched = m.cells+r.cells, m.done+r.done, m.trap+r.trap, m.mismatched+r.mismatched
		m.recs += r.recs
		for k, n := range r.failed {
			m.failed[k] += n
		}
		m.latMS = append(m.latMS, r.latMS...)
		m.queueUS = append(m.queueUS, r.queueUS...)
		m.runUS = append(m.runUS, r.runUS...)
		m.overUS = append(m.overUS, r.overUS...)
		m.served = append(m.served, r.served...)
		m.mem, m.disk, m.capture, m.lookups = m.mem+r.mem, m.disk+r.disk, m.capture+r.capture, m.lookups+r.lookups
		m.ledger += r.ledger
		m.compile = histAdd(m.compile, r.compile, 1)
		m.streamBytes, m.streamCells = m.streamBytes+r.streamBytes, m.streamCells+r.streamCells
		m.cache = r.cache
	}
	return m
}

// issue sends one request and files its cells.
func (b *bench) issue(c *client.Client, w *serving, is issue, r *phaseResult, mu *sync.Mutex, tr *tracer) {
	v := w.variants[is.v]
	name := "client.submit"
	if is.batch != nil {
		name = "client.batch"
	}
	sp := tr.begin(0, name)
	sp.set("class", v.name)
	sp.set("records", b.recs[v])
	t0 := time.Now()
	var (
		bodies        [][]byte
		outcomes      []string
		queue, run    int64
		tier, id, cls string
		err           error
	)
	if is.batch == nil {
		var resp *client.JobResponse
		if resp, err = c.Submit(context.Background(), is.job); err == nil {
			bodies, outcomes = [][]byte{resp.Result}, []string{resp.Outcome}
			queue, run, id = resp.QueueUS, resp.RunUS, resp.ID
			tier = "capture"
			if resp.Cached {
				tier = "hit"
			}
		}
	} else {
		var cells []*client.BatchCell
		var sum *server.BatchSummary
		cells, sum, err = c.BatchCollect(context.Background(), is.batch)
		for _, cell := range cells {
			if cell == nil {
				bodies, outcomes = append(bodies, nil), append(outcomes, "")
				continue
			}
			bodies, outcomes = append(bodies, cell.Result), append(outcomes, cell.Outcome)
		}
		if sum != nil {
			queue, run, tier, id = sum.QueueUS, sum.RunUS, sum.Cache, sum.ID
		}
	}
	lat := time.Since(t0)
	if err != nil {
		cls = failClass(err)
		sp.set("error", err.Error())
	}
	if sp != nil {
		sp.Req = id
	}
	sp.set("tier", tier)
	sp.set("queue_us", queue)
	sp.set("run_us", run)
	tr.end(sp)

	n := int64(len(w.cells))
	mu.Lock()
	defer mu.Unlock()
	r.requests++
	r.cells += n
	landed := int64(0)
	for j, body := range bodies {
		if body == nil {
			continue
		}
		landed++
		if outcomes[j] == "trapped" {
			r.trap++
		} else {
			r.done++
		}
		if !b.goldens.Check(goldenKey(v, j), body) {
			r.mismatched++
		}
	}
	if landed < n {
		if cls == "" {
			cls = "lost"
		}
		r.failed[cls] += n - landed
	}
	if landed == 0 {
		return
	}
	r.latMS = append(r.latMS, float64(lat.Nanoseconds())/1e6)
	r.queueUS = append(r.queueUS, float64(queue))
	r.runUS = append(r.runUS, float64(run))
	r.overUS = append(r.overUS, float64(lat.Microseconds()-queue-run))
	r.served = append(r.served, served{is.v, tier})
	r.recs += b.recs[v]
}

// failClass names the bucket of a failed request.
func failClass(err error) string {
	switch {
	case errors.Is(err, client.ErrBatchAborted):
		return "aborted"
	case errors.Is(err, client.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, client.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, client.ErrJobTimeout):
		return "timeout"
	case errors.Is(err, client.ErrInvalid):
		return "invalid"
	}
	return "transport"
}

func goldenKey(v *variant, cell int) string { return fmt.Sprintf("%s#%d", v.name, cell) }

// runServing measures one serving workload. After the in-process
// reference, it sets a daemon up and drives it for an equal share of the
// run, once per set-up, and pools what the daemons served: a daemon's
// speed varies with where its memory lands, so one run averages several.
// A traced run drives each daemon a second time with spans on.
func (b *bench) runServing(name string) (*outcome, error) {
	w := servingWorkload(name, b.seed, b.scale)
	o := newOutcome(name, b.seed)

	costs, err := b.reference(o, w.variants, w.cells, len(w.cells) > 1)
	if err != nil {
		return nil, err
	}
	// The daemons share the populated store; without one each starts on
	// an empty store of its own.
	store := filepath.Join(b.runDir, "store")
	if w.populate != nil {
		t0 := time.Now()
		d, err := b.startDaemon(w.flags, store)
		if err != nil {
			return nil, err
		}
		err = submitAll(d.base, w.populate)
		if _, serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("populating the store: %w", err)
		}
		o.layer("server.populate_s", "s", time.Since(t0).Seconds(), len(w.populate))
	}

	k := b.scale.setups
	share := b.seconds / time.Duration(k)
	var setups, rss []float64
	var phases, traced []*phaseResult
	for i := range k {
		if w.populate == nil {
			store = filepath.Join(b.runDir, fmt.Sprintf("store-%d", i))
		}
		t0 := time.Now()
		d, err := b.startDaemon(w.flags, store)
		if err != nil {
			return nil, err
		}
		if err := submitAll(d.base, w.prime); err != nil {
			d.kill()
			return nil, fmt.Errorf("set-up %d: priming: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ph, err := b.phase(d, w, share, nil)
		if err == nil {
			phases = append(phases, ph)
			if b.tracer != nil {
				ph, err = b.phase(d, w, share, b.tracer)
				traced = append(traced, ph)
			}
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		peak, err := d.stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	o.gate(true, "every disesrvd exited 0 on SIGTERM")

	ph := merge(phases)
	_, med, _ := quartiles(setups)
	o.E2E["setup_s"] = measure{med, "s", len(setups)}
	fastest(phases).e2e(o.E2E)
	_, med, _ = quartiles(rss)
	o.E2E["peak_rss_mb"] = measure{med, "MB", len(rss)}
	o.Attempted, o.Done, o.Trapped = ph.cells, ph.done, ph.trap
	for k, n := range ph.failed {
		o.Failed[k] += n
	}
	b.servingGates(o, w, ph, "untraced")
	if traced != nil {
		tp := merge(traced)
		b.servingGates(o, w, tp, "traced")
		t := map[string]measure{}
		fastest(traced).e2e(t)
		o.Overhead = map[string]float64{}
		for k, m := range t {
			o.Overhead[k] = m.Value/o.E2E[k].Value - 1
		}
		ph = tp
	}
	b.servingLayers(o, w, ph, costs)
	return o, nil
}

// fastest pools the faster half, plus one, of phases run on separate
// daemons, ranked by records served per second so that a daemon that drew
// lighter classes does not rank as fast. Other tenants of the host only
// ever slow a daemon down, so the slower daemons of a run carry most of
// their interference.
func fastest(rs []*phaseResult) *phaseResult {
	speed := func(r *phaseResult) float64 { return float64(r.recs) / r.wall.Seconds() }
	sorted := slices.Clone(rs)
	sort.Slice(sorted, func(i, j int) bool { return speed(sorted[i]) > speed(sorted[j]) })
	return merge(sorted[:len(rs)/2+1])
}

// e2e fills the end-to-end metrics a timed phase measures.
func (r *phaseResult) e2e(m map[string]measure) {
	cells := r.done + r.trap
	m["cells_per_s"] = measure{float64(cells) / r.wall.Seconds(), "1/s", int(cells)}
	m["latency_p50_ms"] = measure{quantile(r.latMS, 0.5), "ms", len(r.latMS)}
	m["latency_p90_ms"] = measure{quantile(r.latMS, 0.9), "ms", len(r.latMS)}
}

// servingGates checks the phases' correctness and that they exercised the
// layer the workload is for.
func (b *bench) servingGates(o *outcome, w *serving, r *phaseResult, label string) {
	var failed int64
	for _, n := range r.failed {
		failed += n
	}
	o.gate(r.cells == r.done+r.trap+failed, "%s: attempted %d = done %d + trapped %d + failed %d", label, r.cells, r.done, r.trap, failed)
	o.gate(r.mismatched == 0, "%s: %d of %d cells byte-identical to the in-process reference", label, r.done+r.trap-r.mismatched, r.done+r.trap)
	o.gate(r.ledger == r.done+r.trap, "%s: server ledger served %d cells, client counted %d", label, r.ledger, r.done+r.trap)
	got := map[string]int64{"memory": r.mem, "disk": r.disk, "capture": r.capture}[w.tier]
	share := float64(got) / float64(max(r.lookups, 1))
	o.gate(r.lookups == int64(r.requests) && share >= w.minTier,
		"%s: %s tier served %d of %d cache lookups (%.1f%%, need >= %.0f%%) for %d requests",
		label, w.tier, got, r.lookups, 100*share, 100*w.minTier, r.requests)
}

// servingLayers reports the serving layer's own metrics and reconciles the
// ladder against the daemon's measured run time.
func (b *bench) servingLayers(o *outcome, w *serving, r *phaseResult, costs []*classCost) {
	n := len(r.latMS)
	o.layer("server.queue_us_p50", "us", quantile(r.queueUS, 0.5), n)
	o.layer("server.run_us_p50", "us", quantile(r.runUS, 0.5), n)
	o.layer("server.overhead_us_p50", "us", quantile(r.overUS, 0.5), n)
	o.layer("server.compile_us_p50", "us", float64(r.compile.Quantile(0.5)), int(r.compile.Count))
	l := float64(max(r.lookups, 1))
	o.layer("server.cache.mem_hit_frac", "frac", float64(r.mem)/l, int(r.lookups))
	o.layer("server.cache.disk_hit_frac", "frac", float64(r.disk)/l, int(r.lookups))
	o.layer("server.cache.capture_frac", "frac", float64(r.capture)/l, int(r.lookups))

	var allRecs float64
	for _, v := range w.variants {
		allRecs += float64(b.recs[v])
	}
	if cs := r.cache; cs.Entries == len(w.variants) {
		o.layer("server.cache.bytes_per_rec", "B", float64(cs.Bytes)/allRecs, cs.Entries)
	}
	if cs := r.cache; cs.DiskEnabled && cs.DiskEntries > 0 {
		// The stored classes are spread evenly over the variants.
		meanRecs := allRecs / float64(len(w.variants))
		o.layer("server.store.bytes_per_rec", "B", float64(cs.DiskBytes)/(float64(cs.DiskEntries)*meanRecs), cs.DiskEntries)
	}
	if r.streamCells > 0 {
		o.layer("server.stream_bytes_per_cell", "B", float64(r.streamBytes)/float64(r.streamCells), int(r.streamCells))
	}
	if costs == nil {
		return
	}
	// The ladder's prediction of each request's run time: the steps of the
	// tier that served it, at the ladder's cost for its class. A job only
	// says whether it hit; its hits split between memory and disk in the
	// proportion the phase's cache counters show.
	diskShare := float64(r.disk) / float64(max(r.mem+r.disk, 1))
	var pred, runSum float64
	for i, s := range r.served {
		c := costs[s.v]
		replay := c.ns[stepReplay]
		if len(w.cells) > 1 {
			replay = c.ns[stepMany16]
		}
		fromDisk := c.ns[stepGet] + c.ns[stepDecode]
		switch s.tier {
		case "capture":
			pred += c.ns[stepCapture] + c.ns[stepEncode] + c.ns[stepPut] + replay
		case "disk":
			pred += fromDisk + replay
		case "hit":
			pred += diskShare*fromDisk + replay
		default:
			pred += replay
		}
		runSum += r.runUS[i] * 1e3
	}
	ratio := pred / runSum
	o.layer("ladder.run_ratio", "ratio", ratio, len(r.served))
	// With few requests the closed loop's ramp-up and drain, when a worker
	// has both cores to itself, weigh too much to hold the ratio to a band.
	switch {
	case !w.reconcile:
	case len(r.served) < 100:
		o.gate(true, "ladder run ratio %.3f not held to [0.75, 1.33]: %d requests, fewer than 100", ratio, len(r.served))
	default:
		o.gate(ratio >= 0.75 && ratio <= 1.33, "ladder reconciles with the daemon's run time: ratio %.3f in [0.75, 1.33]", ratio)
	}
}

// histAdd returns a + sign*b, bucket by bucket, for two snapshots of one
// histogram.
func histAdd(a, b stats.HistSnapshot, sign int64) stats.HistSnapshot {
	counts := map[int64]int64{}
	for _, bk := range a.Buckets {
		counts[bk.Le] += bk.Count
	}
	for _, bk := range b.Buckets {
		counts[bk.Le] += sign * bk.Count
	}
	out := stats.HistSnapshot{Count: a.Count + sign*b.Count, Sum: a.Sum + sign*b.Sum}
	for le, n := range counts {
		if n > 0 {
			out.Buckets = append(out.Buckets, stats.HistBucket{Le: le, Count: n})
		}
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Le < out.Buckets[j].Le })
	return out
}
