// Package server is the serving layer of the reproduction: simulation as a
// service. It accepts EVR programs (assembly, EVRX images, or built-in
// benchmark names) with an optional DISE production set and a machine/engine
// configuration, runs assemble→load→simulate, and answers with the full
// timing statistics payload.
//
// Three pieces shape the service:
//
//   - a bounded job scheduler (sched.go): a fixed worker pool behind a
//     bounded admission queue. A full queue answers 429 with a Retry-After
//     hint instead of queueing unboundedly, and SIGTERM drains gracefully —
//     in-flight jobs finish, queued and new jobs fail fast with 503.
//
//   - a content-addressed result cache (cache.go): jobs are keyed by the
//     SHA-256 of their stream-changing dimensions — program bytes,
//     production text, instruction budget, engine geometry — which is the
//     experiment scheduler's functional-equivalence-class key made
//     content-addressed. The first job of a class captures its dynamic
//     instruction stream once (internal/trace); every later job of the
//     class, including ones that change only timing knobs (machine width,
//     cache sizes, DISE decoder mode, miss penalties), is served by the
//     allocation-free replayer. Cache misses are timed through the same
//     replay path as hits, so hit and miss responses are byte-identical by
//     construction.
//
//   - an observability surface: GET /healthz (readiness, 503 while
//     draining), GET /stats (queue depth, cache hit/miss/eviction counters,
//     jobs by outcome, per-stage latency histograms), and structured
//     request logs (log/slog).
//
// Every job runs under a context deadline plumbed into the emulator and
// scheduling loops (cpu.Config.Ctx / trace.CaptureContext), so a hostile or
// runaway program costs one worker slot for at most the job timeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxBodyBytes bounds one request body; larger submissions answer 400.
const maxBodyBytes = 16 << 20

// Config parameterizes a Server. Zero fields take the documented defaults.
type Config struct {
	Workers        int           // concurrent simulations (default GOMAXPROCS)
	QueueDepth     int           // admission queue slots (default 64)
	CacheBytes     int64         // memory trace cache budget (default 256MB)
	DefaultTimeout time.Duration // job deadline when the request names none (default 30s)
	MaxTimeout     time.Duration // upper bound on requested timeouts (default 5m)
	DefaultBudget  int64         // instruction budget when the request names none (default 50M)
	Log            *slog.Logger  // request log (default slog.Default())

	StoreDir   string        // persistent trace store directory ("" = memory-only)
	StoreBytes int64         // disk tier byte budget (default 1GB)
	StoreProbe time.Duration // degraded-disk recovery probe interval (default 5s)
	StoreFS    store.FS      // filesystem under the store (default the OS; tests inject faults)

	NodeID      string        // this daemon's fleet identity ("" = not in a fleet)
	Fleet       *fleet.Map    // initial shard map (nil = none until SetFleet)
	PeerTimeout time.Duration // per-peer fetch/replication deadline (default 2s)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = DefaultBudget
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.StoreBytes <= 0 {
		c.StoreBytes = 1 << 30
	}
	if c.StoreProbe <= 0 {
		c.StoreProbe = 5 * time.Second
	}
	if c.StoreFS == nil {
		c.StoreFS = store.OSFS{}
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	return c
}

// Server is one disesrvd instance: scheduler, cache, metrics, HTTP surface.
type Server struct {
	cfg     Config
	sched   *scheduler
	cache   *traceCache
	metrics metrics
	fleet   *fleetState
	seq     atomic.Int64
	bseq    atomic.Int64

	probeStop chan struct{}
	stopOnce  sync.Once
}

// New builds a Server and starts its worker pool. With Config.StoreDir set
// it opens (scrubbing) the persistent trace store under the cache and starts
// the degraded-disk recovery probe; an unopenable store is a startup error —
// refusing to start beats silently serving without the configured tier.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg.withDefaults()}
	var disk *store.Store
	if s.cfg.StoreDir != "" {
		st, rep, err := store.Open(s.cfg.StoreFS, s.cfg.StoreDir, s.cfg.StoreBytes)
		if err != nil {
			return nil, fmt.Errorf("opening trace store: %w", err)
		}
		s.cfg.Log.Info("trace store scrubbed",
			"dir", st.Dir(),
			"entries", rep.Entries,
			"bytes", rep.Bytes,
			"quarantined", rep.Quarantined,
			"tmp_removed", rep.TmpRemoved,
		)
		disk = st
	}
	s.cache = newTraceCache(s.cfg.CacheBytes, disk, s.cfg.Log)
	s.fleet = &fleetState{
		nodeID: s.cfg.NodeID,
		hc:     &http.Client{Transport: http.DefaultTransport},
		log:    s.cfg.Log,
	}
	if s.cfg.Fleet != nil {
		if err := s.fleet.setFleet(s.cfg.Fleet); err != nil {
			return nil, fmt.Errorf("installing shard map: %w", err)
		}
	}
	if s.cfg.NodeID != "" {
		s.cache.peer = s
	}
	s.sched = newScheduler(s.cfg.Workers, s.cfg.QueueDepth, s.execute)
	if disk != nil {
		s.probeStop = make(chan struct{})
		go s.probeLoop()
	}
	return s, nil
}

// probeLoop periodically re-checks a degraded disk tier and re-attaches it
// when the probe passes. It exits on Drain.
func (s *Server) probeLoop() {
	t := time.NewTicker(s.cfg.StoreProbe)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
			s.cache.probeDisk()
		}
	}
}

// Drain stops admission, lets in-flight jobs finish, fails queued jobs with
// 503, and returns when the workers have exited. The HTTP listener should
// be shut down after Drain returns so the failure responses are delivered.
func (s *Server) Drain() {
	s.stopOnce.Do(func() {
		if s.probeStop != nil {
			close(s.probeStop)
		}
	})
	s.sched.drain()
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatch)
	mux.HandleFunc("GET /v1/membership", s.handleMembership)
	mux.HandleFunc("GET /v1/traces/{key}", s.handleTraceGet)
	mux.HandleFunc("PUT /v1/traces/{key}", s.handleTracePut)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// SubmitResponse is the POST /v1/jobs envelope. Result is deterministic per
// request; the envelope fields (job id, cache disposition, latencies) are
// volatile and excluded from the byte-identity contract.
type SubmitResponse struct {
	ID      string         `json:"id"`
	Outcome string         `json:"outcome"`
	Cached  bool           `json:"cached"`
	QueueUS int64          `json:"queue_us"`
	RunUS   int64          `json:"run_us"`
	Result  *ResultPayload `json:"result,omitempty"`
	Error   string         `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := fmt.Sprintf("job-%06d", s.seq.Add(1))
	s.fleet.countRoute(r)

	var req SubmitRequest
	j := s.admit(w, r, id, t0, &req, func() ([]*compiledJob, int64, error) {
		c, err := compile(&req, s.cfg.DefaultBudget)
		if err != nil {
			return nil, 0, err
		}
		return []*compiledJob{c}, c.timeoutMS, nil
	}, false)
	if j == nil {
		return
	}
	var cell *BatchCell
	for c := range j.lines {
		cell = &c
	}

	resp := &SubmitResponse{ID: id, Cached: j.prov.hit(), QueueUS: j.queueUS, RunUS: j.runUS}
	status := http.StatusOK
	if cell != nil {
		resp.Outcome, resp.Result = cell.Outcome, cell.Result
	} else {
		status, resp.Outcome = failure(j.err)
		resp.Error = j.err.Error()
		s.countFailed(1, resp.Outcome)
	}
	writeJSON(w, status, resp)
	s.logRequest(r, id, status, resp.Outcome, resp.Cached, t0)
}

// admit is the admission path of both routes: decode the body into req
// (unknown fields are a 400), compile it with build into its cells and
// requested timeout_ms, derive the job's deadline, and queue it as one
// scheduler slot. On any failure it has answered the request itself and
// returns nil.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, id string, t0 time.Time,
	req any, build func() ([]*compiledJob, int64, error), cutByCause bool) *job {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.reject(w, r, id, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), &s.metrics.invalid, t0)
		return nil
	}
	cells, timeoutMS, err := build()
	if err != nil {
		s.reject(w, r, id, http.StatusBadRequest, err, &s.metrics.invalid, t0)
		return nil
	}
	s.metrics.compileLat.Observe(time.Since(t0).Microseconds())

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = min(time.Duration(timeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	j := &job{cells: cells, ctx: ctx, cancel: cancel, enq: time.Now(),
		lines: make(chan BatchCell, len(cells)), cutByCause: cutByCause}
	if err := s.sched.submit(j); err != nil {
		cancel()
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			s.reject(w, r, id, http.StatusTooManyRequests, err, &s.metrics.rejected, t0)
		} else {
			s.reject(w, r, id, http.StatusServiceUnavailable, err, &s.metrics.unavail, t0)
		}
		return nil
	}
	return j
}

// failure maps a job-terminating error to the HTTP status of its envelope
// and its outcome word.
func failure(err error) (int, string) {
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	default:
		// The client went away mid-job; the response is likely unread.
		return http.StatusRequestTimeout, "cancelled"
	}
}

// countFailed books n admitted cells that were never answered in the jobs
// counter of the job's failure outcome.
func (s *Server) countFailed(n int, outcome string) {
	switch outcome {
	case "unavailable":
		s.metrics.unavail.Add(int64(n))
	case "timeout":
		s.metrics.timedOut.Add(int64(n))
	default:
		s.metrics.cancelled.Add(int64(n))
	}
}

// execute runs one admitted job on a worker, streaming each finished
// cell on j.lines. A watchdogged job (max_cycles > 0, never batchable) runs
// live and uncached. Every other job visits the trace cache once for its
// class — capture on first sight, replay always, so the result bytes are
// the same on hit and miss — then steps its cells down the stream with one
// RunSourceMany walk per distinct RT penalty pair (penalties are baked into
// the replayer); a one-cell walk is exactly RunSource. Cancellation (client
// gone, deadline) stops the walk; cells not yet streamed are left to the
// handler to account as aborted.
func (s *Server) execute(j *job) {
	start := time.Now()
	j.queueUS = start.Sub(j.enq).Microseconds()
	s.metrics.queueLat.Observe(j.queueUS)
	// finish stamps the run latency before completing the job: the waiting
	// handler reads these fields as soon as lines closes.
	finish := func(err error) {
		j.runUS = time.Since(start).Microseconds()
		s.metrics.runLat.Observe(j.runUS)
		j.finish(err)
	}

	if err := j.ctx.Err(); err != nil {
		// Deadline or disconnect while queued: never start the simulation.
		finish(err)
		return
	}
	c0 := j.cells[0]
	if !c0.cacheable {
		cfg := c0.ccfg
		cfg.Ctx = j.ctx
		m, ctrl := c0.machine()
		res := cpu.Run(m, cfg)
		if errors.Is(res.Err, emu.ErrCancelled) {
			finish(res.Err)
			return
		}
		var es core.EngineStats
		if ctrl != nil {
			es = ctrl.Engine().Stats
		}
		// No trace exists on the live path, so trace_n is not served here.
		s.emit(j, 0, c0.payload(res, es, nil))
		finish(nil)
		return
	}

	tr, es, prov, err := s.cache.do(c0.key, s.captureFunc(j.ctx, c0))
	j.prov = prov
	if err != nil {
		finish(err)
		return
	}
	// Group cells by RT penalty pair. The common case — a machine-knob
	// sweep, or a single job — is one group, one walk.
	type penGroup struct {
		miss, compose int
		idx           []int
	}
	var groups []*penGroup
	for i, c := range j.cells {
		var g *penGroup
		for _, cand := range groups {
			if cand.miss == c.ecfg.MissPenalty && cand.compose == c.ecfg.ComposePenalty {
				g = cand
				break
			}
		}
		if g == nil {
			g = &penGroup{miss: c.ecfg.MissPenalty, compose: c.ecfg.ComposePenalty}
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	for _, g := range groups {
		cfgs := make([]cpu.Config, len(g.idx))
		for k, i := range g.idx {
			cfgs[k] = j.cells[i].ccfg
			cfgs[k].Ctx = j.ctx
		}
		results := cpu.RunSourceMany(tr.Replay(g.miss, g.compose), cfgs)
		for k, i := range g.idx {
			res := results[k]
			if errors.Is(res.Err, emu.ErrCancelled) {
				err := res.Err
				if cause := context.Cause(j.ctx); j.cutByCause && cause != nil {
					err = cause
				}
				finish(err)
				return
			}
			c := j.cells[i]
			s.emit(j, i, c.payload(res, es, tr.Excerpt(c.traceN)))
		}
	}
	finish(nil)
}

// emit streams cell i's finished result and counts it as a served job.
func (s *Server) emit(j *job, i int, p *ResultPayload) {
	cell := BatchCell{Index: i, Outcome: "done", Result: p}
	if p.Trap != "" {
		cell.Outcome = "trapped"
		s.metrics.trapped.Add(1)
	} else {
		s.metrics.done.Add(1)
	}
	j.lines <- cell
}

// captureFunc builds the cache-miss capture closure for a compiled job: a
// cancellable functional run recorded by internal/trace. A cancelled capture
// is reported as an error, never stored.
func (s *Server) captureFunc(ctx context.Context, c *compiledJob) func() (*trace.Trace, core.EngineStats, error) {
	return func() (*trace.Trace, core.EngineStats, error) {
		m, ctrl := c.machine()
		tr := trace.CaptureContext(ctx, m)
		if errors.Is(tr.Err(), emu.ErrCancelled) {
			return nil, core.EngineStats{}, tr.Err()
		}
		var es core.EngineStats
		if ctrl != nil {
			es = ctrl.Engine().Stats
		}
		// Write-through replication: by the time the first submission of a
		// class is answered, R fleet nodes hold the entry. Outside a fleet
		// this is a no-op.
		s.replicate(c.key, tr, es)
		return tr, es, nil
	}
}

// retryAfter renders the 429 Retry-After hint from the live queue state.
func (s *Server) retryAfter() int {
	return retryAfterHint(int(s.sched.depth.Load()), s.cfg.Workers,
		s.metrics.runLat.Snapshot().Mean())
}

// retryAfterHint estimates, in whole seconds, when an admission slot should
// free: the queued work ahead, spread across the workers at the observed
// mean run latency (µs), rounded up and clamped to [1, 30]. A cold server
// (no latency history) or an empty queue answers the 1-second floor; the
// 30-second ceiling keeps a long queue from parking clients forever when
// capacity is about to recover.
func retryAfterHint(depth, workers int, meanRunUS float64) int {
	if workers < 1 {
		workers = 1
	}
	sec := int(math.Ceil(float64(depth) * meanRunUS / float64(workers) / 1e6))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The store status is informational: a degraded disk tier still serves
	// every request (memory-only), so the endpoint stays 200 — load
	// balancers keep routing, operators see "degraded" and alert on it.
	st := "off"
	if s.cache.disk != nil {
		if s.cache.degraded() {
			st = "degraded"
		} else {
			st = "ok"
		}
	}
	body := map[string]any{
		"ok":       true,
		"draining": false,
		"store":    st,
		"degraded": s.cache.degraded(),
	}
	if s.sched.isDraining() {
		body["ok"], body["draining"] = false, true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &StatsPayload{
		QueueDepth: int(s.sched.depth.Load()),
		QueueCap:   s.cfg.QueueDepth,
		Running:    int(s.sched.running.Load()),
		Workers:    s.cfg.Workers,
		Draining:   s.sched.isDraining(),
		Jobs:       s.metrics.jobs(),
		Batches:    s.metrics.batchStats(),
		Cache:      s.cache.stats(),
		Fleet:      s.fleet.stats(),
		Latency:    s.metrics.latency(),
	})
}

// reject answers an admission-stage failure and bumps its outcome counter.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, id string, status int, err error, counter *atomic.Int64, t0 time.Time) {
	counter.Add(1)
	outcome := "invalid"
	switch status {
	case http.StatusTooManyRequests:
		outcome = "rejected"
	case http.StatusServiceUnavailable:
		outcome = "unavailable"
	}
	writeJSON(w, status, &SubmitResponse{ID: id, Outcome: outcome, Error: err.Error()})
	s.logRequest(r, id, status, outcome, false, t0)
}

func (s *Server) logRequest(r *http.Request, id string, status int, outcome string, cached bool, t0 time.Time) {
	s.cfg.Log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"job", id,
		"status", status,
		"outcome", outcome,
		"cached", cached,
		"dur_ms", time.Since(t0).Milliseconds(),
	)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
