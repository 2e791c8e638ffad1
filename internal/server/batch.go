package server

// Batched sweep serving: POST /v1/batches accepts an array of jobs that
// share one functional-equivalence class and serves the whole sweep from a
// single captured record walk. The class stream is captured (or fetched)
// once through the two-tier trace cache; all k timing configurations are
// then stepped down the shared stream by cpu.RunSourceMany — one walk per
// distinct penalty pair, since RT penalties are baked into the replayer.
// Each cell's result is streamed as a JSON line the moment it lands, and a
// terminal summary line reconciles cells issued/done/trapped/aborted with
// the cache-hit provenance.
//
// The byte-identity contract extends to batches: a cell's result object is
// byte-for-byte the result field of the equivalent single /v1/jobs
// response, because a single job is a one-cell batch — both routes share
// the admission helper and the worker (Server.execute) — and both are
// encoded with the same HTML-escaping-off encoder.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBatchCells bounds one batch; larger submissions answer 400. The cap
// keeps a single queue slot from smuggling unbounded work past admission
// control: a 64-cell sweep is one slot, a 1000-cell one is many batches.
const maxBatchCells = 64

// BatchRequest is the POST /v1/batches body: a sweep of jobs that must all
// belong to one functional-equivalence class (same program image,
// productions, register presets, budget, and engine geometry — exactly the
// trace-cache key). Cells may differ in any timing knob: machine spec, DISE
// mode, cache sizes, RT penalties, plus the disasm/trace_n extras.
type BatchRequest struct {
	Jobs []SubmitRequest `json:"jobs"`

	// TimeoutMS caps the whole batch's wall-clock time (0 = server default,
	// bounded above by it). Per-cell timeout_ms must be zero: the batch is
	// one scheduling unit.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchCell is one streamed per-cell line. Index is the cell's position in
// the request's jobs array (cells land in penalty-group order, not
// necessarily index order). Result is byte-identical to the result field of
// the equivalent single-job response.
type BatchCell struct {
	Index   int            `json:"index"`
	Outcome string         `json:"outcome"` // done | trapped
	Result  *ResultPayload `json:"result"`
}

// BatchSummary is the terminal line of a batch stream. Done + Trapped +
// Aborted always equals Cells; Aborted is non-zero exactly when Error is
// set (timeout, cancellation, or drain ended the batch early).
type BatchSummary struct {
	ID      string `json:"batch_id"`
	Outcome string `json:"batch_outcome"` // done | unavailable | timeout | cancelled
	Cells   int    `json:"cells"`
	Done    int    `json:"cells_ok"`
	Trapped int    `json:"cells_trap"`
	Aborted int    `json:"cells_aborted"`
	// Cache is the provenance of the class stream: "memory", "disk",
	// "peer" (fetched from the owning fleet node), or "capture" (the
	// batch captured it now).
	Cache   string `json:"cache"`
	QueueUS int64  `json:"queue_us"`
	RunUS   int64  `json:"run_us"`
	Error   string `json:"error,omitempty"`
}

// BatchLine is one application/x-ndjson line of a batch response: every
// line carries exactly one of cell or summary, and the summary is always
// last.
type BatchLine struct {
	Cell    *BatchCell    `json:"cell,omitempty"`
	Summary *BatchSummary `json:"summary,omitempty"`
}

// compileBatch validates a batch: 1..maxBatchCells cells, each one a valid
// cacheable job, all in the class of the first. Every error is a 400.
func compileBatch(req *BatchRequest, defaultBudget int64) ([]*compiledJob, error) {
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative")
	}
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("a batch needs at least one job")
	}
	if len(req.Jobs) > maxBatchCells {
		return nil, fmt.Errorf("batch of %d cells exceeds the limit of %d", len(req.Jobs), maxBatchCells)
	}
	cells := make([]*compiledJob, len(req.Jobs))
	for i := range req.Jobs {
		var c *compiledJob
		var err error
		if i > 0 && sameClassFields(&req.Jobs[i], &req.Jobs[0]) {
			// The common sweep shape: the cell repeats jobs[0]'s functional
			// fields verbatim and varies only timing knobs, so its class key
			// is jobs[0]'s by construction. Reuse the compiled program and
			// key instead of re-assembling and re-hashing it per cell.
			c, err = compileTimingVariant(&req.Jobs[i], cells[0])
		} else {
			c, err = compile(&req.Jobs[i], defaultBudget)
		}
		if err != nil {
			return nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
		if c.maxCycles != 0 {
			return nil, fmt.Errorf("jobs[%d]: max_cycles is not batchable (watchdogged jobs run live; submit via /v1/jobs)", i)
		}
		if c.timeoutMS != 0 {
			return nil, fmt.Errorf("jobs[%d]: set timeout_ms on the batch, not on a cell", i)
		}
		if i > 0 && c.key != cells[0].key {
			return nil, fmt.Errorf("jobs[%d] is not in jobs[0]'s functional-equivalence class (program, prods, regs, budget_insts and engine geometry must match; only timing knobs may vary)", i)
		}
		cells[i] = c
	}
	return cells, nil
}

// sameClassFields reports whether a and b agree on every functional (class-
// key) request field: program source, productions, register presets, budget,
// and engine geometry. Timing knobs — the machine spec and the engine
// penalties — are deliberately not compared. A false answer is never wrong,
// only slow: the caller falls back to a full compile and the key comparison
// decides class membership.
func sameClassFields(a, b *SubmitRequest) bool {
	if a.Asm != b.Asm || a.ImageB64 != b.ImageB64 || a.Bench != b.Bench ||
		a.Prods != b.Prods || a.BudgetInsts != b.BudgetInsts {
		return false
	}
	if a.Engine.PTEntries != b.Engine.PTEntries ||
		a.Engine.RTEntries != b.Engine.RTEntries ||
		a.Engine.RTAssoc != b.Engine.RTAssoc ||
		a.Engine.RTBlock != b.Engine.RTBlock ||
		a.Engine.RTPerfect != b.Engine.RTPerfect {
		return false
	}
	if len(a.Regs) != len(b.Regs) {
		return false
	}
	for k, v := range a.Regs {
		if bv, ok := b.Regs[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// compileTimingVariant compiles a cell whose functional fields are verbatim
// those of an already-compiled base cell: the program, image, productions,
// register presets, budget, and cache key carry over; only the timing knobs
// (machine spec, engine penalties) and the per-cell extras are resolved. The
// validation mirrors compile for exactly the fields it resolves.
func compileTimingVariant(req *SubmitRequest, base *compiledJob) (*compiledJob, error) {
	j := &compiledJob{
		prog:      base.prog,
		image:     base.image,
		prods:     base.prods,
		regs:      base.regs,
		budget:    base.budget,
		maxCycles: req.MaxCycles,
		timeoutMS: req.TimeoutMS,
		disasm:    req.Disasm,
		traceN:    req.TraceN,
		key:       base.key,
		cacheable: true,
	}
	if j.maxCycles < 0 || j.timeoutMS < 0 || j.traceN < 0 {
		return nil, fmt.Errorf("budget_insts, max_cycles, timeout_ms and trace_n must be non-negative")
	}
	if j.traceN > maxTraceN {
		return nil, fmt.Errorf("trace_n %d exceeds the limit of %d", j.traceN, maxTraceN)
	}
	var err error
	if j.ecfg, err = engineConfig(req.Engine); err != nil {
		return nil, err
	}
	if j.ccfg, err = cpuConfig(req.Machine); err != nil {
		return nil, err
	}
	j.ccfg.MaxCycles = j.maxCycles
	return j, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := fmt.Sprintf("batch-%06d", s.bseq.Add(1))
	s.fleet.countRoute(r)

	var req BatchRequest
	j := s.admit(w, r, id, t0, &req, func() ([]*compiledJob, int64, error) {
		cells, err := compileBatch(&req, s.cfg.DefaultBudget)
		return cells, req.TimeoutMS, err
	}, true)
	if j == nil {
		return
	}
	n := len(j.cells)
	s.metrics.batches.Add(1)
	s.metrics.batchCells.Add(int64(n))
	s.metrics.cellsPerBatch.Observe(int64(n))

	// Hold the response status until the first cell lands: a batch that dies
	// before producing anything (drained remnant, capture timeout, client
	// gone while queued) still gets a proper non-200 with the single-job
	// envelope, so clients keep their typed-error and retry semantics.
	first, streaming := <-j.lines
	if !streaming {
		status, outcome := failure(j.err)
		s.accountAborted(n, outcome)
		writeJSON(w, status, &SubmitResponse{ID: id, Outcome: outcome, QueueUS: j.queueUS, RunUS: j.runUS, Error: j.err.Error()})
		s.logRequest(r, id, status, outcome, false, t0)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	enc.SetEscapeHTML(false)
	fl, _ := w.(http.Flusher)
	emit := func(line *BatchLine) {
		_ = enc.Encode(line)
		if fl != nil {
			fl.Flush()
		}
	}
	sum := &BatchSummary{ID: id, Outcome: "done", Cells: n}
	for cell, ok := first, true; ok; cell, ok = <-j.lines {
		if cell.Outcome == "trapped" {
			sum.Trapped++
			s.metrics.cellsTrapped.Add(1)
		} else {
			sum.Done++
			s.metrics.cellsDone.Add(1)
		}
		emit(&BatchLine{Cell: &cell})
	}

	sum.Aborted = n - sum.Done - sum.Trapped
	sum.Cache = j.prov.String()
	sum.QueueUS, sum.RunUS = j.queueUS, j.runUS
	if j.err != nil {
		_, sum.Outcome = failure(j.err)
		sum.Error = j.err.Error()
	}
	if sum.Aborted > 0 {
		s.accountAborted(sum.Aborted, sum.Outcome)
	}
	emit(&BatchLine{Summary: sum})
	s.metrics.streamBytes.Add(cw.n)
	s.logRequest(r, id, http.StatusOK, sum.Outcome, j.prov.hit(), t0)
}

// accountAborted books n admitted-but-never-answered cells: they are aborted
// in the batch ledger and land in the jobs counter of the batch's failure
// outcome, so the jobs and batch_* totals reconcile exactly.
func (s *Server) accountAborted(n int, outcome string) {
	s.metrics.cellsAborted.Add(int64(n))
	s.countFailed(n, outcome)
}

// countingWriter tallies the bytes written through it, for the
// stream_bytes metric.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
