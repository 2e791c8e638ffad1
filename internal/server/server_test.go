package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/goldentest"
)

// spinAsm never halts; lifecycle tests bound it with budgets or deadlines.
const spinAsm = `
.entry main
main:
    br zero, main
`

func quietConfig() Config {
	return Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = quietConfig().Log
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// rawResponse keeps Result as raw bytes so tests can assert byte-identity.
type rawResponse struct {
	ID      string          `json:"id"`
	Outcome string          `json:"outcome"`
	Cached  bool            `json:"cached"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
}

func post(t *testing.T, ts *httptest.Server, req *SubmitRequest) (int, http.Header, *rawResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out rawResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, resp.Header, &out
}

func getStats(t *testing.T, ts *httptest.Server) *StatsPayload {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sp StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	return &sp
}

// waitStats polls /stats until cond holds (scheduler gauges are racy to
// observe any other way).
func waitStats(t *testing.T, ts *httptest.Server, what string, cond func(*StatsPayload) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(getStats(t, ts)) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSmokeGolden ties the serving layer's fixtures to the repository's
// golden harness: the smoke program/productions must reproduce the same
// headline numbers the quickstart example pins, live and via trace replay.
func TestSmokeGolden(t *testing.T) {
	mk := func() *emu.Machine {
		prog := asm.MustAssemble("smoke", SmokeAsm)
		ctrl := core.NewController(core.DefaultEngineConfig())
		if _, err := ctrl.InstallFile(SmokeProds, nil); err != nil {
			t.Fatal(err)
		}
		m := emu.New(prog)
		m.SetExpander(ctrl.Engine())
		return m
	}
	goldentest.Check(t, "server-smoke", mk, 30, 150, goldentest.Want(SmokeWant))
}

// TestMemoryHitAllocs gates the allocations of a memory-tier hit. A hit
// runs no engine, so it builds none: an engine built on the hit path again
// (its RT alone is ~1,000 objects) fails the gate.
func TestMemoryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, s := newTestServer(t, quietConfig())
	h := s.Handler()
	body, err := json.Marshal(SmokeRequest())
	if err != nil {
		t.Fatal(err)
	}
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	submit() // the miss that captures the trace
	var resp rawResponse
	if rec := submit(); rec.Code != http.StatusOK {
		t.Fatalf("hit: status %d: %s", rec.Code, rec.Body)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Cached {
		t.Fatalf("second submit was not a cache hit (cached %v, err %v)", resp.Cached, err)
	}
	const maxAllocs = 300
	if got := testing.AllocsPerRun(20, func() { submit() }); got > maxAllocs {
		t.Errorf("memory-tier hit allocates %.0f objects, want <= %d", got, maxAllocs)
	}
}

// TestJobLifecycle walks one server through the request lifecycle table:
// accepted → done/trapped, invalid → 400, deadline → 504, client gone →
// 408, drained remnant → 503. Every case also pins its /stats ledger: the
// jobs.* counters move by exactly the case's outcome, and the batches.*
// counters, which count /v1/batches traffic only, do not move at all.
func TestJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, quietConfig())
	var (
		done     = JobStats{Done: 1}
		trapped  = JobStats{Trapped: 1}
		invalid  = JobStats{Invalid: 1}
		timedOut = JobStats{TimedOut: 1}
	)
	cases := []struct {
		name    string
		req     *SubmitRequest
		status  int
		outcome string
		delta   JobStats
	}{
		{"plain asm", &SubmitRequest{Asm: SmokeAsm}, http.StatusOK, "done", done},
		{"asm with prods", SmokeRequest(), http.StatusOK, "done", done},
		{"bench", &SubmitRequest{Bench: "gzip", BudgetInsts: 20000}, http.StatusOK, "trapped", trapped},
		{"budget trap", &SubmitRequest{Asm: spinAsm, BudgetInsts: 1000}, http.StatusOK, "trapped", trapped},
		{"live max_cycles", &SubmitRequest{Asm: SmokeAsm, Prods: SmokeProds, MaxCycles: 1 << 30}, http.StatusOK, "done", done},
		{"live watchdog", &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, MaxCycles: 5000}, http.StatusOK, "trapped", trapped},
		{"timeout", &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 1}, http.StatusGatewayTimeout, "timeout", timedOut},
		{"no program", &SubmitRequest{}, http.StatusBadRequest, "invalid", invalid},
		{"two programs", &SubmitRequest{Asm: SmokeAsm, Bench: "gzip"}, http.StatusBadRequest, "invalid", invalid},
		{"bad asm", &SubmitRequest{Asm: "not a program"}, http.StatusBadRequest, "invalid", invalid},
		{"bad image", &SubmitRequest{ImageB64: "AAAA"}, http.StatusBadRequest, "invalid", invalid},
		{"unknown bench", &SubmitRequest{Bench: "nope"}, http.StatusBadRequest, "invalid", invalid},
		{"bad prods", &SubmitRequest{Asm: SmokeAsm, Prods: "prod {"}, http.StatusBadRequest, "invalid", invalid},
		{"prods aware without dict", &SubmitRequest{Asm: SmokeAsm, Prods: "aware d {\n match op == res0\n}"},
			http.StatusBadRequest, "invalid", invalid},
		{"prods DISE branch out of range", &SubmitRequest{Asm: SmokeAsm,
			Prods: "prod p {\n match class == store\n replace {\n dbeq $dr1, 9\n %insn\n }\n}"},
			http.StatusBadRequest, "invalid", invalid},
		{"bad dise mode", &SubmitRequest{Asm: SmokeAsm, Machine: MachineSpec{DiseMode: "warp"}}, http.StatusBadRequest, "invalid", invalid},
		{"bad cache size", &SubmitRequest{Asm: SmokeAsm, Machine: MachineSpec{ICacheKB: 7}}, http.StatusBadRequest, "invalid", invalid},
		{"negative budget", &SubmitRequest{Asm: SmokeAsm, BudgetInsts: -1}, http.StatusBadRequest, "invalid", invalid},
	}
	// Production errors past the syntax check keep their exact diagnostics.
	errTexts := map[string]string{
		"prods aware without dict":       `prods: dise: aware production "d" has no dictionary`,
		"prods DISE branch out of range": "prods: dise: parse: dise: replacement p: inst 0: DISE branch target 9 outside sequence [0,2]",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := getStats(t, ts)
			status, _, resp := post(t, ts, tc.req)
			if status != tc.status || resp.Outcome != tc.outcome {
				t.Fatalf("got status=%d outcome=%q (err %q), want status=%d outcome=%q",
					status, resp.Outcome, resp.Error, tc.status, tc.outcome)
			}
			if tc.status == http.StatusBadRequest && resp.Error == "" {
				t.Error("400 without a diagnostic")
			}
			if want, ok := errTexts[tc.name]; ok && resp.Error != want {
				t.Errorf("error = %q, want %q", resp.Error, want)
			}
			after := getStats(t, ts)
			checkJobLedger(t, before, after, tc.delta)
			if tc.req.MaxCycles > 0 && (after.Cache.Hits != before.Cache.Hits || after.Cache.Misses != before.Cache.Misses || resp.Cached) {
				t.Errorf("watchdogged job touched the trace cache: %+v -> %+v (cached %v)", before.Cache, after.Cache, resp.Cached)
			}
		})
	}

	t.Run("unknown field", func(t *testing.T) {
		before := getStats(t, ts)
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
			bytes.NewReader([]byte(`{"porgram": "oops"}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field: got %d, want 400", resp.StatusCode)
		}
		checkJobLedger(t, before, getStats(t, ts), invalid)
	})

	t.Run("client cancel", func(t *testing.T) {
		before := getStats(t, ts)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			errc <- postCtx(ctx, ts, &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 60_000})
		}()
		waitStats(t, ts, "worker busy", func(sp *StatsPayload) bool { return sp.Running == 1 })
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled post: %v, want context.Canceled", err)
		}
		waitStats(t, ts, "cancel counted", func(sp *StatsPayload) bool {
			return sp.Jobs.Cancelled > before.Jobs.Cancelled && sp.Running == 0
		})
		checkJobLedger(t, before, getStats(t, ts), JobStats{Cancelled: 1})
	})

	t.Run("drain remnant", func(t *testing.T) {
		cfg := quietConfig()
		cfg.Workers = 1
		cfg.QueueDepth = 1
		ts, s := newTestServer(t, cfg)
		before := getStats(t, ts)

		// The in-flight job spins until its client goes away; the queued one
		// is the remnant drain must fail with a 503.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inflight := make(chan error, 1)
		go func() {
			inflight <- postCtx(ctx, ts, &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 60_000})
		}()
		waitStats(t, ts, "worker busy", func(sp *StatsPayload) bool { return sp.Running == 1 })
		type res struct {
			status  int
			outcome string
		}
		queued := make(chan res, 1)
		go func() {
			st, _, r := post(t, ts, &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 60_000})
			queued <- res{st, r.Outcome}
		}()
		waitStats(t, ts, "job queued", func(sp *StatsPayload) bool { return sp.QueueDepth == 1 })

		drained := make(chan struct{})
		go func() { s.Drain(); close(drained) }()
		waitStats(t, ts, "draining", func(sp *StatsPayload) bool { return sp.Draining })
		cancel()
		if err := <-inflight; !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight post: %v, want context.Canceled", err)
		}
		if r := <-queued; r.status != http.StatusServiceUnavailable || r.outcome != "unavailable" {
			t.Errorf("queued job: status=%d outcome=%q, want 503 unavailable", r.status, r.outcome)
		}
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("Drain did not return")
		}
		waitStats(t, ts, "cancel counted", func(sp *StatsPayload) bool { return sp.Jobs.Cancelled > before.Jobs.Cancelled })
		checkJobLedger(t, before, getStats(t, ts), JobStats{Unavail: 1, Cancelled: 1})
	})
}

// postCtx submits req under ctx and discards the answer: the lifecycle cases
// that abandon their request observe the server only through /stats.
func postCtx(ctx context.Context, ts *httptest.Server, req *SubmitRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// checkJobLedger asserts that the jobs.* counters moved from before to after
// by exactly want, and that no batches.* counter moved.
func checkJobLedger(t *testing.T, before, after *StatsPayload, want JobStats) {
	t.Helper()
	b, a := before.Jobs, after.Jobs
	got := JobStats{
		Done:      a.Done - b.Done,
		Trapped:   a.Trapped - b.Trapped,
		Invalid:   a.Invalid - b.Invalid,
		Rejected:  a.Rejected - b.Rejected,
		Unavail:   a.Unavail - b.Unavail,
		TimedOut:  a.TimedOut - b.TimedOut,
		Cancelled: a.Cancelled - b.Cancelled,
	}
	if got != want {
		t.Errorf("jobs ledger moved by %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(before.Batches, after.Batches) {
		t.Errorf("a single job moved the batch ledger: %+v -> %+v", before.Batches, after.Batches)
	}
}

// TestCacheHitByteIdentical is the tentpole acceptance check: a repeat
// submission is served from the trace cache (observable in /stats) with a
// result byte-identical to the first, live response; a third submission
// that changes only timing knobs still hits the cache.
func TestCacheHitByteIdentical(t *testing.T) {
	ts, _ := newTestServer(t, quietConfig())

	req := SmokeRequest()
	req.Disasm = true
	req.TraceN = 8
	status, _, first := post(t, ts, req)
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first submission: status=%d cached=%v, want 200 live", status, first.Cached)
	}
	var p ResultPayload
	if err := json.Unmarshal(first.Result, &p); err != nil {
		t.Fatal(err)
	}
	got := struct{ Cycles, Insts, Mispredicts, DiseStalls int64 }{p.Cycles, p.Insts, p.Mispredicts, p.DiseStalls}
	if got != SmokeWant {
		t.Fatalf("smoke result drifted: got %+v, want %+v", got, SmokeWant)
	}
	if p.Disasm == "" || len(p.Trace) != 8 {
		t.Fatalf("extras missing: disasm %d bytes, %d trace records", len(p.Disasm), len(p.Trace))
	}

	status, _, second := post(t, ts, req)
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("second submission: status=%d cached=%v, want cached 200", status, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cache hit is not byte-identical:\nlive:   %s\ncached: %s", first.Result, second.Result)
	}

	// Timing-only knobs reuse the same captured stream: cache hit, but a
	// different timing result.
	wide := SmokeRequest()
	wide.Machine.Width = 8
	wide.Engine.MissPenalty = 60
	status, _, third := post(t, ts, wide)
	if status != http.StatusOK || !third.Cached {
		t.Fatalf("timing-only variant: status=%d cached=%v, want cached 200", status, third.Cached)
	}
	var wp ResultPayload
	if err := json.Unmarshal(third.Result, &wp); err != nil {
		t.Fatal(err)
	}
	if wp.DiseStalls != 2*p.DiseStalls {
		t.Errorf("doubled miss penalty: stalls %d, want %d", wp.DiseStalls, 2*p.DiseStalls)
	}

	sp := getStats(t, ts)
	if sp.Cache.Misses != 1 || sp.Cache.Hits != 2 {
		t.Errorf("cache counters: %+v, want 1 miss / 2 hits", sp.Cache)
	}
	// A stream-changing knob (engine geometry) is a different class.
	narrow := SmokeRequest()
	narrow.Engine.RTPerfect = true
	if status, _, r := post(t, ts, narrow); status != http.StatusOK || r.Cached {
		t.Fatalf("geometry change: status=%d cached=%v, want live 200", status, r.Cached)
	}
	if sp := getStats(t, ts); sp.Cache.Misses != 2 {
		t.Errorf("geometry change did not miss: %+v", sp.Cache)
	}
}

// TestQueueOverflow fills the one-slot queue behind a one-worker pool and
// requires the next submission to bounce with 429 + Retry-After.
func TestQueueOverflow(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	ts, _ := newTestServer(t, cfg)

	slow := &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 500}
	results := make(chan int, 2)
	go func() { st, _, _ := post(t, ts, slow); results <- st }()
	waitStats(t, ts, "worker busy", func(sp *StatsPayload) bool { return sp.Running == 1 })
	go func() { st, _, _ := post(t, ts, slow); results <- st }()
	waitStats(t, ts, "queue full", func(sp *StatsPayload) bool { return sp.QueueDepth == 1 })

	status, hdr, resp := post(t, ts, slow)
	if status != http.StatusTooManyRequests || resp.Outcome != "rejected" {
		t.Fatalf("overflow: status=%d outcome=%q, want 429 rejected", status, resp.Outcome)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-results
	<-results
	if sp := getStats(t, ts); sp.Jobs.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", sp.Jobs.Rejected)
	}
}

// TestDrainUnderLoad checks graceful shutdown: the in-flight job runs to
// its real result, the queued job gets a clean 503, and post-drain
// submissions are refused.
func TestDrainUnderLoad(t *testing.T) {
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 4
	ts, s := newTestServer(t, cfg)

	type res struct {
		status  int
		outcome string
	}
	// In-flight: a budget-bounded spin. The budget must be large enough that
	// the job is still running when Drain engages below — if it traps first,
	// the worker dequeues the "queued" job and the 503 this test asserts can
	// never happen — yet small enough to finish within the drain grace.
	inflight := make(chan res, 1)
	go func() {
		st, _, r := post(t, ts, &SubmitRequest{Asm: spinAsm, BudgetInsts: 60_000_000})
		inflight <- res{st, r.Outcome}
	}()
	waitStats(t, ts, "worker busy", func(sp *StatsPayload) bool { return sp.Running == 1 })

	queued := make(chan res, 1)
	go func() {
		// The timeout only bounds the test if drain never rejects the job;
		// keep it far above the drain latency of a saturated CI box so a
		// slow rejection cannot masquerade as a 504.
		st, _, r := post(t, ts, &SubmitRequest{Asm: spinAsm, BudgetInsts: 1 << 40, TimeoutMS: 60_000})
		queued <- res{st, r.Outcome}
	}()
	waitStats(t, ts, "job queued", func(sp *StatsPayload) bool { return sp.QueueDepth == 1 })

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	waitStats(t, ts, "draining", func(sp *StatsPayload) bool { return sp.Draining })

	if st, _, r := post(t, ts, &SubmitRequest{Asm: SmokeAsm}); st != http.StatusServiceUnavailable || r.Outcome != "unavailable" {
		t.Fatalf("post-drain submit: status=%d outcome=%q, want 503 unavailable", st, r.Outcome)
	}
	if hr, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining: %d, want 503", hr.StatusCode)
		}
	}

	if r := <-inflight; r.status != http.StatusOK || r.outcome != "trapped" {
		t.Errorf("in-flight job: status=%d outcome=%q, want 200 trapped", r.status, r.outcome)
	}
	if r := <-queued; r.status != http.StatusServiceUnavailable || r.outcome != "unavailable" {
		t.Errorf("queued job: status=%d outcome=%q, want 503 unavailable", r.status, r.outcome)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return")
	}
}
