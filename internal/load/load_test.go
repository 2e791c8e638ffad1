package load

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func newLoadTarget(t *testing.T, cfg server.Config) (*client.Client, *server.Server) {
	t.Helper()
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return client.New(ts.URL, client.WithHTTPClient(ts.Client()),
		client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			// Ignore server Retry-After floors in tests: retry near-instantly.
			Jitter: func(time.Duration) time.Duration { return time.Millisecond },
		})), srv
}

func TestClosedLoopGoldenAndAccounting(t *testing.T) {
	c, _ := newLoadTarget(t, server.Config{Workers: 2, QueueDepth: 16})
	mix, err := ParseMix("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Options{
		Client:      c,
		Mix:         mix,
		Concurrency: 4,
		MaxRequests: 40,
		Duration:    30 * time.Second,
		Classes:     2,
		Golden:      true,
	})
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	if rep.Issued != 40 || rep.Done != 40 {
		t.Errorf("issued %d done %d, want 40/40 (failed: %v)", rep.Issued, rep.Done, rep.Failed)
	}
	if !rep.Accounted() {
		t.Errorf("accounting hole: %+v", rep)
	}
	// Two cache classes → at most two misses (single-flight dedupes the rest).
	if rep.CacheHits < 38 {
		t.Errorf("cache hits = %d, want >= 38 with 2 classes over 40 jobs", rep.CacheHits)
	}
	if rep.GoldenViolations != 0 {
		t.Errorf("golden violations: %d", rep.GoldenViolations)
	}
	if rep.Latency.Count != 40 {
		t.Errorf("latency samples = %d, want 40", rep.Latency.Count)
	}
	if rep.P50US <= 0 || rep.P99US < rep.P50US {
		t.Errorf("suspicious percentiles p50=%d p99=%d", rep.P50US, rep.P99US)
	}
}

func TestOpenLoopShedsInsteadOfPiling(t *testing.T) {
	c, _ := newLoadTarget(t, server.Config{Workers: 1, QueueDepth: 4})
	// A spinning program holds the single worker for its full timeout, so the
	// two outstanding slots stay occupied and later arrivals must shed.
	spin := []Entry{{Name: "spin", Weight: 1, Req: &server.SubmitRequest{
		Asm:         ".entry main\nmain:\n    br zero, main\n",
		BudgetInsts: 1 << 40,
		TimeoutMS:   150,
	}}}
	rep, err := Run(context.Background(), Options{
		Client:         c,
		Mix:            spin,
		Mode:           "open",
		RPS:            500,
		MaxOutstanding: 2,
		Duration:       300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Issued == 0 {
		t.Fatal("open loop issued nothing")
	}
	if !rep.Accounted() {
		t.Errorf("accounting hole: %+v", rep)
	}
	// 500 RPS against 2 outstanding slots must shed at least once.
	if rep.Shed == 0 {
		t.Errorf("shed = 0, expected arrivals beyond the outstanding cap to be shed")
	}
}

func TestOverflowRetriesThenRecovers(t *testing.T) {
	// A tiny server under a wide closed loop: overflow 429s must be absorbed
	// by SDK retries, ending with every job done and zero failures.
	c, _ := newLoadTarget(t, server.Config{Workers: 1, QueueDepth: 1})
	rep, err := Run(context.Background(), Options{
		Client:      c,
		Mix:         mustMix(t, "quickstart"),
		Concurrency: 8,
		MaxRequests: 64,
		Duration:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	if rep.Done != 64 || len(rep.Failed) != 0 {
		t.Errorf("done %d failed %v, want 64 done and no failures", rep.Done, rep.Failed)
	}
	sp, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Server-side accounting must agree with the client ledger.
	if sp.Jobs.Done != rep.Done {
		t.Errorf("server done=%d, client done=%d", sp.Jobs.Done, rep.Done)
	}
}

func TestParseMixAndBenchJSON(t *testing.T) {
	mix, err := ParseMix("quickstart:4, gzip:1 ,mcf+count:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Weight != 4 || mix[2].Weight != 2 {
		t.Errorf("mix = %+v", mix)
	}
	if mix[2].Req.Prods == "" {
		t.Error("mcf+count entry lost its production set")
	}
	for _, bad := range []string{"", "nosuchbench", "gzip:0", "gzip:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}

	rep := &Report{Mode: "closed", Issued: 10, Done: 9,
		Failed: map[string]int64{"overloaded": 1}, P50US: 100, P99US: 900}
	recs := rep.BenchJSON("load")
	byName := map[string]float64{}
	for _, r := range recs {
		byName[r.Name] = r.NsOp
	}
	if byName["load/p50"] != 100_000 || byName["load/p99"] != 900_000 {
		t.Errorf("latency rows wrong: %v", byName)
	}
	if byName["load/count/done"] != 9 || byName["load/count/failed/overloaded"] != 1 {
		t.Errorf("counter rows wrong: %v", byName)
	}
	if _, err := WriteBenchJSON(recs); err != nil {
		t.Fatal(err)
	}
}

func TestGoldensDetectDivergence(t *testing.T) {
	g := NewGoldens()
	if !g.Check("k#0", []byte(`{"cycles":1}`)) {
		t.Error("first sight must establish the golden")
	}
	if !g.Check("k#0", []byte(`{"cycles":1}`)) {
		t.Error("identical bytes flagged as divergent")
	}
	if g.Check("k#0", []byte(`{"cycles":2}`)) {
		t.Error("divergent bytes not flagged")
	}
	if g.Len() != 1 {
		t.Errorf("len = %d, want 1", g.Len())
	}
}

func mustMix(t *testing.T, spec string) []Entry {
	t.Helper()
	mix, err := ParseMix(spec)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// fakeAPI answers every single job "done" after delay (or with the
// context's error if that ends first) and records the budget and program of
// each submission.
type fakeAPI struct {
	delay time.Duration
	mu    sync.Mutex
	keys  map[string]int
}

func (f *fakeAPI) Submit(ctx context.Context, req *server.SubmitRequest) (*client.JobResponse, error) {
	f.mu.Lock()
	if f.keys == nil {
		f.keys = make(map[string]int)
	}
	f.keys[fmt.Sprintf("%s/%d", req.Bench, req.BudgetInsts)]++
	f.mu.Unlock()
	select {
	case <-time.After(f.delay):
		return &client.JobResponse{Outcome: "done"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *fakeAPI) BatchCollect(context.Context, *server.BatchRequest) ([]*client.BatchCell, *server.BatchSummary, error) {
	return nil, nil, fmt.Errorf("fakeAPI serves single jobs only")
}

// TestDurationStopsIssuingOnly: the duration bound ends the issuing of new
// jobs; the jobs in flight when it passes are answered, not cancelled.
func TestDurationStopsIssuingOnly(t *testing.T) {
	for _, mode := range []string{"closed", "open"} {
		t.Run(mode, func(t *testing.T) {
			rep, err := Run(context.Background(), Options{
				Client:      &fakeAPI{delay: 150 * time.Millisecond},
				Mix:         mustMix(t, "gzip"),
				Mode:        mode,
				Concurrency: 2,
				RPS:         50,
				Duration:    50 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("Run: %v\nreport: %+v", err, rep)
			}
			if rep.Issued == 0 || rep.Done != rep.Issued || len(rep.Failed) != 0 {
				t.Errorf("issued %d, done %d, failed %v: want every issued job done", rep.Issued, rep.Done, rep.Failed)
			}
		})
	}
}

// TestClassFanOutCoversEveryPair: Classes x len(schedule) arrivals visit
// every (entry, class) pair, even when the schedule length and the class
// count share a factor.
func TestClassFanOutCoversEveryPair(t *testing.T) {
	f := &fakeAPI{}
	rep, err := Run(context.Background(), Options{
		Client:      f,
		Mix:         mustMix(t, "gzip,mcf"),
		Concurrency: 1,
		MaxRequests: 4,
		Duration:    30 * time.Second,
		Classes:     2,
	})
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	want := map[string]int{
		fmt.Sprintf("gzip/%d", defaultBudget): 1, fmt.Sprintf("gzip/%d", defaultBudget+1): 1,
		fmt.Sprintf("mcf/%d", defaultBudget): 1, fmt.Sprintf("mcf/%d", defaultBudget+1): 1,
	}
	if !reflect.DeepEqual(f.keys, want) {
		t.Errorf("visited %v, want each of the 4 (entry, class) pairs once: %v", f.keys, want)
	}
}
