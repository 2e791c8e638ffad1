package load

import (
	"context"
	"testing"
	"time"

	"repro/internal/server"
)

// TestBatchMixAccounting drives a mixed job/batch closed loop and checks
// the cell-based ledger: every cell of every arrival lands in a bucket,
// batch cell 0 shares its golden with the single-job entry (pinning
// batch/single byte-identity under load), and the server's own counters
// agree.
func TestBatchMixAccounting(t *testing.T) {
	c, _ := newLoadTarget(t, server.Config{Workers: 2, QueueDepth: 16})
	mix := mustMix(t, "quickstart:2,quickstart@4:1")
	rep, err := Run(context.Background(), Options{
		Client:      c,
		Mix:         mix,
		Concurrency: 3,
		MaxRequests: 18, // 18 arrivals over the 3-slot schedule: 12 singles + 6 batches
		Duration:    30 * time.Second,
		Golden:      true,
	})
	if err != nil {
		t.Fatalf("Run: %v\nreport: %+v", err, rep)
	}
	// 12 single cells + 6 batches × 4 cells = 36 cells issued.
	if rep.Issued != 36 || rep.Batches != 6 {
		t.Errorf("issued %d batches %d, want 36 cells over 6 batches", rep.Issued, rep.Batches)
	}
	if !rep.Accounted() {
		t.Errorf("accounting hole: %+v", rep)
	}
	if rep.Done != 36 || len(rep.Failed) != 0 {
		t.Errorf("done %d failed %v, want all 36 cells done", rep.Done, rep.Failed)
	}
	if rep.GoldenViolations != 0 {
		t.Errorf("golden violations: %d", rep.GoldenViolations)
	}
	// Latency samples are per submission (arrival), not per cell.
	if rep.Latency.Count != 18 {
		t.Errorf("latency samples = %d, want 18 arrivals", rep.Latency.Count)
	}
	sp, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Batches.Batches != 6 || sp.Batches.Cells != 24 || sp.Batches.CellsDone != 24 {
		t.Errorf("server batch counters %+v, want 6 batches / 24 cells done", sp.Batches)
	}
	if sp.Jobs.Done != rep.Done {
		t.Errorf("server done=%d, client done=%d", sp.Jobs.Done, rep.Done)
	}
	if sp.Batches.Cells != sp.Batches.CellsDone+sp.Batches.CellsTrapped+sp.Batches.CellsAborted {
		t.Errorf("server cell ledger does not reconcile: %+v", sp.Batches)
	}
}

// TestOpenLoopShedsBatchInCells pins the shed-accounting fix: an open loop
// over a pure batch mix must shed in cell multiples, never one unit per
// dropped batch arrival.
func TestOpenLoopShedsBatchInCells(t *testing.T) {
	c, _ := newLoadTarget(t, server.Config{Workers: 1, QueueDepth: 4})
	spin := server.SubmitRequest{
		Asm:         ".entry main\nmain:\n    br zero, main\n",
		BudgetInsts: 1 << 40,
	}
	mix := []Entry{{Name: "spin@8", Weight: 1, Cells: 8, Req: &spin}}
	// The spinning batches never finish on their own: the run's context, not
	// its duration, is what cuts the one in flight short.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, Options{
		Client:         c,
		Mix:            mix,
		Mode:           "open",
		RPS:            500,
		MaxOutstanding: 1,
		Duration:       250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Shed == 0 {
		t.Fatal("expected shedding at 500 RPS against one outstanding slot")
	}
	if rep.Shed%8 != 0 {
		t.Errorf("shed = %d, want a multiple of the 8-cell batch size", rep.Shed)
	}
	if rep.Issued%8 != 0 {
		t.Errorf("issued = %d, want a multiple of the 8-cell batch size", rep.Issued)
	}
	if !rep.Accounted() {
		t.Errorf("accounting hole: %+v", rep)
	}
}

// TestParseMixBatchSyntax covers the name[@cells][:weight] grammar.
func TestParseMixBatchSyntax(t *testing.T) {
	mix, err := ParseMix("quickstart@16:3,gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Cells != 16 || mix[0].Weight != 3 || mix[0].Name != "quickstart@16" {
		t.Errorf("mix = %+v", mix)
	}
	if mix[1].Cells != 0 {
		t.Errorf("plain entry got cells: %+v", mix[1])
	}
	for _, bad := range []string{"quickstart@1", "quickstart@0", "quickstart@x", "nosuch@4"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestGoldenKeySharing pins the cross-path identity convention: cell 0 of
// a batch keys like the single job, later cells get their own slots.
func TestGoldenKeySharing(t *testing.T) {
	if k := goldenKey("quickstart@4", 1, 0); k != "quickstart#1" {
		t.Errorf("cell 0 key = %q, want the single-job key", k)
	}
	if k := goldenKey("quickstart", 1, 0); k != "quickstart#1" {
		t.Errorf("single key = %q", k)
	}
	if k := goldenKey("quickstart@4", 0, 2); k != "quickstart#0/c2" {
		t.Errorf("sweep cell key = %q", k)
	}
}
