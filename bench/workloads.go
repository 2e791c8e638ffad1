package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/acf/mfi"
	"repro/internal/server"
	"repro/internal/workload"
)

// budget is the instruction budget of every stand-in job. Each stand-in
// halts far below it, so adding a salt to it makes a new cache class whose
// result bytes are identical to the unsalted one.
const budget = 50_000_000

// variant is one functional program the bench serves or replays: a
// stand-in benchmark or an assembly program, plus an optional production
// set with its dedicated-register presets.
type variant struct {
	name  string
	bench string
	asm   string
	prods string
	regs  map[string]uint64
}

// job renders the variant as a single-job request.
func (v *variant) job(salt int64, spec server.MachineSpec) *server.SubmitRequest {
	return &server.SubmitRequest{
		Bench: v.bench, Asm: v.asm, Prods: v.prods, Regs: v.regs,
		BudgetInsts: budget + salt, Machine: spec,
	}
}

// standIn is a stand-in benchmark, plain or with the store-counting
// production set installed ("+count").
func standIn(name string, count bool) *variant {
	v := &variant{name: name, bench: name}
	if count {
		v.name += "+count"
		v.prods = server.SmokeProds
	}
	return v
}

// tinyVariant is the quickstart program with its store loop run n times
// and its buffer sized to match.
func tinyVariant(n int) *variant {
	src := strings.Replace(server.SmokeAsm, "li r2, 4", fmt.Sprintf("li r2, %d", n), 1)
	src = strings.Replace(src, ".space 64", fmt.Sprintf(".space %d", 8*n), 1)
	return &variant{name: fmt.Sprintf("quickstart/n=%d", n), asm: src, prods: server.SmokeProds}
}

// tinyFor is the seed's jobs_tiny program: the trip count is 4 to 64.
func tinyFor(seed int64) *variant { return tinyVariant(4 + rng(seed, "jobs_tiny", 0).Intn(61)) }

// mfiVariant is a stand-in under DISE3 memory fault isolation: the class
// the figure tables capture most often.
func mfiVariant(name string) *variant {
	return &variant{name: name + "+mfi", bench: name, prods: mfi.Productions(mfi.DISE3), regs: mfi.SetupRegs()}
}

// sweepGrid is the 16-cell width x dise_mode grid of BenchmarkBatchSweep.
func sweepGrid() []server.MachineSpec {
	widths := []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 2, 4, 8, 1, 3, 6, 12}
	grid := make([]server.MachineSpec, len(widths))
	for i, w := range widths {
		grid[i].Width = w
		if i >= 9 {
			grid[i].DiseMode = "pipe"
		}
	}
	return grid
}

// oneCell is the default machine, the single cell of a plain job.
var oneCell = []server.MachineSpec{{}}

// scale sizes the workloads. The benchmark runs at full scale; the tests
// run the same code paths at a tiny one.
type scale struct {
	standIns   []string // stand-ins the serving workloads draw from
	figBenches []string // experiments.Options.Benchmarks (nil = all ten)
	figScaleK  int      // experiments.Options.DynScaleK (0 = profile default)
	setups     int      // set-ups per run; setup_s is their median
	figPasses  int      // figure passes per run, by the last set-ups' children
}

var fullScale = scale{standIns: workload.Names(), setups: 5, figPasses: 2}

// serving is a workload against a disesrvd child: its daemon flags, the
// classes it serves, what set-up submits, and its request sequence.
type serving struct {
	flags    []string                // extra disesrvd flags; "$dir" stands for the store directory
	variants []*variant              // every variant the requests draw on
	cells    []server.MachineSpec    // the cells of one request: oneCell or the sweep grid
	prime    []*server.SubmitRequest // submitted by every set-up, before it counts as ready
	populate []*server.SubmitRequest // submitted once, through a first daemon on the same store
	next     func(i int) issue       // the i-th request of the run
	// clients is the closed loop's width: each client waits for its answer
	// before it sends again.
	clients int

	tier    string  // cache tier the timed phase must hit: memory, disk or capture
	minTier float64 // the least share of lookups that tier must serve
	// reconcile gates the ladder's predicted run time against the daemon's
	// on workloads whose every layer the ladder costs.
	reconcile bool
}

// issue is one request of a timed phase: a single job, or a batch with one
// job per cell, of variants[v].
type issue struct {
	v     int
	job   *server.SubmitRequest
	batch *server.BatchRequest
}

// rng returns the seeded stream of one workload.
func rng(seed int64, name string, salt int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	mix := uint64(seed) ^ h.Sum64() ^ uint64(salt)*0x9e3779b97f4a7c15
	return rand.New(rand.NewSource(int64(mix)))
}

// passes returns position i of a sequence of seeded permutations of n
// items, so that every item is requested once per pass.
func passes(seed int64, name string, n, i int) int {
	return rng(seed, name, int64(1+i/n)).Perm(n)[i%n]
}

// halfCounted returns one variant per stand-in: a seeded half of them
// carries the store-counting productions, the rest runs plain.
func halfCounted(seed int64, name string, names []string) []*variant {
	perm := rng(seed, name, 0).Perm(len(names))
	vs := make([]*variant, len(names))
	for rank, i := range perm {
		vs[i] = standIn(names[i], rank < len(names)/2)
	}
	return vs
}

// allVariants returns every stand-in plain and counted.
func allVariants(names []string) []*variant {
	var vs []*variant
	for _, n := range names {
		vs = append(vs, standIn(n, false), standIn(n, true))
	}
	return vs
}

func jobs(vs []*variant, salt int64) []*server.SubmitRequest {
	out := make([]*server.SubmitRequest, len(vs))
	for i, v := range vs {
		out[i] = v.job(salt, server.MachineSpec{})
	}
	return out
}

// servingWorkload builds the request plan of a serving workload from the
// seed.
func servingWorkload(name string, seed int64, sc scale) *serving {
	switch name {
	case "jobs_warm":
		vs := halfCounted(seed, name, sc.standIns)
		return &serving{
			variants: vs, cells: oneCell, prime: jobs(vs, 0),
			next: func(i int) issue {
				v := passes(seed, name, len(vs), i)
				return issue{v: v, job: vs[v].job(0, server.MachineSpec{})}
			},
			clients: workers, tier: "memory", minTier: 1, reconcile: true,
		}
	case "jobs_tiny":
		vs := []*variant{tinyFor(seed)}
		return &serving{
			variants: vs, cells: oneCell, prime: jobs(vs, 0),
			next: func(int) issue { return issue{job: vs[0].job(0, server.MachineSpec{})} },
			// One client: the workload measures a request's fixed cost,
			// which a second one would hide behind queueing for the cores.
			clients: 1,
			tier:    "memory", minTier: 1,
		}
	case "jobs_cold":
		vs := allVariants(sc.standIns)
		return &serving{
			flags:    []string{"-cache-dir", "$dir", "-cache-mb", "64", "-cache-disk-mb", "512"},
			variants: vs, cells: oneCell,
			next: func(i int) issue {
				v := passes(seed, name, len(vs), i)
				// The seed and the sequence number make the budget, and so
				// the class, new to every daemon of the run.
				salt := int64(uint64(seed)%1000)*10_000_000 + int64(i) + 1
				return issue{v: v, job: vs[v].job(salt, server.MachineSpec{})}
			},
			clients: workers, tier: "capture", minTier: 1,
		}
	case "jobs_disk":
		vs := allVariants(sc.standIns)
		const salts = 2
		populate := append(jobs(vs, 1), jobs(vs, 2)...)
		return &serving{
			flags:    []string{"-cache-dir", "$dir", "-cache-mb", "16", "-cache-disk-mb", "2048"},
			variants: vs, cells: oneCell, populate: populate,
			next: func(i int) issue {
				k := passes(seed, name, salts*len(vs), i)
				v := k % len(vs)
				return issue{v: v, job: vs[v].job(int64(1+k/len(vs)), server.MachineSpec{})}
			},
			clients: workers, tier: "disk", minTier: 0.9,
		}
	case "sweep":
		vs := halfCounted(seed, name, sc.standIns)
		grid := sweepGrid()
		return &serving{
			variants: vs, cells: grid, prime: jobs(vs, 0),
			next: func(i int) issue {
				v := passes(seed, name, len(vs), i)
				b := &server.BatchRequest{Jobs: make([]server.SubmitRequest, len(grid))}
				for j, spec := range grid {
					b.Jobs[j] = *vs[v].job(0, spec)
				}
				return issue{v: v, batch: b}
			},
			clients: workers, tier: "memory", minTier: 1, reconcile: true,
		}
	}
	return nil
}

// workloads names every workload, in the order a full run takes them, with
// the reason it is in the benchmark.
var workloads = []struct{ name, why string }{
	{"figures", "all nine Section 4 tables at full scale in one fresh process: capture, grouped replay and compression; no HTTP or store"},
	{"jobs_warm", "repeat single jobs over ten memory-resident stand-in classes: trace replay dominates; capture, codec and store are bypassed"},
	{"jobs_tiny", "quickstart jobs of a few hundred instructions at most: per-request HTTP, JSON, assembly, production checks and admission dominate, not simulation"},
	{"jobs_cold", "every job a never-seen class on a disk-backed daemon: capture, trace encoding and the store's write side dominate"},
	{"jobs_disk", "a restarted daemon over 40 stored classes with a memory tier that holds one: the store's read side and trace decoding dominate"},
	{"sweep", "16-cell width x dise_mode batches over ten warm classes: the shared pass and per-config walks of grouped replay dominate"},
}
