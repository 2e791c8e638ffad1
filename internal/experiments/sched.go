package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/acf/mfi"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/trace"
)

// sched is the bounded worker pool behind every figure harness. Each
// (benchmark x configuration) cell is an independent job: it builds its own
// machine, engine and cache hierarchy, so cells only share immutable inputs
// (generated programs, compression dictionaries, captured traces). Jobs are
// spawned freely — a row job forks one job per cell — and a counting
// semaphore bounds only the simulations themselves, so nested fan-out can
// never deadlock the pool. Tables are deterministic regardless of
// completion order because every job writes its own preallocated cell,
// addressed by (row, column) label.
//
// Cells whose configurations differ only in timing knobs (cache geometry,
// machine width, decoder integration, PT/RT penalties) consume the same
// dynamic instruction stream; such cells carry an equal class key and share
// one trace capture (internal/trace), replaying it per cell instead of
// re-running the functional emulation. Capture happens once per
// (program, class key), on whichever cell gets there first — the stream is
// identical for every cell of the class by construction, so the winner does
// not matter and tables stay byte-identical at any worker count.
type sched struct {
	sem chan struct{}
	ctx context.Context // nil = never cancelled
	wg  sync.WaitGroup

	mu  sync.Mutex
	log Options
	pan any // first captured job panic, re-raised by wait

	tmu    sync.Mutex
	traces map[traceKey]*traceEntry

	// remote, when non-nil, routes wire-expressible cells through a
	// disesrvd batch API (Options.BatchBase) instead of simulating locally.
	remote *client.Client

	imu    sync.Mutex
	images map[*program.Program]string // memoized base64 EVRX images
}

// forceLive, when true, routes every cell through the live functional path.
// The equivalence tests flip it to prove that trace replay leaves every
// table byte-identical.
var forceLive bool

// class identifies a cell's functional-equivalence class. Cells of one
// program with equal keys consume byte-identical dynamic instruction
// streams; they share a single captured trace and differ only in the PT/RT
// penalties used to rebuild DISE stall cycles at replay. The zero class
// (empty key) opts a cell out of sharing — it always runs live.
//
// wire, when non-nil, is the class's expression as disesrvd job material:
// classes whose machine preparation is pure wire state (a production file
// plus dedicated-register presets) can be served by a remote batch API.
// Classes that install programmatic dictionaries or composers (decompClass,
// ded) have no wire form and always simulate locally.
type class struct {
	key           string
	miss, compose int
	wire          *wireSpec
}

// live is the empty class: always run the functional machine.
var live = class{}

// plain is the class of runs with no expander installed. An engine with no
// productions inspects every fetch but never expands and never stalls, so
// production-free engine runs share this class too. Its wire form is the
// empty job: no productions, no presets, default engine geometry.
var plain = class{key: "plain", wire: &wireSpec{}}

// ded is the class of dedicated-decompressor runs: the hardware expander
// never stalls, so the class carries no penalties.
var ded = class{key: "ded"}

// geomKey renders the stream-determining engine dimensions: table geometry
// and virtualization, but never MissPenalty/ComposePenalty — those only
// scale recorded stall events, and live in the class's replay penalties.
func geomKey(c core.EngineConfig) string {
	if c.RTPerfect {
		return fmt.Sprintf("pt%d,rtperf,b%d", c.PTEntries, c.RTBlock)
	}
	return fmt.Sprintf("pt%d,rt%dx%d,b%d", c.PTEntries, c.RTEntries, c.RTAssoc, c.RTBlock)
}

// mfiClass keys a run with MFI productions installed on engine geometry c.
// MFI preparation is pure wire state — mfi.Productions(v) plus
// mfi.SetupRegs() — so the class carries a wire form whenever c itself
// round-trips through the server's EngineSpec.
func mfiClass(v mfi.Variant, c core.EngineConfig) class {
	return class{
		key: "mfi-" + v.String() + "|" + geomKey(c), miss: c.MissPenalty, compose: c.ComposePenalty,
		wire: wireFor(mfi.Productions(v), mfi.SetupRegs(), c),
	}
}

// decompClass keys a DISE-decompression run on engine geometry c; composed
// marks dictionaries whose RT fill inlines MFI productions.
func decompClass(c core.EngineConfig, composed bool) class {
	k := "decomp"
	if composed {
		k = "decomp+mfi"
	}
	return class{key: k + "|" + geomKey(c), miss: c.MissPenalty, compose: c.ComposePenalty}
}

// newSched builds a scheduler with o.Workers simulation slots
// (GOMAXPROCS when unset).
func (o Options) newSched() *sched {
	n := o.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &sched{sem: make(chan struct{}, n), ctx: o.Ctx, log: o,
		traces: make(map[traceKey]*traceEntry),
		images: make(map[*program.Program]string)}
	if o.BatchBase != "" {
		s.remote = client.New(o.BatchBase)
	}
	return s
}

// acquire takes a semaphore slot, or reports cancellation if the scheduler's
// context fires first (backpressure must not outlast a cancelled run).
func (s *sched) acquire() error {
	if s.ctx == nil {
		s.sem <- struct{}{}
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.ctx.Done():
		return &emu.Trap{Kind: emu.TrapCancelled,
			Cause: context.Cause(s.ctx), Detail: "experiment cancelled"}
	}
}

// logf emits one progress line; safe from concurrent jobs.
func (s *sched) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.logf(format, args...)
}

// fork runs fn as a job. A panicking job (the harnesses panic on any
// simulator regression) does not crash the process from a bare goroutine:
// the first panic value is captured and re-raised on the caller of wait.
func (s *sched) fork(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				if s.pan == nil {
					s.pan = r
				}
				s.mu.Unlock()
			}
		}()
		fn()
	}()
}

// wait blocks until every job (including jobs forked by jobs) finishes,
// then re-raises the first job panic, if any.
func (s *sched) wait() {
	s.wg.Wait()
	if s.pan != nil {
		panic(s.pan)
	}
}

// run is the scheduled form of the package-level run: the semaphore bounds
// how many simulations execute at once, and the scheduler's context rides
// along as the cell's default cancellation.
func (s *sched) run(prog *program.Program, cfg cpu.Config, prep func(*emu.Machine)) *cpu.Result {
	if cfg.Ctx == nil {
		cfg.Ctx = s.ctx
	}
	if err := s.acquire(); err != nil {
		// The harnesses treat any cell failure as fatal; a cancelled run
		// aborts figure generation loudly via the scheduler's panic path.
		panic(fmt.Sprintf("experiments: %s: %v", prog.Name, err))
	}
	defer func() { <-s.sem }()
	return run(prog, cfg, prep)
}

// traceKey addresses one captured trace: the program identity (pointer —
// programs are immutable once generated) plus the class key.
type traceKey struct {
	prog *program.Program
	key  string
}

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
}

func (s *sched) traceEntry(k traceKey) *traceEntry {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	e := s.traces[k]
	if e == nil {
		e = &traceEntry{}
		s.traces[k] = e
	}
	return e
}

// capture returns the shared trace for (prog, cl), capturing it on first
// use under a semaphore slot.
func (s *sched) capture(prog *program.Program, prep func(*emu.Machine), cl class) *trace.Trace {
	k := traceKey{prog: prog, key: cl.key}
	ent := s.traceEntry(k)
	ent.once.Do(func() {
		if err := s.acquire(); err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", prog.Name, err))
		}
		defer func() { <-s.sem }()
		m := emu.New(prog)
		if prep != nil {
			prep(m)
		}
		// A capture truncated by cancellation replays as the cancellation
		// trap; it lives only as long as this harness's scheduler.
		ent.tr = trace.CaptureContext(s.ctx, m)
	})
	if ent.tr == nil {
		// The capture panicked on another cell; that panic is already
		// propagating through the scheduler.
		panic(fmt.Sprintf("experiments: %s: trace capture failed for class %q", prog.Name, cl.key))
	}
	return ent.tr
}

// runC runs one cell under its equivalence class: the first cell of a
// (program, class) pair captures the dynamic instruction stream under a
// semaphore slot, every cell replays it with the class's penalties. Cells
// that cannot share — empty class key, a fault-campaign Hook, or a watchdog
// (both need the live machine) — fall back to run.
func (s *sched) runC(prog *program.Program, cfg cpu.Config, prep func(*emu.Machine), cl class) *cpu.Result {
	if cl.key == "" || cfg.Hook != nil || cfg.MaxCycles > 0 || forceLive {
		return s.run(prog, cfg, prep)
	}
	if rs := s.runRemote(prog, []cpu.Config{cfg}, cl); rs != nil {
		return rs[0]
	}
	tr := s.capture(prog, prep, cl)
	if err := s.acquire(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", prog.Name, err))
	}
	defer func() { <-s.sem }()
	if cfg.Ctx == nil {
		cfg.Ctx = s.ctx
	}
	r := cpu.RunSource(tr.Replay(cl.miss, cl.compose), cfg)
	if r.Err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", prog.Name, r.Err))
	}
	return r
}

// runCMany runs a group of cells that share one equivalence class and differ
// only in timing configuration: one shared capture, one record walk stepping
// every configuration (cpu.RunSourceMany). Results are positionally matched
// to cfgs and byte-identical to per-cell runC calls — the sweep harnesses
// use this for their "same stream, k machine geometries" column groups.
func (s *sched) runCMany(prog *program.Program, cfgs []cpu.Config, prep func(*emu.Machine), cl class) []*cpu.Result {
	shareable := cl.key != "" && !forceLive
	for _, cfg := range cfgs {
		if cfg.Hook != nil || cfg.MaxCycles > 0 {
			shareable = false
		}
	}
	if !shareable {
		out := make([]*cpu.Result, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = s.runC(prog, cfg, prep, cl)
		}
		return out
	}
	if rs := s.runRemote(prog, cfgs, cl); rs != nil {
		return rs
	}
	tr := s.capture(prog, prep, cl)
	if err := s.acquire(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", prog.Name, err))
	}
	defer func() { <-s.sem }()
	if s.ctx != nil {
		for i := range cfgs {
			if cfgs[i].Ctx == nil {
				cfgs[i].Ctx = s.ctx
			}
		}
	}
	out := cpu.RunSourceMany(tr.Replay(cl.miss, cl.compose), cfgs)
	for _, r := range out {
		if r.Err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", prog.Name, r.Err))
		}
	}
	return out
}
