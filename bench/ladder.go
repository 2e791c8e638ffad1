package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The ladder costs each layer a job crosses by calling the layer's public
// function on the workload's own classes, one layer at a time, in this
// process. Its capture and replay double as the in-process reference that
// every served response must equal byte for byte.

// Steps of one class's ladder, in the order they run; each is a span under
// ladder/<class> and a per-call cost in classCost.ns.
const (
	stepEmuAuto   = "emu.run.auto"
	stepEmuInterp = "emu.run.interp"
	stepCapture   = "trace.capture"
	stepEncode    = "trace.encode"
	stepDecode    = "trace.decode"
	stepPut       = "store.put"
	stepGet       = "store.get"
	stepReplay    = "cpu.replay"
	stepMany1     = "cpu.many.k1"
	stepMany16    = "cpu.many.k16"
)

// classCost is what the ladder measured on one class.
type classCost struct {
	v        *variant
	recs     int64 // records in the captured stream
	insts    int64 // instructions the functional machine executed
	blocks   int64 // superblocks translated by an auto-translating run
	bytes    int64 // serialized trace size
	es       core.EngineStats
	ns       map[string]float64 // nanoseconds per call, by step
	expected [][]byte           // the result body each cell must carry
}

func (v *variant) program() (*program.Program, error) {
	if v.bench == "" {
		return asm.Assemble("job", v.asm)
	}
	p, ok := workload.ProfileByName(v.bench)
	if !ok {
		return nil, fmt.Errorf("unknown stand-in %q", v.bench)
	}
	return p.Generate()
}

// machine prepares the functional machine exactly as the server compiles
// a job of this variant: budget, register presets, production set.
func (v *variant) machine(prog *program.Program) (*emu.Machine, *core.Controller, error) {
	m := emu.New(prog)
	m.SetBudget(budget)
	for name, val := range v.regs {
		m.SetReg(isa.RegByName(name, true), val)
	}
	if v.prods == "" {
		return m, nil, nil
	}
	ctrl := core.NewController(core.DefaultEngineConfig())
	if _, err := ctrl.InstallFile(v.prods, nil); err != nil {
		return nil, nil, fmt.Errorf("%s: installing productions: %w", v.name, err)
	}
	m.SetExpander(ctrl.Engine())
	return m, ctrl, nil
}

// ladder captures v, replays it under cells (as one grouped walk when
// batch is set, as single replays otherwise) to produce the expected result
// bodies, and, when full, times every layer step. A class too short to
// time in one call repeats each step, up to 200 times, until a step covers
// about 100,000 records.
func ladder(v *variant, cells []server.MachineSpec, batch, full bool, st *store.Store, tr *tracer) (*classCost, error) {
	c := &classCost{v: v, ns: map[string]float64{}}
	root := tr.begin(0, "ladder/"+v.name)
	defer tr.end(root)
	prog, err := v.program()
	if err != nil {
		return nil, err
	}
	cfgs, err := configs(cells)
	if err != nil {
		return nil, err
	}
	ecfg := core.DefaultEngineConfig()
	// Single replays always time the default machine: a job's one cell is
	// that, and a batch's first cell is not.
	def, _ := server.MachineSpec{}.Config()

	reps := 1
	step := func(name string, fn func(rep int) error) error {
		s := tr.begin(root.id(), name)
		s.set("reps", reps)
		t0 := time.Now()
		for r := range reps {
			if err := fn(r); err != nil {
				return fmt.Errorf("%s: %s: %w", v.name, name, err)
			}
		}
		c.ns[name] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
		s.set("records", c.recs)
		tr.end(s)
		return nil
	}
	machines := func(mode emu.TranslateMode) ([]*emu.Machine, []*core.Controller, error) {
		ms, cs := make([]*emu.Machine, reps), make([]*core.Controller, reps)
		for i := range ms {
			var err error
			if ms[i], cs[i], err = v.machine(prog); err != nil {
				return nil, nil, err
			}
			ms[i].SetTranslate(mode, 0)
		}
		return ms, cs, nil
	}

	// The first capture sizes the repetition count.
	ms, ctrls, err := machines(emu.DefaultTranslate())
	if err != nil {
		return nil, err
	}
	var t *trace.Trace
	capture := func(rep int) error {
		t = trace.CaptureContext(context.Background(), ms[rep])
		if errors.Is(t.Err(), emu.ErrCancelled) {
			return t.Err()
		}
		if ctrls[rep] != nil {
			c.es = ctrls[rep].Engine().Stats
		}
		return nil
	}
	if err := step(stepCapture, capture); err != nil {
		return nil, err
	}
	c.recs = int64(t.Len())
	if full && c.recs < 100_000 {
		reps = int(min(200, 1+100_000/max(c.recs, 1)))
		if ms, ctrls, err = machines(emu.DefaultTranslate()); err != nil {
			return nil, err
		}
		if err := step(stepCapture, capture); err != nil {
			return nil, err
		}
	}

	if full {
		for _, run := range []struct {
			name string
			mode emu.TranslateMode
		}{{stepEmuAuto, emu.TranslateAuto}, {stepEmuInterp, emu.TranslateOff}} {
			ms, _, err := machines(run.mode)
			if err != nil {
				return nil, err
			}
			if err := step(run.name, func(rep int) error {
				if err := ms[rep].Run(); err != nil && !isTrap(err) {
					return err
				}
				return nil
			}); err != nil {
				return nil, err
			}
			c.insts = ms[0].Stats.Total
			if run.mode == emu.TranslateAuto {
				c.blocks, _ = ms[0].TranslateCounts()
			}
		}

		var blob []byte
		if err := step(stepEncode, func(int) (err error) { blob, err = t.MarshalBinary(); return err }); err != nil {
			return nil, err
		}
		c.bytes = int64(len(blob))
		if err := step(stepDecode, func(int) error { _, err := trace.UnmarshalBinary(blob); return err }); err != nil {
			return nil, err
		}
		key := store.Key(sha256.Sum256([]byte(v.name)))
		if err := step(stepPut, func(int) error { return st.Put(key, blob) }); err != nil {
			return nil, err
		}
		if err := step(stepGet, func(int) error {
			got, ok, err := st.Get(key)
			if err == nil && (!ok || !bytes.Equal(got, blob)) {
				err = fmt.Errorf("stored trace did not read back")
			}
			return err
		}); err != nil {
			return nil, err
		}
		if err := step(stepMany1, func(int) error {
			cpu.RunSourceMany(t.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), []cpu.Config{def})
			return nil
		}); err != nil {
			return nil, err
		}
		grid, err := configs(sweepGrid())
		if err != nil {
			return nil, err
		}
		if err := step(stepMany16, func(int) error {
			cpu.RunSourceMany(t.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), grid)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// The reference replays with the function the server uses for the
	// request shape: one RunSource per job, one grouped walk per batch.
	var results []*cpu.Result
	if full || !batch {
		if err := step(stepReplay, func(int) error {
			results = []*cpu.Result{cpu.RunSource(t.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), def)}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if batch {
		results = cpu.RunSourceMany(t.Replay(ecfg.MissPenalty, ecfg.ComposePenalty), cfgs)
	}
	for _, res := range results {
		body, err := payloadBytes(res, c.es, v.prods != "")
		if err != nil {
			return nil, err
		}
		c.expected = append(c.expected, body)
	}
	root.set("records", c.recs)
	return c, nil
}

// configs resolves machine specs as the server does.
func configs(specs []server.MachineSpec) ([]cpu.Config, error) {
	cfgs := make([]cpu.Config, len(specs))
	for i, spec := range specs {
		var err error
		if cfgs[i], err = spec.Config(); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

func isTrap(err error) bool {
	var t *emu.Trap
	return errors.As(err, &t)
}

// payloadBytes renders a result the way disesrvd renders the result field
// of a response: the wire payload, JSON-encoded without HTML escaping.
func payloadBytes(res *cpu.Result, es core.EngineStats, withEngine bool) ([]byte, error) {
	rate := func(miss, total int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(miss) / float64(total)
	}
	p := server.ResultPayload{
		Cycles: res.Cycles, Insts: res.Insts, AppInsts: res.AppInsts, IPC: res.IPC(),
		ICacheAccesses: res.ICacheAccesses, ICacheMisses: res.ICacheMisses,
		ICacheMissRate: rate(res.ICacheMisses, res.ICacheAccesses),
		DCacheAccesses: res.DCacheAccesses, DCacheMisses: res.DCacheMisses,
		DCacheMissRate: rate(res.DCacheMisses, res.DCacheAccesses),
		Mispredicts:    res.Mispredicts, DiseStalls: res.DiseStalls, ExpStalls: res.ExpStalls,
		Output: res.Output,
	}
	if withEngine {
		p.Engine = &server.EnginePayload{
			Fetched: es.Fetched, Expansions: es.Expansions, ExpansionRate: es.ExpansionRate(),
			Inserted: es.Inserted, PTMisses: es.PTMisses, RTMisses: es.RTMisses, Composed: es.Composed,
		}
	}
	if res.Err != nil {
		p.Error = res.Err.Error()
		if t, ok := res.Err.(*emu.Trap); ok {
			p.Trap = t.Kind.String()
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&p); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// probes are the layer costs that do not depend on a class: program
// generation for every stand-in, assembling the quickstart program, and
// installing its production set. They run first, before anything else in
// the process has generated a program.
type probes struct {
	generateMS, assembleUS, installUS float64
	standIns                          int
}

func runProbes(standIns []string, tiny *variant, tr *tracer) (probes, error) {
	var p probes
	s := tr.begin(0, "ladder/probes")
	defer tr.end(s)
	t0 := time.Now()
	for _, name := range standIns {
		prof, _ := workload.ProfileByName(name)
		g := tr.begin(s.id(), "workload.generate")
		g.set("bench", name)
		if _, err := prof.Generate(); err != nil {
			return p, err
		}
		tr.end(g)
	}
	p.standIns = len(standIns)
	p.generateMS = float64(time.Since(t0).Microseconds()) / 1e3 / float64(max(1, len(standIns)))

	const reps = 200
	a := tr.begin(s.id(), "asm.assemble")
	t0 = time.Now()
	for range reps {
		if _, err := asm.Assemble("job", tiny.asm); err != nil {
			return p, err
		}
	}
	p.assembleUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
	tr.end(a)

	in := tr.begin(s.id(), "core.install")
	t0 = time.Now()
	for range reps {
		if _, err := core.NewController(core.DefaultEngineConfig()).InstallFile(tiny.prods, nil); err != nil {
			return p, err
		}
	}
	p.installUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
	tr.end(in)
	return p, nil
}

// layerValues aggregates the ladder into the declared layer metrics:
// per-record and per-instruction costs weight every class by its length.
func layerValues(o *outcome, p probes, costs []*classCost) {
	var recs, insts, blocks, bytes float64
	var fetched, expansions, memoHits, memoAll float64
	sum := map[string]float64{}
	for _, c := range costs {
		recs += float64(c.recs)
		insts += float64(c.insts)
		blocks += float64(c.blocks)
		bytes += float64(c.bytes)
		fetched += float64(c.es.Fetched)
		expansions += float64(c.es.Expansions)
		memoHits += float64(c.es.MemoHits)
		memoAll += float64(c.es.MemoHits + c.es.MemoMisses)
		for k, ns := range c.ns {
			sum[k] += ns
		}
	}
	n := len(costs)
	o.layer("workload.generate_ms", "ms", p.generateMS, p.standIns)
	o.layer("asm.assemble_us", "us", p.assembleUS, 200)
	o.layer("core.install_us", "us", p.installUS, 200)
	o.layer("core.expansions_per_kinst", "1/kinst", 1000*expansions/fetched, n)
	o.layer("core.memo_hit_frac", "frac", memoHits/memoAll, n)
	o.layer("emu.ns_per_inst", "ns", sum[stepEmuAuto]/insts, n)
	o.layer("emu.interp_ns_per_inst", "ns", sum[stepEmuInterp]/insts, n)
	o.layer("emu.translated_blocks", "count", blocks/float64(n), n)
	o.layer("trace.capture_ns_per_rec", "ns", sum[stepCapture]/recs, n)
	o.layer("trace.encode_ns_per_rec", "ns", sum[stepEncode]/recs, n)
	o.layer("trace.bytes_per_rec", "B", bytes/recs, n)
	o.layer("trace.decode_ns_per_rec", "ns", sum[stepDecode]/recs, n)
	o.layer("store.put_ns_per_rec", "ns", sum[stepPut]/recs, n)
	o.layer("store.get_ns_per_rec", "ns", sum[stepGet]/recs, n)
	o.layer("cpu.replay_ns_per_rec", "ns", sum[stepReplay]/recs, n)
	// RunSourceMany at k=1 and k=16: the slope is the per-config walk,
	// the intercept the shared pass.
	walk := (sum[stepMany16] - sum[stepMany1]) / 15 / recs
	o.layer("cpu.many_walk_ns_per_rec_cfg", "ns", walk, n)
	o.layer("cpu.many_shared_ns_per_rec", "ns", sum[stepMany1]/recs-walk, n)
}
