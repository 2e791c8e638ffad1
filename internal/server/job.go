package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workload"
)

// MachineSpec selects the timing-model configuration of a job. Every field
// is timing-only: changing any of them leaves the dynamic instruction
// stream untouched, so two jobs that differ only here share one cached
// trace and differ only in how it is replayed.
type MachineSpec struct {
	Width     int    `json:"width,omitempty"`      // fetch/dispatch/commit width (default 4)
	ROB       int    `json:"rob,omitempty"`        // reorder buffer entries (default 128)
	PipeDepth int    `json:"pipe_depth,omitempty"` // front-end depth (default 12)
	DiseMode  string `json:"dise_mode,omitempty"`  // free (default), stall, pipe
	ICacheKB  int    `json:"icache_kb,omitempty"`  // 0 = default 32KB, -1 = perfect
	DCacheKB  int    `json:"dcache_kb,omitempty"`  // 0 = default 32KB, -1 = perfect
}

// EngineSpec sizes the DISE engine. Geometry and virtualization
// (PTEntries..RTPerfect) change which PT/RT events the fetch stream incurs
// and are therefore part of the job's cache key; the two penalties only
// scale recorded miss events at replay time and are not.
type EngineSpec struct {
	PTEntries      int  `json:"pt_entries,omitempty"`      // default 32
	RTEntries      int  `json:"rt_entries,omitempty"`      // default 2048
	RTAssoc        int  `json:"rt_assoc,omitempty"`        // default 2
	RTBlock        int  `json:"rt_block,omitempty"`        // default 1 inst/entry
	RTPerfect      bool `json:"rt_perfect,omitempty"`      // no RT misses
	MissPenalty    int  `json:"miss_penalty,omitempty"`    // default 30 cycles
	ComposePenalty int  `json:"compose_penalty,omitempty"` // default 150 cycles
}

// SubmitRequest is one simulation job. Exactly one program source must be
// given: EVR assembly text (Asm), a base64 EVRX image (ImageB64), or a
// built-in synthetic benchmark name (Bench).
type SubmitRequest struct {
	Asm      string `json:"asm,omitempty"`
	ImageB64 string `json:"image_b64,omitempty"`
	Bench    string `json:"bench,omitempty"`

	// Prods is an optional DISE production file installed before the run.
	Prods string `json:"prods,omitempty"`

	// Regs presets DISE dedicated registers before the run — the ACF setup
	// step (segment identifiers, handler addresses) that normally accompanies
	// a production install. Keys are dedicated-register spellings ("$dr0" ..
	// "$dr7"). Presets change the executed stream, so they are part of the
	// job's cache key.
	Regs map[string]uint64 `json:"regs,omitempty"`

	Machine MachineSpec `json:"machine"`
	Engine  EngineSpec  `json:"engine"`

	// BudgetInsts bounds the dynamic instruction count (0 = server default);
	// exhausting it ends the run with a budget trap. It truncates the
	// stream, so it is part of the cache key.
	BudgetInsts int64 `json:"budget_insts,omitempty"`
	// MaxCycles, when positive, arms the cycle-level watchdog. Such jobs run
	// live and bypass the trace cache: a watchdog kill depends on the timing
	// configuration, so the truncated stream is not reusable.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// TimeoutMS caps the job's wall-clock time (0 = server default, bounded
	// above by it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Disasm asks for the program disassembly in the result.
	Disasm bool `json:"disasm,omitempty"`
	// TraceN asks for the first N records of the dynamic stream.
	TraceN int `json:"trace_n,omitempty"`
}

// EnginePayload reports the DISE engine counters of the functional run.
type EnginePayload struct {
	Fetched       int64   `json:"fetched"`
	Expansions    int64   `json:"expansions"`
	ExpansionRate float64 `json:"expansion_rate"`
	Inserted      int64   `json:"inserted"`
	PTMisses      int64   `json:"pt_misses"`
	RTMisses      int64   `json:"rt_misses"`
	Composed      int64   `json:"composed"`
}

// ResultPayload is the deterministic part of a job response: for a given
// request it is byte-identical whether the run was served live or from the
// trace cache (volatile fields — job id, latencies, the cached flag — live
// on the SubmitResponse envelope instead).
type ResultPayload struct {
	Cycles   int64   `json:"cycles"`
	Insts    int64   `json:"insts"`
	AppInsts int64   `json:"app_insts"`
	IPC      float64 `json:"ipc"`

	ICacheAccesses int64   `json:"icache_accesses"`
	ICacheMisses   int64   `json:"icache_misses"`
	ICacheMissRate float64 `json:"icache_miss_rate"`
	DCacheAccesses int64   `json:"dcache_accesses"`
	DCacheMisses   int64   `json:"dcache_misses"`
	DCacheMissRate float64 `json:"dcache_miss_rate"`

	Mispredicts int64 `json:"mispredicts"`
	DiseStalls  int64 `json:"dise_stalls"`
	ExpStalls   int64 `json:"exp_stalls"`

	Engine *EnginePayload `json:"engine,omitempty"`

	Output string `json:"output,omitempty"`
	// Trap and Error describe an abnormal architectural termination (budget
	// exhausted, ACF violation, ...). They are part of the simulation result,
	// not a transport failure: such jobs still answer 200.
	Trap  string `json:"trap,omitempty"`
	Error string `json:"error,omitempty"`

	Disasm string   `json:"disasm,omitempty"`
	Trace  []string `json:"trace,omitempty"`
}

// regInit is one validated dedicated-register preset, kept sorted by
// register so the cache key is order-independent.
type regInit struct {
	reg isa.Reg
	val uint64
}

// compiledJob is a validated, executable form of a SubmitRequest.
type compiledJob struct {
	prog  *program.Program
	image []byte // canonical EVRX serialization (cache key material)
	prods string
	regs  []regInit

	ecfg core.EngineConfig
	ccfg cpu.Config

	budget    int64
	maxCycles int64
	timeoutMS int64

	disasm bool
	traceN int

	key       cacheKey
	cacheable bool
}

// limits on request dimensions; all violations are 400s, not truncations.
const (
	maxWidth     = 64
	maxROB       = 1 << 14
	maxPipeDepth = 64
	maxCacheKB   = 1 << 14
	maxPTEntries = 1 << 12
	maxRTEntries = 1 << 20
	maxPenalty   = 1 << 20
	maxTraceN    = 1 << 16
	maxProdsLen  = 1 << 20
)

// compile validates req and resolves it against the server defaults. Every
// error it returns is a client error (HTTP 400).
func compile(req *SubmitRequest, defaultBudget int64) (*compiledJob, error) {
	j := &compiledJob{
		prods:     req.Prods,
		budget:    req.BudgetInsts,
		maxCycles: req.MaxCycles,
		timeoutMS: req.TimeoutMS,
		disasm:    req.Disasm,
		traceN:    req.TraceN,
	}
	if j.budget < 0 || j.maxCycles < 0 || j.timeoutMS < 0 || j.traceN < 0 {
		return nil, fmt.Errorf("budget_insts, max_cycles, timeout_ms and trace_n must be non-negative")
	}
	if j.budget == 0 {
		j.budget = defaultBudget
	}
	if j.traceN > maxTraceN {
		return nil, fmt.Errorf("trace_n %d exceeds the limit of %d", j.traceN, maxTraceN)
	}
	if len(j.prods) > maxProdsLen {
		return nil, fmt.Errorf("prods exceeds the %d-byte limit", maxProdsLen)
	}

	for name, val := range req.Regs {
		r := isa.RegByName(name, true)
		if !r.IsDedicated() {
			return nil, fmt.Errorf("regs: %q is not a dedicated register ($dr0..$dr%d)", name, isa.NumDiseRegs-1)
		}
		j.regs = append(j.regs, regInit{reg: r, val: val})
	}
	sort.Slice(j.regs, func(a, b int) bool { return j.regs[a].reg < j.regs[b].reg })
	for i := 1; i < len(j.regs); i++ {
		if j.regs[i].reg == j.regs[i-1].reg {
			return nil, fmt.Errorf("regs: %s given twice", j.regs[i].reg)
		}
	}

	if err := j.loadProgram(req); err != nil {
		return nil, err
	}
	var err error
	if j.ecfg, err = engineConfig(req.Engine); err != nil {
		return nil, err
	}
	if j.ccfg, err = cpuConfig(req.Machine); err != nil {
		return nil, err
	}
	j.ccfg.MaxCycles = j.maxCycles

	// Pre-validate the production file so a syntax error is a 400 at submit,
	// not a failed job. CheckFile builds no engine: only a request that runs
	// one (a live run or a capture, through machine) pays for the PT/RT.
	if j.prods != "" {
		if err := core.CheckFile(j.prods, nil); err != nil {
			return nil, fmt.Errorf("prods: %w", err)
		}
	}

	// A watchdog kill truncates the stream at a timing-dependent point, so
	// watchdogged jobs never share traces.
	j.cacheable = j.maxCycles == 0
	if j.cacheable {
		j.key = j.cacheKey()
	}
	return j, nil
}

// loadProgram resolves the job's program from exactly one of the three
// sources and pins its canonical image bytes.
func (j *compiledJob) loadProgram(req *SubmitRequest) error {
	n := 0
	for _, src := range []string{req.Asm, req.ImageB64, req.Bench} {
		if src != "" {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("give exactly one of asm, image_b64 or bench")
	}
	var err error
	switch {
	case req.Asm != "":
		if j.prog, err = asm.Assemble("job", req.Asm); err != nil {
			return fmt.Errorf("asm: %w", err)
		}
	case req.ImageB64 != "":
		raw, err := base64.StdEncoding.DecodeString(req.ImageB64)
		if err != nil {
			return fmt.Errorf("image_b64: %w", err)
		}
		if j.prog, err = program.ReadImage("job", bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("image_b64: %w", err)
		}
	default:
		p, ok := workload.ProfileByName(req.Bench)
		if !ok {
			return fmt.Errorf("unknown bench %q (choices: %s)", req.Bench, strings.Join(workload.Names(), ", "))
		}
		if j.prog, err = p.Generate(); err != nil {
			return fmt.Errorf("bench %q: %w", req.Bench, err)
		}
	}
	var buf bytes.Buffer
	if err := j.prog.WriteImage(&buf); err != nil {
		return fmt.Errorf("serializing program: %w", err)
	}
	j.image = buf.Bytes()
	return nil
}

// Config resolves the spec against the server defaults, exactly as job
// compilation does. Exported so clients deriving a MachineSpec from a local
// cpu.Config can verify the round trip instead of trusting an inversion.
func (s MachineSpec) Config() (cpu.Config, error) { return cpuConfig(s) }

// Config resolves the spec against the server defaults, exactly as job
// compilation does — the EngineSpec counterpart of MachineSpec.Config.
func (s EngineSpec) Config() (core.EngineConfig, error) { return engineConfig(s) }

func engineConfig(spec EngineSpec) (core.EngineConfig, error) {
	cfg := core.DefaultEngineConfig()
	set := func(dst *int, v, max int, name string) error {
		if v < 0 || v > max {
			return fmt.Errorf("engine.%s %d out of range [0, %d]", name, v, max)
		}
		if v > 0 {
			*dst = v
		}
		return nil
	}
	for _, f := range []struct {
		dst  *int
		v    int
		max  int
		name string
	}{
		{&cfg.PTEntries, spec.PTEntries, maxPTEntries, "pt_entries"},
		{&cfg.RTEntries, spec.RTEntries, maxRTEntries, "rt_entries"},
		{&cfg.RTAssoc, spec.RTAssoc, 64, "rt_assoc"},
		{&cfg.RTBlock, spec.RTBlock, 64, "rt_block"},
		{&cfg.MissPenalty, spec.MissPenalty, maxPenalty, "miss_penalty"},
		{&cfg.ComposePenalty, spec.ComposePenalty, maxPenalty, "compose_penalty"},
	} {
		if err := set(f.dst, f.v, f.max, f.name); err != nil {
			return cfg, err
		}
	}
	cfg.RTPerfect = spec.RTPerfect
	return cfg, nil
}

func cpuConfig(spec MachineSpec) (cpu.Config, error) {
	cfg := cpu.DefaultConfig()
	set := func(dst *int, v, max int, name string) error {
		if v < 0 || v > max {
			return fmt.Errorf("machine.%s %d out of range [0, %d]", name, v, max)
		}
		if v > 0 {
			*dst = v
		}
		return nil
	}
	if err := set(&cfg.Width, spec.Width, maxWidth, "width"); err != nil {
		return cfg, err
	}
	if err := set(&cfg.ROB, spec.ROB, maxROB, "rob"); err != nil {
		return cfg, err
	}
	if err := set(&cfg.PipeDepth, spec.PipeDepth, maxPipeDepth, "pipe_depth"); err != nil {
		return cfg, err
	}
	switch spec.DiseMode {
	case "", "free":
		cfg.DiseMode = cpu.DiseFree
	case "stall":
		cfg.DiseMode = cpu.DiseStall
	case "pipe":
		cfg.DiseMode = cpu.DisePipe
	default:
		return cfg, fmt.Errorf("machine.dise_mode %q is not free, stall or pipe", spec.DiseMode)
	}
	setCache := func(size *int, perfect *bool, kb int, name string) error {
		switch {
		case kb == 0: // default geometry
		case kb == -1:
			*perfect = true
		case kb > 0 && kb <= maxCacheKB && kb&(kb-1) == 0:
			*size = kb << 10
		default:
			return fmt.Errorf("machine.%s %d is not -1, 0 or a power of two <= %d", name, kb, maxCacheKB)
		}
		return nil
	}
	if err := setCache(&cfg.Mem.IL1.Size, &cfg.Mem.IL1.Perfect, spec.ICacheKB, "icache_kb"); err != nil {
		return cfg, err
	}
	if err := setCache(&cfg.Mem.DL1.Size, &cfg.Mem.DL1.Perfect, spec.DCacheKB, "dcache_kb"); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// cacheKey hashes every stream-changing dimension of the job — the program's
// canonical image bytes, the production text, the dedicated-register
// presets, the instruction budget, and the engine geometry/virtualization —
// exactly the equivalence-class key of the experiment scheduler, made
// content-addressed. Timing knobs (machine spec, DISE mode, penalties,
// deadlines) are deliberately absent: jobs that differ only there replay
// one shared capture.
func (j *compiledJob) cacheKey() cacheKey {
	h := sha256.New()
	h.Write([]byte("disesrvd-trace-v2\x00"))
	var num [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	wi(j.budget)
	wi(int64(len(j.regs)))
	for _, ri := range j.regs {
		wi(int64(ri.reg))
		wi(int64(ri.val))
	}
	wi(int64(j.ecfg.PTEntries))
	if j.ecfg.RTPerfect {
		wi(-1)
		wi(-1)
	} else {
		wi(int64(j.ecfg.RTEntries))
		wi(int64(j.ecfg.RTAssoc))
	}
	wi(int64(j.ecfg.RTBlock))
	wi(int64(len(j.prods)))
	h.Write([]byte(j.prods))
	wi(int64(len(j.image)))
	h.Write(j.image)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// machine builds a freshly prepared functional machine for the job, with
// the production set installed when one was given. The returned controller
// is nil for production-free jobs.
func (j *compiledJob) machine() (*emu.Machine, *core.Controller) {
	m := emu.New(j.prog)
	if j.budget > 0 {
		m.SetBudget(j.budget)
	}
	for _, ri := range j.regs {
		m.SetReg(ri.reg, ri.val)
	}
	if j.prods == "" {
		return m, nil
	}
	ctrl := core.NewController(j.ecfg)
	if _, err := ctrl.InstallFile(j.prods, nil); err != nil {
		// compile pre-validated the text with core.CheckFile, which returns
		// exactly the error InstallFile gives on a fresh controller.
		panic(fmt.Sprintf("server: production set failed revalidation: %v", err))
	}
	m.SetExpander(ctrl.Engine())
	return m, ctrl
}

// payload renders the deterministic result body from the timed run, the
// functional engine counters, and the request's optional extras.
func (j *compiledJob) payload(res *cpu.Result, es core.EngineStats, excerpt []cpu.Rec) *ResultPayload {
	p := &ResultPayload{
		Cycles:         res.Cycles,
		Insts:          res.Insts,
		AppInsts:       res.AppInsts,
		IPC:            res.IPC(),
		ICacheAccesses: res.ICacheAccesses,
		ICacheMisses:   res.ICacheMisses,
		ICacheMissRate: rate(res.ICacheMisses, res.ICacheAccesses),
		DCacheAccesses: res.DCacheAccesses,
		DCacheMisses:   res.DCacheMisses,
		DCacheMissRate: rate(res.DCacheMisses, res.DCacheAccesses),
		Mispredicts:    res.Mispredicts,
		DiseStalls:     res.DiseStalls,
		ExpStalls:      res.ExpStalls,
		Output:         res.Output,
	}
	if j.prods != "" {
		p.Engine = &EnginePayload{
			Fetched:       es.Fetched,
			Expansions:    es.Expansions,
			ExpansionRate: es.ExpansionRate(),
			Inserted:      es.Inserted,
			PTMisses:      es.PTMisses,
			RTMisses:      es.RTMisses,
			Composed:      es.Composed,
		}
	}
	if res.Err != nil {
		p.Error = res.Err.Error()
		if t, ok := res.Err.(*emu.Trap); ok {
			p.Trap = t.Kind.String()
		}
	}
	if j.disasm {
		p.Disasm = asm.Disassemble(j.prog)
	}
	for _, r := range excerpt {
		p.Trace = append(p.Trace, formatRec(&r))
	}
	return p
}

func rate(miss, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(miss) / float64(total)
}

// formatRec renders one dynamic-stream record for the trace excerpt.
func formatRec(r *cpu.Rec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%08x:%d %v", r.PC, r.DISEPC, r.Op)
	if r.Flags&cpu.RecIsApp == 0 {
		b.WriteString(" [rt]")
	}
	if r.Flags&cpu.RecMispredict != 0 {
		b.WriteString(" [mispredict]")
	}
	if r.Flags&cpu.RecPTMiss != 0 {
		b.WriteString(" [pt-miss]")
	}
	if r.Flags&cpu.RecRTMiss != 0 {
		b.WriteString(" [rt-miss]")
	}
	return b.String()
}
