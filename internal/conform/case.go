// Package conform implements the differential conformance corpus: declarative
// cases (a program plus optional productions, machine/engine configuration
// and expected outcomes) that the harness runs four ways — interpreted
// emulation, translated emulation, a live timed run, and a trace
// capture/replay — asserting that every observable agrees. Each case also
// audits the toolchain itself: the program's byte image must decode exactly
// under its loader-emitted per-byte labels, naive sweep disassembly must fail
// where the labels say it must, and natural programs must survive the
// asm → disasm → asm round trip. The corpus is the refactoring safety net:
// emu, cpu and trace can change aggressively as long as every case still
// agrees with itself.
package conform

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/acf/compress"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/server"
)

// ErrCase wraps every case-compilation failure (malformed JSON, bad program
// source, invalid spec fields) — user error in the case file, as opposed to
// a conformance Failure, which is a divergence the harness found in the
// implementation. The shrinker uses the distinction to never "reduce" a
// conformance failure into a merely unparseable case.
var ErrCase = errors.New("conform: case")

// defaultBudget bounds cases that do not set budget_insts: generated
// programs terminate well under it, and a case corrupted into an infinite
// loop traps deterministically instead of hanging the corpus run.
const defaultBudget = 2_000_000

// Compression baselines a case may request by name.
const (
	CompressNone      = ""
	CompressDedicated = "dedicated" // 2-byte codewords, dedicated decompressor
	CompressDise      = "dise"      // 4-byte parameterized DISE codewords
)

// Case is one declarative conformance case. Exactly one of Asm or ImageB64
// names the program; everything else is optional.
type Case struct {
	// Name identifies the case in reports and selects its shard.
	Name string `json:"name"`
	// Note is free-form documentation carried with the case.
	Note string `json:"note,omitempty"`
	// Seed records generator provenance (0 for hand-written cases).
	Seed int64 `json:"seed,omitempty"`

	// Asm is EVR assembly source for the program under test.
	Asm string `json:"asm,omitempty"`
	// ImageB64 is a base64 EVRX image, for cases minimized from images or
	// exercising container-level behavior directly.
	ImageB64 string `json:"image_b64,omitempty"`
	// Compress applies a compression baseline to the program before the run:
	// "dedicated" (2-byte codewords) or "dise" (parameterized 4-byte
	// codewords). The matching decompressor productions are installed
	// automatically alongside Prods.
	Compress string `json:"compress,omitempty"`

	// Prods is a DISE production file installed before every run.
	Prods string `json:"prods,omitempty"`
	// Regs presets dedicated registers ("$dr0".."$dr7") before every run —
	// the ACF setup the paper performs at module load.
	Regs map[string]uint64 `json:"regs,omitempty"`

	// Machine selects the timing-model configuration (defaults: the paper's
	// 4-wide machine). Engine sizes the DISE engine and its penalties.
	Machine *server.MachineSpec `json:"machine,omitempty"`
	Engine  *server.EngineSpec  `json:"engine,omitempty"`

	// BudgetInsts bounds every run of the case (default 2,000,000). Hitting
	// the budget is a legitimate expected outcome (trap "budget"), not a
	// harness error.
	BudgetInsts int64 `json:"budget_insts,omitempty"`

	// Expect, when set, pins expected outcomes on top of the always-checked
	// four-way equivalence. A nil Expect asserts self-consistency only.
	Expect *Expect `json:"expect,omitempty"`
}

// Expect pins expected outcomes of a case. Zero-valued fields are not
// checked: a 0 counter, an empty string or an absent map entry means "don't
// care", except Trap, where the literal "none" demands a clean halt.
type Expect struct {
	// Trap is the expected termination: "" (unchecked), "none" (must halt
	// cleanly), or an emu trap kind name such as "budget" or "out-of-segment".
	Trap string `json:"trap,omitempty"`
	// Output is the expected sys output, checked when non-empty.
	Output string `json:"output,omitempty"`
	// Insts / AppInsts pin the functional instruction counters (Stats.Total
	// and Stats.AppInsts); Cycles pins the timed run.
	Insts    int64 `json:"insts,omitempty"`
	AppInsts int64 `json:"app_insts,omitempty"`
	Cycles   int64 `json:"cycles,omitempty"`
	// TextWrites / Redecodes pin the self-modifying-code counters.
	TextWrites int64 `json:"text_writes,omitempty"`
	Redecodes  int64 `json:"redecodes,omitempty"`
	// Regs pins final register values, keyed by register name ("r1", "sp",
	// "$dr0", ...).
	Regs map[string]uint64 `json:"regs,omitempty"`
	// MemSum pins the final data-memory checksum, as %016x hex.
	MemSum string `json:"mem_sum,omitempty"`
}

// caseErr builds an ErrCase-wrapped error for case c.
func caseErr(c *Case, format string, v ...any) error {
	return fmt.Errorf("%w %q: %s", ErrCase, c.Name, fmt.Sprintf(format, v...))
}

// compiled is a case resolved against the toolchain: program built,
// compression applied, specs resolved, registers parsed.
type compiled struct {
	prog    *program.Program // the program every run executes
	natural *program.Program // pre-compression program (nil for image cases)
	prods   string           // user productions + decompressor productions
	ecfg    core.EngineConfig
	ccfg    cpu.Config
	regs    map[isa.Reg]uint64
	budget  int64
}

// compile resolves c. All validation lives here so Run and the shrinker
// share one notion of "well-formed case".
func (c *Case) compile() (*compiled, error) {
	cc := &compiled{budget: c.BudgetInsts}
	if cc.budget == 0 {
		cc.budget = defaultBudget
	}
	if cc.budget < 0 {
		return nil, caseErr(c, "negative budget_insts %d", cc.budget)
	}

	switch {
	case c.Asm != "" && c.ImageB64 != "":
		return nil, caseErr(c, "give exactly one of asm or image_b64")
	case c.Asm != "":
		p, err := asm.Assemble(c.Name, c.Asm)
		if err != nil {
			return nil, caseErr(c, "asm: %v", err)
		}
		cc.prog, cc.natural = p, p
	case c.ImageB64 != "":
		raw, err := base64.StdEncoding.DecodeString(c.ImageB64)
		if err != nil {
			return nil, caseErr(c, "image_b64: %v", err)
		}
		p, err := program.ReadImage(c.Name, bytes.NewReader(raw))
		if err != nil {
			return nil, caseErr(c, "image_b64: %v", err)
		}
		cc.prog = p
	default:
		return nil, caseErr(c, "give exactly one of asm or image_b64")
	}

	cc.prods = c.Prods
	switch c.Compress {
	case CompressNone:
	case CompressDedicated, CompressDise:
		cfg := compress.Dedicated()
		if c.Compress == CompressDise {
			cfg = compress.DiseFull()
		}
		res, err := compress.Compress(cc.prog, cfg)
		if err != nil {
			return nil, caseErr(c, "compress %s: %v", c.Compress, err)
		}
		// A program with no compressible sequences yields an empty
		// dictionary; the baseline is then a no-op and installs nothing.
		if len(res.Dict) > 0 {
			cc.prog = res.Prog
			// The decompressor productions ride with the compressed image;
			// a user production set composes ahead of them in one install.
			cc.prods = strings.TrimSpace(cc.prods + "\n" + res.ProductionText())
		}
	default:
		return nil, caseErr(c, "unknown compress %q (want %q or %q)",
			c.Compress, CompressDedicated, CompressDise)
	}

	mspec, espec := c.Machine, c.Engine
	if mspec == nil {
		mspec = &server.MachineSpec{}
	}
	if espec == nil {
		espec = &server.EngineSpec{}
	}
	var err error
	if cc.ccfg, err = mspec.Config(); err != nil {
		return nil, caseErr(c, "machine: %v", err)
	}
	if cc.ecfg, err = espec.Config(); err != nil {
		return nil, caseErr(c, "engine: %v", err)
	}
	if cc.prods != "" {
		if err := core.CheckFile(cc.prods, nil); err != nil {
			return nil, caseErr(c, "prods: %v", err)
		}
	}

	cc.regs = make(map[isa.Reg]uint64, len(c.Regs))
	for name, val := range c.Regs {
		r := isa.RegByName(name, true)
		if !r.IsDedicated() {
			return nil, caseErr(c, "regs: %q is not a dedicated register ($dr0..$dr%d)",
				name, isa.NumDiseRegs-1)
		}
		cc.regs[r] = val
	}
	return cc, nil
}

// machine builds a freshly prepared functional machine for the compiled
// case: budget set, dedicated registers initialized, productions installed.
func (cc *compiled) machine() *emu.Machine {
	m := emu.New(cc.prog)
	m.SetBudget(cc.budget)
	for r, v := range cc.regs {
		m.SetReg(r, v)
	}
	if cc.prods != "" {
		ctrl := core.NewController(cc.ecfg)
		if _, err := ctrl.InstallFile(cc.prods, nil); err != nil {
			// compile validated the same text with core.CheckFile.
			panic(fmt.Sprintf("conform: production set failed revalidation: %v", err))
		}
		m.SetExpander(ctrl.Engine())
	}
	return m
}

// Load reads one case file. Unknown fields are rejected: a typoed
// expectation that silently checks nothing would make the corpus lie.
func Load(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCase, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	c := &Case{}
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("%w %s: %v", ErrCase, path, err)
	}
	if c.Name == "" {
		c.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return c, nil
}

// Save writes c as an indented case file, the format Load reads and the
// shrinker emits as a ready-to-commit repro.
func (c *Case) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadDir reads every *.json case in dir, sorted by filename.
func LoadDir(dir string) ([]*Case, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	cases := make([]*Case, 0, len(paths))
	for _, p := range paths {
		c, err := Load(p)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// Shard returns the slice of cases a worker owns under an i-of-n split. The
// assignment hashes case names, so it is stable under corpus growth and
// independent of file order; every case lands in exactly one shard.
func Shard(cases []*Case, idx, n int) []*Case {
	if n <= 1 {
		return cases
	}
	var out []*Case
	for _, c := range cases {
		h := fnv.New32a()
		h.Write([]byte(c.Name))
		if int(h.Sum32())%n == idx {
			out = append(out, c)
		}
	}
	return out
}

// ParseShard parses an "i/n" shard designator (0-based index).
func ParseShard(s string) (idx, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &idx, &n); err != nil {
		return 0, 0, fmt.Errorf("bad shard %q (want i/n): %v", s, err)
	}
	if n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("bad shard %q: index out of range", s)
	}
	return idx, n, nil
}
