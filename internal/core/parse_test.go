package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

const mfiSrc = `
# memory fault isolation, segment matching (paper Figure 1)
prod mfi_store {
    match class == store
    replace {
        srli %rs, 26, $dr1
        xor  $dr1, $dr2, $dr1
        dbeq $dr1, @ok
        sys  3
    @ok:
        %insn
    }
}

prod mfi_load {
    match class == load
    replace {
        srli %rs, 26, $dr1
        xor  $dr1, $dr2, $dr1
        dbeq $dr1, @ok
        sys  3
    @ok:
        %insn
    }
}
`

func TestParseMFI(t *testing.T) {
	prods, err := ParseProductions(mfiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 2 {
		t.Fatalf("parsed %d productions", len(prods))
	}
	ps := prods[0]
	if ps.Name != "mfi_store" || ps.Pattern.Class != isa.ClassStore || ps.Aware {
		t.Errorf("store production wrong: %+v", ps)
	}
	r := ps.Repl
	if r.Len() != 5 {
		t.Fatalf("replacement length = %d", r.Len())
	}
	if r.Insts[0].Op != isa.OpSRLI || r.Insts[0].RS.Dir != RegTRS || r.Insts[0].RD.Lit != isa.RegDR0+1 {
		t.Errorf("inst 0 = %+v", r.Insts[0])
	}
	if !r.Insts[2].DiseBranch {
		t.Error("dbeq should be a DISE branch")
	}
	if r.Insts[2].Imm.Lit != 4 {
		t.Errorf("@ok resolves to %d, want 4", r.Insts[2].Imm.Lit)
	}
	if !r.Insts[4].Trigger {
		t.Error("%insn should be the trigger template")
	}
	// Behaves identically to the handwritten sequence.
	store := isa.Inst{Op: isa.OpSTQ, RT: 7, RS: 9, RD: isa.NoReg, Imm: 16}
	got := r.Instantiate(store, 0)
	want := mfiRepl().Instantiate(store, 0)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("inst %d: parsed %v != handwritten %v", i, got[i], want[i])
		}
	}
}

func TestParseAware(t *testing.T) {
	prods, err := ParseProductions(`
aware decomp {
    match op == res0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 1 || !prods[0].Aware || prods[0].Pattern.Op != isa.OpRES0 {
		t.Errorf("parsed %+v", prods)
	}
}

func TestParseMatchConditions(t *testing.T) {
	prods := MustParseProductions(`
prod p {
    match class == condbr && imm < 0
    replace {
        %insn
    }
}
`)
	p := prods[0].Pattern
	if p.Class != isa.ClassCondBr || p.ImmSign != -1 {
		t.Errorf("pattern = %+v", p)
	}
}

func TestParseRegisterAndImmConditions(t *testing.T) {
	prods := MustParseProductions(`
prod p {
    match op == ldq && rs == sp && imm == 8
    replace {
        %insn
    }
}
`)
	p := prods[0].Pattern
	if p.Op != isa.OpLDQ || p.RS != isa.RegSP || !p.MatchImm || p.Imm != 8 {
		t.Errorf("pattern = %+v", p)
	}
}

func TestParseOpFromTriggerMem(t *testing.T) {
	// Sandboxing: re-emit the trigger's opcode with $dr1 as base.
	prods := MustParseProductions(`
prod sandbox {
    match class == store
    replace {
        andi %rs, 1023, $dr1
        %op %rt, %imm($dr1)
    }
}
`)
	ri := prods[0].Repl.Insts[1]
	if !ri.OpFromTrigger || ri.RS.Lit != isa.RegDR0+1 || ri.RT.Dir != RegTRT || ri.Imm.Dir != ImmTImm {
		t.Errorf("template = %+v", ri)
	}
	store := isa.Inst{Op: isa.OpSTQ, RT: 3, RS: 9, RD: isa.NoReg, Imm: 24}
	got := ri.Instantiate(store, 0)
	if got.Op != isa.OpSTQ || got.RS != isa.RegDR0+1 || got.RT != 3 || got.Imm != 24 {
		t.Errorf("instantiated = %v", got)
	}
}

func TestParseWideParams(t *testing.T) {
	prods := MustParseProductions(`
prod cw {
    match op == res1
    replace {
        lda %p1, %p23($dr0)
        br zero, %p123
    }
}
`)
	insts := prods[0].Repl.Insts
	if insts[0].RD.Dir != RegTRS || insts[0].Imm.Dir != ImmP23 {
		t.Errorf("inst 0 = %+v", insts[0])
	}
	if insts[1].Imm.Dir != ImmP123 {
		t.Errorf("inst 1 = %+v", insts[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, frag string
	}{
		{"prod p {\n replace {\n %insn\n }\n}", "no match clause"},
		{"prod p {\n match class == store\n}", "no replace block"},
		{"aware a {\n match op == res0\n replace {\n %insn\n }\n}", "cannot carry"},
		{"prod p {\n match class == bogus\n replace {\n %insn\n }\n}", "unknown class"},
		{"prod p {\n match op == bogus\n replace {\n %insn\n }\n}", "unknown opcode"},
		{"prod p {\n match class == store\n replace {\n bogus r1, r2, r3\n }\n}", "unknown mnemonic"},
		{"prod p {\n match class == store\n replace {\n dbeq $dr1, @nowhere\n }\n}", "undefined label"},
		{"prod p {\n match class == store\n replace {\n beq $dr1, @somewhere\n @somewhere:\n %insn\n }\n}", "only valid on DISE branches"},
		{"prod p {", "unterminated"},
		{"bogus line", "expected"},
	}
	for _, c := range cases {
		_, err := ParseProductions(c.src)
		if err == nil {
			t.Errorf("ParseProductions(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q does not contain %q", err, c.frag)
		}
	}
}

func TestInstallFile(t *testing.T) {
	c := NewController(perfectCfg())
	prods, err := c.InstallFile(mfiSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 2 {
		t.Fatalf("installed %d", len(prods))
	}
	if exp := c.Engine().Expand(aStore, 0); exp == nil || len(exp.Insts) != 5 {
		t.Error("installed MFI should expand stores")
	}
	if exp := c.Engine().Expand(aLoad, 0); exp == nil || len(exp.Insts) != 5 {
		t.Error("installed MFI should expand loads")
	}
}

func TestInstallFileAwareNeedsDict(t *testing.T) {
	c := NewController(perfectCfg())
	src := "aware d {\n match op == res0\n}"
	if _, err := c.InstallFile(src, nil); err == nil {
		t.Error("aware install without dictionary should fail")
	}
	dict := []*Replacement{{Name: "e", Insts: []ReplInst{FromLiteral(isa.Nop())}}}
	if _, err := c.InstallFile(src, map[string][]*Replacement{"d": dict}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Rendering a parsed replacement and re-parsing it yields the same
	// templates (controller external-representation fidelity).
	prods := MustParseProductions(mfiSrc)
	r := prods[0].Repl
	var lines []string
	for i := range r.Insts {
		s := r.Insts[i].String()
		if r.Insts[i].DiseBranch {
			// Targets render as absolute DISEPCs; keep them numeric.
			_ = s
		}
		lines = append(lines, "        "+s)
	}
	src := "prod rt {\n    match class == store\n    replace {\n" + strings.Join(lines, "\n") + "\n    }\n}"
	again, err := ParseProductions(src)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, src)
	}
	store := isa.Inst{Op: isa.OpSTQ, RT: 7, RS: 9, RD: isa.NoReg, Imm: 16}
	a := r.Instantiate(store, 0)
	b := again[0].Repl.Instantiate(store, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("inst %d: %v != %v", i, a[i], b[i])
		}
	}
}

// checkAgreesWithInstall asserts that CheckFile(src, dicts) returns exactly
// the error InstallFile(src, dicts) returns on a fresh controller.
func checkAgreesWithInstall(t *testing.T, src string, dicts map[string][]*Replacement) {
	t.Helper()
	_, want := NewController(DefaultEngineConfig()).InstallFile(src, dicts)
	got := CheckFile(src, dicts)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("CheckFile(%q) = %v, InstallFile = %v", src, got, want)
	}
}

func TestCheckFileMatchesInstall(t *testing.T) {
	nop := func(name string) *Replacement {
		return &Replacement{Name: name, Insts: []ReplInst{FromLiteral(isa.Nop())}}
	}
	big := make([]*Replacement, isa.MaxTag+2)
	for i := range big {
		big[i] = nop("x")
	}
	farBranch := &Replacement{Name: "far", Insts: []ReplInst{
		{Op: isa.OpBEQ, RS: Lit(isa.RegDR0), RT: Lit(isa.NoReg), RD: Lit(isa.NoReg),
			Imm: ImmField{Dir: ImmLit, Lit: 99}, DiseBranch: true},
	}}
	const aware = "aware d {\n match op == res0\n}"
	cases := []struct {
		name  string
		src   string
		dicts map[string][]*Replacement
		fails bool
	}{
		{"aware with dict", aware, map[string][]*Replacement{"d": {nop("e")}}, false},
		{"inline dict", "aware d {\n match op == res0\n dict {\n entry {\n addqi r1, 1, r1\n }\n }\n}", nil, false},
		{"empty dictionary", aware, map[string][]*Replacement{"d": {}}, true},
		{"nil dictionary", aware, map[string][]*Replacement{"d": nil}, true},
		{"over MaxTag dictionary", aware, map[string][]*Replacement{"d": big}, true},
		{"nil entry", aware, map[string][]*Replacement{"d": {nop("e0"), nil}}, true},
		{"empty entry", aware, map[string][]*Replacement{"d": {nop("e0"), {Name: "e1"}}}, true},
		{"no dictionary", aware, nil, true},
		{"dictionary under another name", aware, map[string][]*Replacement{"x": {nop("e")}}, true},
		{"DISE branch out of range in dict", aware, map[string][]*Replacement{"d": {nop("e0"), farBranch}}, true},
		{"DISE branch out of range in text", "prod p {\n match class == store\n replace {\n dbeq $dr1, 9\n %insn\n }\n}", nil, true},
		{"second production fails", mfiSrc + "\n" + aware, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := CheckFile(c.src, c.dicts); (err != nil) != c.fails {
				t.Fatalf("CheckFile error = %v, want failure %v", err, c.fails)
			}
			checkAgreesWithInstall(t, c.src, c.dicts)
		})
	}
	for i, src := range parseSeeds {
		t.Run(fmt.Sprintf("seed %d", i), func(t *testing.T) { checkAgreesWithInstall(t, src, nil) })
	}
}
