package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeTableComplete(t *testing.T) {
	for _, op := range Opcodes() {
		if op.String() == "" || op.String() == "invalid" {
			t.Errorf("opcode %d has no name", op)
		}
		if op.Class() == ClassInvalid {
			t.Errorf("opcode %v has no class", op)
		}
		if op.Format() == FmtInvalid {
			t.Errorf("opcode %v has no format", op)
		}
	}
}

func TestOpcodeByNameRoundTrip(t *testing.T) {
	for _, op := range Opcodes() {
		if got := OpcodeByName(op.String()); got != op {
			t.Errorf("OpcodeByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if got := OpcodeByName("nosuch"); got != OpInvalid {
		t.Errorf("OpcodeByName(nosuch) = %v, want OpInvalid", got)
	}
}

func TestClassByName(t *testing.T) {
	cases := map[string]Class{
		"load": ClassLoad, "store": ClassStore, "condbr": ClassCondBr,
		"jump": ClassJump, "codeword": ClassCodeword, "bogus": ClassInvalid,
	}
	for name, want := range cases {
		if got := ClassByName(name); got != want {
			t.Errorf("ClassByName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRegNames(t *testing.T) {
	cases := []struct {
		name string
		dise bool
		want Reg
	}{
		{"r0", false, 0},
		{"r31", false, RegZero},
		{"sp", false, RegSP},
		{"ra", false, RegRA},
		{"$dr0", true, RegDR0},
		{"$dr7", true, RegDR0 + 7},
		{"$dr0", false, NoReg}, // dedicated regs invisible to app asm
		{"$dr8", true, NoReg},  // out of range
		{"r32", false, NoReg},  // out of range
		{"bogus", false, NoReg},
		// The number must be the whole rest of the name, in ASCII digits.
		{"r1x", false, NoReg},
		{"r+1", false, NoReg},
		{"r 1", false, NoReg},
		{"r-0", false, NoReg},
		{"r", false, NoReg},
		{"r99999999999999999999", false, NoReg},
		{"$dr1junk", true, NoReg},
		{"$dr+0", true, NoReg},
		{"$dr0x", true, NoReg},
		{"$dr 0", true, NoReg},
		{"$dr", true, NoReg},
	}
	for _, c := range cases {
		if got := RegByName(c.name, c.dise); got != c.want {
			t.Errorf("RegByName(%q, %v) = %v, want %v", c.name, c.dise, got, c.want)
		}
	}
}

func TestRegStringRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		if got := RegByName(r.String(), true); got != r {
			t.Errorf("RegByName(%q) = %v, want %v", r.String(), got, r)
		}
	}
}

func TestDedicatedRegisterPredicates(t *testing.T) {
	if RegDR0.IsArch() || !RegDR0.IsDedicated() {
		t.Error("RegDR0 should be dedicated, not architectural")
	}
	if !RegSP.IsArch() || RegSP.IsDedicated() {
		t.Error("RegSP should be architectural")
	}
	if NoReg.Valid() {
		t.Error("NoReg should not be valid")
	}
}

func TestEncodeDecodeExamples(t *testing.T) {
	cases := []Inst{
		{Op: OpLDQ, RD: 1, RS: 2, RT: NoReg, Imm: 8},
		{Op: OpSTQ, RT: 3, RS: RegSP, RD: NoReg, Imm: -16},
		{Op: OpLDA, RD: 4, RS: 4, RT: NoReg, Imm: 100},
		{Op: OpBEQ, RS: 5, RT: NoReg, RD: NoReg, Imm: -3},
		{Op: OpBR, RD: RegZero, RS: NoReg, RT: NoReg, Imm: 1000},
		{Op: OpBSR, RD: RegRA, RS: NoReg, RT: NoReg, Imm: -200},
		{Op: OpJSR, RD: RegRA, RS: 9, RT: NoReg, Imm: 0},
		{Op: OpRET, RD: RegZero, RS: RegRA, RT: NoReg, Imm: 0},
		{Op: OpADDQ, RS: 1, RT: 2, RD: 3},
		{Op: OpSRLI, RS: 7, RD: 8, RT: NoReg, Imm: 26},
		{Op: OpHALT, RS: NoReg, RT: NoReg, RD: NoReg, Imm: 0},
		{Op: OpSYS, RS: NoReg, RT: NoReg, RD: NoReg, Imm: SysPutInt},
		Codeword(OpRES0, 1, 2, 3, 2047),
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", in, err)
		}
		if out != in {
			t.Errorf("round trip %v -> %#08x -> %v", in, w, out)
		}
	}
}

func TestEncodeRejectsDedicated(t *testing.T) {
	i := Inst{Op: OpADDQ, RS: RegDR0, RT: 2, RD: 3}
	if _, err := Encode(i); err == nil {
		t.Error("Encode should reject dedicated registers")
	}
}

func TestEncodeRejectsOutOfRangeImm(t *testing.T) {
	cases := []Inst{
		{Op: OpLDQ, RD: 1, RS: 2, RT: NoReg, Imm: 1 << 20},
		{Op: OpBEQ, RS: 1, RT: NoReg, RD: NoReg, Imm: 1 << 30},
		{Op: OpADDQI, RS: 1, RD: 2, RT: NoReg, Imm: -(1 << 20)},
		Codeword(OpRES0, 0, 0, 0, 0).withImm(4096),
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) should fail", in)
		}
	}
}

func (i Inst) withImm(v int64) Inst { i.Imm = v; return i }

// randomEncodable generates a random encodable instruction, for the
// property-based round-trip test.
func randomEncodable(r *rand.Rand) Inst {
	ops := Opcodes()
	op := ops[r.Intn(len(ops))]
	i := Inst{Op: op, RS: NoReg, RT: NoReg, RD: NoReg}
	ar := func() Reg { return Reg(r.Intn(NumArchRegs)) }
	switch op.Format() {
	case FmtMem:
		i.RS = ar()
		i.Imm = int64(int16(r.Uint32()))
		if op.Class() == ClassStore {
			i.RT = ar()
		} else {
			i.RD = ar()
		}
	case FmtBranch:
		i.Imm = int64(sext(r.Uint32()&0x1fffff, 21))
		if op == OpBR || op == OpBSR {
			i.RD = ar()
		} else {
			i.RS = ar()
		}
	case FmtJump:
		i.RD, i.RS = ar(), ar()
		i.Imm = int64(uint16(r.Uint32()))
	case FmtJumpCond:
		i.RT, i.RS = ar(), ar()
	case FmtOpReg:
		i.RS, i.RT, i.RD = ar(), ar(), ar()
	case FmtOpImm:
		i.RS, i.RD = ar(), ar()
		i.Imm = int64(int16(r.Uint32()))
	case FmtSpecial:
		i.Imm = int64(r.Uint32() & 0x3ffffff)
	case FmtCodeword:
		i.RS, i.RT, i.RD = ar(), ar(), ar()
		i.Imm = int64(r.Uint32() & 0x7ff)
	}
	return i
}

func TestEncodeDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randomEncodable(r)
		w, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		out, err := Decode(w)
		if err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	if _, err := Decode(uint32(63) << 26); err == nil {
		t.Error("Decode should reject invalid opcode field")
	}
}

func TestDestAndSources(t *testing.T) {
	cases := []struct {
		in   Inst
		dest Reg
		nsrc int
	}{
		{Inst{Op: OpLDQ, RD: 1, RS: 2, RT: NoReg, Imm: 0}, 1, 1},
		{Inst{Op: OpSTQ, RT: 3, RS: 2, RD: NoReg, Imm: 0}, NoReg, 2},
		{Inst{Op: OpADDQ, RS: 1, RT: 2, RD: 3}, 3, 2},
		{Inst{Op: OpADDQI, RS: 1, RD: 3, RT: NoReg, Imm: 5}, 3, 1},
		{Inst{Op: OpBEQ, RS: 4, RT: NoReg, RD: NoReg, Imm: 2}, NoReg, 1},
		{Inst{Op: OpBSR, RD: RegRA, RS: NoReg, RT: NoReg, Imm: 2}, RegRA, 0},
		{Inst{Op: OpRET, RD: RegZero, RS: RegRA, RT: NoReg}, RegZero, 1},
		// reads of the zero register are not dependencies
		{Inst{Op: OpADDQ, RS: RegZero, RT: RegZero, RD: 3}, 3, 0},
	}
	for _, c := range cases {
		if got := c.in.Dest(); got != c.dest {
			t.Errorf("%v.Dest() = %v, want %v", c.in, got, c.dest)
		}
		if got := len(c.in.Sources()); got != c.nsrc {
			t.Errorf("%v.Sources() has %d regs, want %d", c.in, got, c.nsrc)
		}
	}
}

func TestNop(t *testing.T) {
	if !Nop().IsNop() {
		t.Error("Nop() should be a nop")
	}
	if (Inst{Op: OpADDQ, RS: 1, RT: 2, RD: 3}).IsNop() {
		t.Error("addq r1,r2,r3 is not a nop")
	}
	if !(Inst{Op: OpBIS, RS: 5, RT: 6, RD: RegZero}).IsNop() {
		t.Error("bis with zero dest is a nop")
	}
}

func TestBranchTarget(t *testing.T) {
	i := Inst{Op: OpBEQ, RS: 1, RT: NoReg, RD: NoReg, Imm: 3}
	if got := i.BranchTarget(0x1000); got != 0x1000+4+12 {
		t.Errorf("BranchTarget = %#x", got)
	}
	i.Imm = -1
	if got := i.BranchTarget(0x1000); got != 0x1000 {
		t.Errorf("BranchTarget backward = %#x", got)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpLDQ, RD: 1, RS: 2, RT: NoReg, Imm: 8}, "ldq r1, 8(r2)"},
		{Inst{Op: OpSTQ, RT: 1, RS: RegSP, RD: NoReg, Imm: -8}, "stq r1, -8(sp)"},
		{Inst{Op: OpADDQ, RS: 1, RT: 2, RD: 3}, "addq r1, r2, r3"},
		{Inst{Op: OpHALT}, "halt"},
		{Inst{Op: OpADDQ, RS: RegDR0, RT: RegDR0 + 1, RD: RegDR0 + 2}, "addq $dr0, $dr1, $dr2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCodewordFields(t *testing.T) {
	cw := Codeword(OpRES1, 31, 17, 5, 1234)
	if cw.RS != 31 || cw.RT != 17 || cw.RD != 5 || cw.Imm != 1234 {
		t.Errorf("Codeword fields wrong: %+v", cw)
	}
	if cw.Op.Class() != ClassCodeword {
		t.Error("codeword should be ClassCodeword")
	}
	// Parameters are masked to 5 bits, tag to 11.
	cw = Codeword(OpRES0, 0xFF, 0, 0, 0xFFFF)
	if cw.RS != 31 || cw.Imm != 0x7ff {
		t.Errorf("Codeword masking wrong: %+v", cw)
	}
}
