package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// ErrParse wraps every error returned by ParseProductions (and InstallFile's
// parse phase): malformed production text is user error, classifiable with
// errors.Is(err, ErrParse), never a panic.
var ErrParse = errors.New("dise: parse")

// The production language is the external representation of DISE
// productions: a directive-annotated version of the native assembly
// (paper §2.3, "Controller"). Example — segment-matching memory fault
// isolation (paper Figure 1):
//
//	prod mfi_store {
//	    match class == store
//	    replace {
//	        srli %rs, 26, $dr1
//	        xor  $dr1, $dr2, $dr1
//	        dbeq $dr1, @ok
//	        sys  3
//	    @ok:
//	        %insn
//	    }
//	}
//
// Trigger-field directives: %rs %rt %rd (register fields; %p1 %p2 %p3 are
// codeword-flavored aliases), %op (opcode), %imm (immediate), %pc (trigger
// PC), %p23/%p123 (wide immediates assembled from codeword parameter
// slots), %insn (the trigger itself). A branch mnemonic prefixed with "d"
// (dbeq, dbr, ...) is the DISE variant that moves the DISEPC instead of the
// PC; its target is a sequence-local @label or absolute DISEPC.
//
// An "aware" block declares a tag-indexed production. Its dictionary may be
// attached programmatically, or written inline — entry k of the dict block
// is reachable by codewords carrying tag k:
//
//	aware decomp {
//	    match op == res0
//	    dict {
//	        entry {
//	            lda %p1, %p2(%p1)
//	            ldq r4, 0(%p1)
//	        }
//	        entry {
//	            cmplt r4, r0, r5
//	        }
//	    }
//	}

// ParsedProduction is one production parsed from the language.
type ParsedProduction struct {
	Name    string
	Pattern Pattern
	Repl    *Replacement   // transparent productions
	Dict    []*Replacement // aware productions with an inline dict block
	Aware   bool
}

// ParseProductions parses a production file.
func ParseProductions(src string) ([]*ParsedProduction, error) {
	p := &prodParser{lines: strings.Split(src, "\n")}
	return p.parse()
}

// MustParseProductions is ParseProductions for known-good text; it panics on
// error. The panic marks a programmer error (a production literal in source
// that fails to parse), never a data-dependent condition: code handling
// external production text must call ParseProductions.
func MustParseProductions(src string) []*ParsedProduction {
	out, err := ParseProductions(src)
	if err != nil {
		panic(err)
	}
	return out
}

// InstallFile parses src and installs every production it defines into c.
// Aware productions get their dictionaries from dicts, keyed by name.
func (c *Controller) InstallFile(src string, dicts map[string][]*Replacement) ([]*Production, error) {
	parsed, err := ParseProductions(src)
	if err != nil {
		return nil, err
	}
	var out []*Production
	for _, pp := range parsed {
		var prod *Production
		if pp.Aware {
			var dict []*Replacement
			if dict, err = pp.dictionary(dicts); err != nil {
				return nil, err
			}
			prod, err = c.InstallAware(pp.Name, pp.Pattern, dict)
		} else {
			prod, err = c.InstallTransparent(pp.Name, pp.Pattern, pp.Repl)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, prod)
	}
	return out, nil
}

// CheckFile returns exactly the error InstallFile(src, dicts) returns on a
// freshly created controller, or nil if every production would install. It
// runs the install checks alone and builds no Controller or Engine, so a
// caller that only validates production text pays for the parse, not for
// the PT/RT complex.
func CheckFile(src string, dicts map[string][]*Replacement) error {
	parsed, err := ParseProductions(src)
	if err != nil {
		return err
	}
	for _, pp := range parsed {
		if !pp.Aware {
			err = checkTransparent(pp.Name, pp.Repl)
		} else {
			var dict []*Replacement
			if dict, err = pp.dictionary(dicts); err == nil {
				err = checkAware(pp.Name, dict)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dictionary returns an aware production's inline dictionary, or else its
// entry in dicts.
func (pp *ParsedProduction) dictionary(dicts map[string][]*Replacement) ([]*Replacement, error) {
	if pp.Dict != nil {
		return pp.Dict, nil
	}
	dict, ok := dicts[pp.Name]
	if !ok {
		return nil, fmt.Errorf("dise: aware production %q has no dictionary", pp.Name)
	}
	return dict, nil
}

type prodParser struct {
	lines []string
	pos   int
}

func (p *prodParser) errf(format string, v ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, p.pos, fmt.Sprintf(format, v...))
}

func (p *prodParser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		p.pos++
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (p *prodParser) parse() ([]*ParsedProduction, error) {
	var out []*ParsedProduction
	for {
		line, ok := p.next()
		if !ok {
			return out, nil
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || (fields[0] != "prod" && fields[0] != "aware") || fields[2] != "{" {
			return nil, p.errf("expected 'prod <name> {' or 'aware <name> {', got %q", line)
		}
		pp, err := p.parseBody(fields[1], fields[0] == "aware")
		if err != nil {
			return nil, err
		}
		out = append(out, pp)
	}
}

func (p *prodParser) parseBody(name string, aware bool) (*ParsedProduction, error) {
	pp := &ParsedProduction{Name: name, Aware: aware,
		Pattern: Pattern{RS: isa.NoReg, RT: isa.NoReg, RD: isa.NoReg}}
	sawMatch := false
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unterminated production %q", name)
		}
		switch {
		case line == "}":
			if !sawMatch {
				return nil, p.errf("production %q has no match clause", name)
			}
			if !aware && pp.Repl == nil {
				return nil, p.errf("production %q has no replace block", name)
			}
			if aware && pp.Repl != nil {
				return nil, p.errf("aware production %q cannot carry a replace block", name)
			}
			if !aware && pp.Dict != nil {
				return nil, p.errf("transparent production %q cannot carry a dict block", name)
			}
			return pp, nil
		case strings.HasPrefix(line, "match"):
			if err := parseMatch(&pp.Pattern, strings.TrimSpace(strings.TrimPrefix(line, "match"))); err != nil {
				return nil, p.errf("%v", err)
			}
			sawMatch = true
		case strings.HasPrefix(line, "replace"):
			if !strings.HasSuffix(strings.TrimSpace(line), "{") {
				return nil, p.errf("expected 'replace {'")
			}
			repl, err := p.parseReplace(name)
			if err != nil {
				return nil, err
			}
			if len(repl.Insts) == 0 {
				return nil, p.errf("production %q has an empty replace block", name)
			}
			pp.Repl = repl
		case strings.HasPrefix(line, "dict"):
			if !strings.HasSuffix(strings.TrimSpace(line), "{") {
				return nil, p.errf("expected 'dict {'")
			}
			dict, err := p.parseDict(name)
			if err != nil {
				return nil, err
			}
			pp.Dict = dict
		default:
			return nil, p.errf("unexpected %q in production %q", line, name)
		}
	}
}

func parseMatch(pat *Pattern, expr string) error {
	for _, cond := range strings.Split(expr, "&&") {
		cond = strings.TrimSpace(cond)
		var lhs, op, rhs string
		switch {
		case strings.Contains(cond, "=="):
			parts := strings.SplitN(cond, "==", 2)
			lhs, op, rhs = strings.TrimSpace(parts[0]), "==", strings.TrimSpace(parts[1])
		case strings.Contains(cond, ">="):
			parts := strings.SplitN(cond, ">=", 2)
			lhs, op, rhs = strings.TrimSpace(parts[0]), ">=", strings.TrimSpace(parts[1])
		case strings.Contains(cond, "<"):
			parts := strings.SplitN(cond, "<", 2)
			lhs, op, rhs = strings.TrimSpace(parts[0]), "<", strings.TrimSpace(parts[1])
		default:
			return fmt.Errorf("bad condition %q", cond)
		}
		switch lhs {
		case "op":
			if op != "==" {
				return fmt.Errorf("op supports only ==")
			}
			o := isa.OpcodeByName(rhs)
			if o == isa.OpInvalid {
				return fmt.Errorf("unknown opcode %q", rhs)
			}
			pat.Op = o
		case "class":
			if op != "==" {
				return fmt.Errorf("class supports only ==")
			}
			c := isa.ClassByName(rhs)
			if c == isa.ClassInvalid {
				return fmt.Errorf("unknown class %q", rhs)
			}
			pat.Class = c
		case "rs", "rt", "rd":
			if op != "==" {
				return fmt.Errorf("%s supports only ==", lhs)
			}
			r := isa.RegByName(rhs, false)
			if r == isa.NoReg {
				return fmt.Errorf("unknown register %q", rhs)
			}
			switch lhs {
			case "rs":
				pat.RS = r
			case "rt":
				pat.RT = r
			case "rd":
				pat.RD = r
			}
		case "imm":
			switch op {
			case "==":
				v, err := strconv.ParseInt(rhs, 0, 64)
				if err != nil {
					return fmt.Errorf("bad immediate %q", rhs)
				}
				pat.MatchImm, pat.Imm = true, v
			case "<":
				if rhs != "0" {
					return fmt.Errorf("imm < supports only 0")
				}
				pat.ImmSign = -1
			case ">=":
				if rhs != "0" {
					return fmt.Errorf("imm >= supports only 0")
				}
				pat.ImmSign = 1
			}
		default:
			return fmt.Errorf("unknown field %q", lhs)
		}
	}
	return nil
}

// parseDict parses a dict block: a sequence of entry blocks.
func (p *prodParser) parseDict(name string) ([]*Replacement, error) {
	var dict []*Replacement
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unterminated dict block in %q", name)
		}
		if line == "}" {
			if len(dict) == 0 {
				return nil, p.errf("empty dict block in %q", name)
			}
			return dict, nil
		}
		if !strings.HasPrefix(line, "entry") || !strings.HasSuffix(strings.TrimSpace(line), "{") {
			return nil, p.errf("expected 'entry {' in dict block of %q, got %q", name, line)
		}
		e, err := p.parseReplace(fmt.Sprintf("%s[%d]", name, len(dict)))
		if err != nil {
			return nil, err
		}
		if len(e.Insts) == 0 {
			return nil, p.errf("empty dict entry in %q", name)
		}
		dict = append(dict, e)
	}
}

func (p *prodParser) parseReplace(name string) (*Replacement, error) {
	type pending struct {
		inst  ReplInst
		label string // unresolved DISE-branch label
		line  int
	}
	var insts []pending
	labels := map[string]int{}
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unterminated replace block in %q", name)
		}
		if line == "}" {
			break
		}
		if strings.HasPrefix(line, "@") && strings.HasSuffix(line, ":") {
			label := strings.TrimSuffix(strings.TrimPrefix(line, "@"), ":")
			if _, dup := labels[label]; dup {
				return nil, p.errf("duplicate label @%s", label)
			}
			labels[label] = len(insts)
			continue
		}
		ri, label, err := parseReplInst(line)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		insts = append(insts, pending{inst: ri, label: label, line: p.pos})
	}
	repl := &Replacement{Name: name}
	for _, pd := range insts {
		ri := pd.inst
		if pd.label != "" {
			t, ok := labels[pd.label]
			if !ok {
				return nil, fmt.Errorf("%w: line %d: undefined label @%s", ErrParse, pd.line, pd.label)
			}
			ri.Imm = ImmField{Dir: ImmLit, Lit: int64(t)}
		}
		repl.Insts = append(repl.Insts, ri)
	}
	if err := repl.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	return repl, nil
}

func parseRegField(tok string) (RegField, error) {
	switch tok {
	case "%rs", "%p1":
		return TReg(RegTRS), nil
	case "%rt", "%p2":
		return TReg(RegTRT), nil
	case "%rd", "%p3":
		return TReg(RegTRD), nil
	}
	if r := isa.RegByName(tok, true); r != isa.NoReg {
		return Lit(r), nil
	}
	return RegField{}, fmt.Errorf("bad register field %q", tok)
}

func parseImmField(tok string) (ImmField, error) {
	switch tok {
	case "%imm":
		return ImmField{Dir: ImmTImm}, nil
	case "%pc":
		return ImmField{Dir: ImmTPC}, nil
	case "%p1":
		return ImmField{Dir: ImmP1}, nil
	case "%p2":
		return ImmField{Dir: ImmP2}, nil
	case "%p3":
		return ImmField{Dir: ImmP3}, nil
	case "%p23":
		return ImmField{Dir: ImmP23}, nil
	case "%p123":
		return ImmField{Dir: ImmP123}, nil
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return ImmField{}, fmt.Errorf("bad immediate field %q", tok)
	}
	return ImmField{Dir: ImmLit, Lit: v}, nil
}

// parseReplInst parses one replacement instruction template. It returns an
// unresolved label name if the instruction is a DISE branch targeting one.
func parseReplInst(line string) (ReplInst, string, error) {
	fields := splitReplOperands(line)
	mnem, args := fields[0], fields[1:]
	if mnem == "%insn" {
		return TriggerInst(), "", nil
	}
	var ri ReplInst
	dise := false
	if strings.HasPrefix(mnem, "d") {
		if op := isa.OpcodeByName(mnem[1:]); op != isa.OpInvalid && op.IsBranch() {
			dise = true
			mnem = mnem[1:]
		}
	}
	opTok := mnem
	if opTok == "%op" {
		ri.OpFromTrigger = true
	} else {
		op := isa.OpcodeByName(opTok)
		if op == isa.OpInvalid {
			return ri, "", fmt.Errorf("unknown mnemonic %q", opTok)
		}
		ri.Op = op
	}
	ri.DiseBranch = dise
	ri.RS, ri.RT, ri.RD = Lit(isa.NoReg), Lit(isa.NoReg), Lit(isa.NoReg)

	format := isa.FmtOpReg
	if !ri.OpFromTrigger {
		format = ri.Op.Format()
	} else if len(args) == 2 && strings.Contains(args[1], "(") {
		format = isa.FmtMem
	}

	var label string
	switch format {
	case isa.FmtMem:
		if len(args) != 2 {
			return ri, "", fmt.Errorf("%s: want 2 operands", line)
		}
		ra, err := parseRegField(args[0])
		if err != nil {
			return ri, "", err
		}
		open := strings.Index(args[1], "(")
		if open < 0 || !strings.HasSuffix(args[1], ")") {
			return ri, "", fmt.Errorf("%s: bad memory operand", line)
		}
		immTok := strings.TrimSpace(args[1][:open])
		if immTok == "" {
			immTok = "0"
		}
		imm, err := parseImmField(immTok)
		if err != nil {
			return ri, "", err
		}
		base, err := parseRegField(strings.TrimSpace(args[1][open+1 : len(args[1])-1]))
		if err != nil {
			return ri, "", err
		}
		ri.RS, ri.Imm = base, imm
		if ri.OpFromTrigger || ri.Op.Class() == isa.ClassStore {
			ri.RT = ra
		}
		if ri.OpFromTrigger || ri.Op.Class() != isa.ClassStore {
			ri.RD = ra
		}
	case isa.FmtBranch:
		if len(args) != 2 {
			return ri, "", fmt.Errorf("%s: want 2 operands", line)
		}
		ra, err := parseRegField(args[0])
		if err != nil {
			return ri, "", err
		}
		if ri.Op == isa.OpBR || ri.Op == isa.OpBSR {
			ri.RD = ra
		} else {
			ri.RS = ra
		}
		if strings.HasPrefix(args[1], "@") {
			if !dise {
				return ri, "", fmt.Errorf("%s: @labels are only valid on DISE branches", line)
			}
			label = strings.TrimPrefix(args[1], "@")
		} else {
			imm, err := parseImmField(args[1])
			if err != nil {
				return ri, "", err
			}
			ri.Imm = imm
		}
	case isa.FmtJump, isa.FmtJumpCond:
		if len(args) != 2 {
			return ri, "", fmt.Errorf("%s: want 2 operands", line)
		}
		ra, err := parseRegField(args[0])
		if err != nil {
			return ri, "", err
		}
		t := strings.TrimSuffix(strings.TrimPrefix(args[1], "("), ")")
		rs, err := parseRegField(t)
		if err != nil {
			return ri, "", err
		}
		ri.RS = rs
		if !ri.OpFromTrigger && ri.Op.Format() == isa.FmtJumpCond {
			ri.RT = ra
		} else {
			ri.RD = ra
		}
	case isa.FmtOpImm:
		if len(args) != 3 {
			return ri, "", fmt.Errorf("%s: want 3 operands", line)
		}
		rs, err := parseRegField(args[0])
		if err != nil {
			return ri, "", err
		}
		imm, err := parseImmField(args[1])
		if err != nil {
			return ri, "", err
		}
		rd, err := parseRegField(args[2])
		if err != nil {
			return ri, "", err
		}
		ri.RS, ri.Imm, ri.RD = rs, imm, rd
	case isa.FmtSpecial:
		if ri.Op == isa.OpHALT {
			break
		}
		if len(args) != 1 {
			return ri, "", fmt.Errorf("%s: want code", line)
		}
		imm, err := parseImmField(args[0])
		if err != nil {
			return ri, "", err
		}
		ri.Imm = imm
	default: // FmtOpReg, and %op in register form
		if len(args) != 3 {
			return ri, "", fmt.Errorf("%s: want 3 operands", line)
		}
		rs, err := parseRegField(args[0])
		if err != nil {
			return ri, "", err
		}
		rt, err := parseRegField(args[1])
		if err != nil {
			return ri, "", err
		}
		rd, err := parseRegField(args[2])
		if err != nil {
			return ri, "", err
		}
		ri.RS, ri.RT, ri.RD = rs, rt, rd
	}
	return ri, label, nil
}

func splitReplOperands(line string) []string {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return []string{line}
	}
	out := []string{line[:i]}
	for _, f := range strings.Split(line[i+1:], ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}
