package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Reg is a register number. Application machine code can name the 32
// architectural registers r0..r31. Decoded instructions — in particular DISE
// replacement instructions — can additionally name the DISE dedicated
// registers dr0..dr7, which are invisible to and unencodable by application
// code (paper §2.1, "Dedicated registers").
type Reg uint8

// Register name space.
const (
	// NumArchRegs is the number of architectural integer registers.
	NumArchRegs = 32
	// NumDiseRegs is the number of DISE dedicated registers.
	NumDiseRegs = 8
	// NumRegs is the total decoded register name space (architectural +
	// dedicated).
	NumRegs = NumArchRegs + NumDiseRegs
)

// Well-known registers, following Alpha-like conventions.
const (
	RegV0   Reg = 0  // function result
	RegRA   Reg = 26 // return address
	RegAT   Reg = 28 // assembler temporary
	RegGP   Reg = 29 // global pointer
	RegSP   Reg = 30 // stack pointer
	RegZero Reg = 31 // hardwired zero

	// RegDR0 is the first DISE dedicated register; dedicated register k is
	// RegDR0+k. Only valid in decoded (post-DISE) instructions.
	RegDR0 Reg = 32

	// NoReg marks an unused register slot in a decoded instruction.
	NoReg Reg = 0xFF
)

// IsDedicated reports whether r is a DISE dedicated register.
func (r Reg) IsDedicated() bool {
	return r >= RegDR0 && r < RegDR0+NumDiseRegs
}

// IsArch reports whether r is an architectural register.
func (r Reg) IsArch() bool { return r < NumArchRegs }

// Valid reports whether r names a register (architectural or dedicated).
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembler spelling of r ("r7", "$dr2", "sp", ...).
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r == RegSP:
		return "sp"
	case r == RegZero:
		return "zero"
	case r.IsDedicated():
		return fmt.Sprintf("$dr%d", r-RegDR0)
	case r.IsArch():
		return fmt.Sprintf("r%d", uint8(r))
	default:
		return fmt.Sprintf("reg(%d)", uint8(r))
	}
}

// RegByName parses an assembler register spelling. The dedicated registers
// ($dr0..$dr7) are accepted only when dise is true (production files);
// application assembly cannot name them. It returns NoReg on failure.
func RegByName(name string, dise bool) Reg {
	switch name {
	case "sp":
		return RegSP
	case "zero":
		return RegZero
	case "ra":
		return RegRA
	case "gp":
		return RegGP
	case "at":
		return RegAT
	case "v0":
		return RegV0
	}
	switch {
	case strings.HasPrefix(name, "r"):
		if n, ok := regNumber(name[1:]); ok && n < NumArchRegs {
			return Reg(n)
		}
	case dise && strings.HasPrefix(name, "$dr"):
		if n, ok := regNumber(name[3:]); ok && n < NumDiseRegs {
			return RegDR0 + Reg(n)
		}
	}
	return NoReg
}

// regNumber parses a register-number suffix: one or more ASCII digits and
// nothing else, so "r1x", "r+1" and "r 1" name no register.
func regNumber(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}
