package isa

import "testing"

// The switch definitions below are the reference the per-opcode table in
// isa.go was built from; TestOpTableMatchesSwitches holds the table to them.

func refClassOf(i Inst) Class {
	switch i.Op {
	case OpNop:
		return ClassNop
	case OpHalt:
		return ClassHalt
	case OpLd:
		return ClassLoad
	case OpSt:
		return ClassStore
	case OpMul, OpDiv:
		return ClassIntMul
	case OpFAdd, OpFMul:
		return ClassFP
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
		return ClassBranch
	case OpJal, OpJalr:
		return ClassCall
	case OpJr:
		if i.Rs == RRA {
			return ClassReturn
		}
		return ClassBranch
	default:
		return ClassIntALU
	}
}

func refHasDest(i Inst) bool {
	switch FormatOf(i.Op) {
	case FmtB, FmtN:
		return false
	case FmtJ:
		return i.Op == OpJal && i.Rd != RZero
	}
	if i.Op == OpJr {
		return false
	}
	return i.Rd != RZero
}

func refNumSources(i Inst) int {
	switch FormatOf(i.Op) {
	case FmtN:
		return 0
	case FmtJ:
		return 0
	case FmtI:
		return 1
	case FmtB:
		return 2 // branches compare two registers; st reads base + data
	}
	switch i.Op {
	case OpJr, OpJalr:
		return 1
	}
	return 2
}

func refSources(i Inst) (rs, rt Reg) {
	switch refNumSources(i) {
	case 0:
		return RZero, RZero
	case 1:
		return i.Rs, RZero
	default:
		return i.Rs, i.Rt
	}
}

// TestOpTableMatchesSwitches checks every Op value, defined or not, under
// register operands that exercise each operand-dependent rule (the zero
// destination, the `jr ra` return, the stack pointer, an ordinary register).
func TestOpTableMatchesSwitches(t *testing.T) {
	regs := [...]Reg{RZero, RRA, RSP, Reg(1)}
	for op := 0; op < 256; op++ {
		for _, rd := range regs {
			for _, rs := range regs {
				for _, rt := range regs {
					in := Inst{Op: Op(op), Rd: rd, Rs: rs, Rt: rt, Imm: 4}
					if got, want := ClassOf(in), refClassOf(in); got != want {
						t.Errorf("ClassOf(%+v) = %v, want %v", in, got, want)
					}
					if got, want := NumSources(in), refNumSources(in); got != want {
						t.Errorf("NumSources(%+v) = %d, want %d", in, got, want)
					}
					gs, gt := Sources(in)
					ws, wt := refSources(in)
					if gs != ws || gt != wt {
						t.Errorf("Sources(%+v) = %v,%v, want %v,%v", in, gs, gt, ws, wt)
					}
					if got, want := HasDest(in), refHasDest(in); got != want {
						t.Errorf("HasDest(%+v) = %v, want %v", in, got, want)
					}
				}
			}
		}
	}
}
