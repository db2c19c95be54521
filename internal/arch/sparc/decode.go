package sparc

import "ldb/internal/arch"

// dst maps a destination register for decode time: writes to %g0 are
// architecturally discarded, so they predecode to the -1 slot that
// compiles to a no-op (arithmetic) or a Step escape (loads, whose
// faults must still happen).
func dst(r int) int {
	if r == 0 {
		return -1
	}
	return r
}

// Decode implements arch.Decoder. The result is pure data: a micro-op
// the machine-independent executor runs inline. The second operand of
// arithmetic and memory forms is either a sign-extended 13-bit
// immediate or a register; decode resolves which once and picks the
// register or immediate form of the micro-op. Floating point, traps,
// multiplies and divides by an immediate, linked register-register
// jmpl (forms the compiler never emits), and loads into %g0 carry no
// micro-op and escape to Step. Words Step rejects outright decode to nil; invalid
// floating-point opcodes decode to escapes, and Step raises their
// SIGILL.
func (s *Sparc) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off+4 > len(code) || off&3 != 0 {
		return nil
	}
	w := s.Order().Uint32(code[off : off+4])
	d := &arch.DecodedInsn{Len: 4}
	rd := int(w >> 25 & 31)
	op3 := int(w >> 19 & 63)
	rs1 := int(w >> 14 & 31)
	// rs2 >= 0 names the register second operand; otherwise it is simm.
	rs2 := -1
	var simm uint32
	if w&(1<<13) != 0 {
		simm = signExt13(w & 0x1fff)
	} else {
		rs2 = int(w & 31)
	}
	// alu picks the register or immediate form of an arithmetic op.
	alu := func(reg, immOp arch.Uop, imm uint32) *arch.DecodedInsn {
		if rs2 >= 0 {
			return d.AluUop(reg, dst(rd), rs1, rs2, 0)
		}
		return d.AluUop(immOp, dst(rd), rs1, 0, imm)
	}
	// mem builds a load (r the destination) or store (r the value).
	mem := func(op arch.Uop, r int) *arch.DecodedInsn {
		if rs2 >= 0 {
			return d.FaultUop(op, r, rs1, rs2, 0)
		}
		return d.FaultUop(op, r, rs1, 0, simm)
	}

	switch w >> 30 {
	case 1: // call
		disp := int32(w<<2) >> 2
		return d.TermUop(arch.UopJmpL, O7, 0, 0, pc+uint32(disp)*4)
	case 0: // sethi / branches
		switch w >> 22 & 7 {
		case 4: // sethi
			return d.AluUop(arch.UopConst, dst(rd), 0, 0, w<<10)
		case 2, 6: // Bicc / FBfcc
			// The flags live in bits 0-2, so the condition predecodes
			// to an 8-entry truth table indexed by flag&7.
			cond := int(w >> 25 & 15)
			var tbl int
			for fl := uint32(0); fl < 8; fl++ {
				if condTrue(cond, fl) {
					tbl |= 1 << fl
				}
			}
			disp := int32(w<<10) >> 10
			return d.TermUop(arch.UopBcc, tbl, 0, 0, pc+uint32(disp)*4)
		}
	case 2: // arithmetic
		switch op3 {
		case Op3Add:
			return alu(arch.UopAdd, arch.UopAddI, simm)
		case Op3Sub:
			return alu(arch.UopSub, arch.UopAddI, -simm)
		case Op3And:
			return alu(arch.UopAnd, arch.UopAndI, simm)
		case Op3Or:
			return alu(arch.UopOr, arch.UopOrI, simm)
		case Op3Xor:
			return alu(arch.UopXor, arch.UopXorI, simm)
		case Op3SMul:
			if rs2 < 0 {
				return d // immediate multiplier: Step
			}
			return d.AluUop(arch.UopMul, dst(rd), rs1, rs2, 0)
		case Op3Sll:
			return alu(arch.UopShl, arch.UopShlI, simm&31)
		case Op3Srl:
			return alu(arch.UopShr, arch.UopShrI, simm&31)
		case Op3Sra:
			return alu(arch.UopSar, arch.UopSarI, simm&31)
		case Op3SDiv:
			if rs2 < 0 {
				return d // immediate divisor: Step
			}
			return d.FaultUop(arch.UopDiv, dst(rd), rs1, rs2, 0)
		case Op3SubCC:
			switch {
			case rd != 0:
				return alu(arch.UopSubCC, arch.UopSubCCI, simm)
			case rs2 >= 0:
				return d.FlagUop(arch.UopCmp, rs1, rs2, 0)
			}
			return d.FlagUop(arch.UopCmpI, rs1, 0, simm)
		case Op3Jmpl:
			switch {
			case rd == 0: // ret / retl and friends: link discarded
				return d.TermUop(arch.UopJmpInd, 0, rs1, max(rs2, 0), simm)
			case rs2 >= 0: // linked register-register form: Step
				d.Flags = arch.InsnTerm
				return d
			}
			return d.TermUop(arch.UopJmpIndL, rd, rs1, 0, simm)
		case Op3Trap:
			d.Flags = arch.InsnTerm
			return d
		case Op3FPop1, Op3FPop2:
			return d
		}
	case 3: // memory
		switch op3 {
		case Op3Ld:
			return mem(arch.UopLd32, dst(rd))
		case Op3Ldub:
			return mem(arch.UopLd8U, dst(rd))
		case Op3Lduh:
			return mem(arch.UopLd16U, dst(rd))
		case Op3Ldsb:
			return mem(arch.UopLd8S, dst(rd))
		case Op3Ldsh:
			return mem(arch.UopLd16S, dst(rd))
		case Op3St:
			return mem(arch.UopSt32, rd)
		case Op3Stb:
			return mem(arch.UopSt8, rd)
		case Op3Sth:
			return mem(arch.UopSt16, rd)
		case Op3Ldf, Op3Lddf, Op3Stf, Op3Stdf:
			return d
		}
	}
	return nil
}
