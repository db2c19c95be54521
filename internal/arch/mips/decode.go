package mips

import "ldb/internal/arch"

// dst maps a destination register for decode time: writes to r0 are
// architecturally discarded, so they predecode to the -1 slot that
// compiles to a no-op (arithmetic) or a Step escape (loads and
// divides, whose faults must still happen).
func dst(r int) int {
	if r == 0 {
		return -1
	}
	return r
}

// Decode implements arch.Decoder. The result is pure data: every bit
// field, sign extension, and branch/jump target is extracted here, once,
// into a micro-op the machine-independent executor runs inline.
// Floating point, break, and syscall carry no micro-op and escape to
// Step, as do loads and divides into r0. Words Step rejects outright
// decode to nil; invalid function codes inside the floating-point
// group decode to escapes, and Step raises their SIGILL.
func (m *Mips) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	if off < 0 || off+4 > len(code) || off&3 != 0 {
		return nil
	}
	w := m.Order().Uint32(code[off : off+4])
	op := w >> 26
	rs := int(w >> 21 & 31)
	rt := int(w >> 16 & 31)
	rd := int(w >> 11 & 31)
	sh := w >> 6 & 31
	imm := uint32(int32(int16(w)))
	uimm := w & 0xffff
	btarget := pc + 4 + imm<<2
	d := &arch.DecodedInsn{Len: 4}

	switch op {
	case OpSpecial:
		switch w & 63 {
		case FnSll:
			return d.AluUop(arch.UopShlI, dst(rd), rt, 0, sh)
		case FnSrl:
			return d.AluUop(arch.UopShrI, dst(rd), rt, 0, sh)
		case FnSra:
			return d.AluUop(arch.UopSarI, dst(rd), rt, 0, sh)
		case FnSllv:
			return d.AluUop(arch.UopShl, dst(rd), rt, rs, 0)
		case FnSrlv:
			return d.AluUop(arch.UopShr, dst(rd), rt, rs, 0)
		case FnSrav:
			return d.AluUop(arch.UopSar, dst(rd), rt, rs, 0)
		case FnJr:
			return d.TermUop(arch.UopJmpInd, 0, rs, 0, 0)
		case FnJalr:
			if rd == 0 { // link discarded: plain indirect jump
				return d.TermUop(arch.UopJmpInd, 0, rs, 0, 0)
			}
			return d.TermUop(arch.UopJmpIndL, rd, rs, 4, 0)
		case FnSyscall, FnBreak:
			d.Flags = arch.InsnTerm
			return d
		case FnMul:
			return d.AluUop(arch.UopMul, dst(rd), rs, rt, 0)
		case FnDiv:
			return d.FaultUop(arch.UopDiv, dst(rd), rs, rt, 0)
		case FnRem:
			return d.FaultUop(arch.UopRem, dst(rd), rs, rt, 0)
		case FnAddu:
			return d.AluUop(arch.UopAdd, dst(rd), rs, rt, 0)
		case FnSubu:
			return d.AluUop(arch.UopSub, dst(rd), rs, rt, 0)
		case FnAnd:
			return d.AluUop(arch.UopAnd, dst(rd), rs, rt, 0)
		case FnOr:
			return d.AluUop(arch.UopOr, dst(rd), rs, rt, 0)
		case FnXor:
			return d.AluUop(arch.UopXor, dst(rd), rs, rt, 0)
		case FnNor:
			return d.AluUop(arch.UopNor, dst(rd), rs, rt, 0)
		case FnSlt:
			return d.AluUop(arch.UopSlt, dst(rd), rs, rt, 0)
		case FnSltu:
			return d.AluUop(arch.UopSltu, dst(rd), rs, rt, 0)
		}
	case OpRegimm: // r0 reads as zero, so the compare is against rt = 0
		switch rt {
		case 0: // bltz
			return d.TermUop(arch.UopBlt, 0, rs, 0, btarget)
		case 1: // bgez
			return d.TermUop(arch.UopBge, 0, rs, 0, btarget)
		}
	case OpJ:
		return d.TermUop(arch.UopJmp, 0, 0, 0, pc&0xf0000000|w<<6>>4)
	case OpJal:
		return d.TermUop(arch.UopJmpL, RA, 0, 4, pc&0xf0000000|w<<6>>4)
	case OpBeq:
		return d.TermUop(arch.UopBeq, 0, rs, rt, btarget)
	case OpBne:
		return d.TermUop(arch.UopBne, 0, rs, rt, btarget)
	case OpBlez:
		return d.TermUop(arch.UopBle, 0, rs, 0, btarget)
	case OpBgtz:
		return d.TermUop(arch.UopBgt, 0, rs, 0, btarget)
	case OpAddiu:
		return d.AluUop(arch.UopAddI, dst(rt), rs, 0, imm)
	case OpSlti:
		return d.AluUop(arch.UopSltI, dst(rt), rs, 0, imm)
	case OpAndi:
		return d.AluUop(arch.UopAndI, dst(rt), rs, 0, uimm)
	case OpOri:
		return d.AluUop(arch.UopOrI, dst(rt), rs, 0, uimm)
	case OpXori:
		return d.AluUop(arch.UopXorI, dst(rt), rs, 0, uimm)
	case OpLui:
		return d.AluUop(arch.UopConst, dst(rt), 0, 0, uimm<<16)
	case OpLb:
		return d.FaultUop(arch.UopLd8S, dst(rt), rs, 0, imm)
	case OpLbu:
		return d.FaultUop(arch.UopLd8U, dst(rt), rs, 0, imm)
	case OpLh:
		return d.FaultUop(arch.UopLd16S, dst(rt), rs, 0, imm)
	case OpLhu:
		return d.FaultUop(arch.UopLd16U, dst(rt), rs, 0, imm)
	case OpLw:
		return d.FaultUop(arch.UopLd32, dst(rt), rs, 0, imm)
	case OpSb:
		return d.FaultUop(arch.UopSt8, rt, rs, 0, imm)
	case OpSh:
		return d.FaultUop(arch.UopSt16, rt, rs, 0, imm)
	case OpSw:
		return d.FaultUop(arch.UopSt32, rt, rs, 0, imm)
	case OpLwc1, OpLdc1, OpSwc1, OpSdc1:
		return d
	case OpCop1:
		switch rs {
		case C1Bc:
			// bc1t/bc1f test flag bit 0: a truth table over flag&7
			// taking the branch when bit 0 equals rt's low bit.
			tbl := 0x55
			if rt&1 != 0 {
				tbl = 0xaa
			}
			return d.TermUop(arch.UopBcc, tbl, 0, 0, btarget)
		case C1Mfc1, C1Mtc1, C1FmtS, C1FmtD:
			return d
		}
	}
	return nil
}
