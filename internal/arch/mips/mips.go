// Package mips simulates a MIPS R3000-flavored target: 32 general
// registers, fixed 32-bit instructions, no frame pointer (lcc addresses
// locals through a virtual frame pointer, and ldb walks the stack with
// the runtime procedure table), and either byte order. The classic
// R3000 load delay slot is honored by the assembler/scheduler; the
// simulator interlocks, so delay slots affect code size (the paper's
// scheduling experiment) but not semantics.
//
// Simplifications from the real ISA, documented here once: mul, div,
// and rem are three-operand register ops (fn 24, 26, 27) instead of
// HI/LO pairs, and mtc1/mfc1 convert between integer and double rather
// than moving raw bits.
package mips

import (
	"encoding/binary"

	"ldb/internal/arch"
)

// Register numbering follows the MIPS convention.
const (
	R0   = 0  // hardwired zero
	V0   = 2  // return value and syscall number
	A0   = 4  // first syscall argument
	A1   = 5  // second syscall argument
	T0   = 8  // first scratch register
	SP   = 29 // stack pointer
	RA   = 31 // return address
	NReg = 32
	NFrg = 8
)

// Mips implements arch.Arch.
type Mips struct {
	name  string
	order binary.ByteOrder
}

// Big and Little are the two byte orders of the R3000; the paper's ldb
// executes the same code on both (§4.1).
var (
	Big    = &Mips{name: "mipsbe", order: binary.BigEndian}
	Little = &Mips{name: "mips", order: binary.LittleEndian}
)

func init() {
	arch.Register(Big)
	arch.Register(Little)
}

// Name implements arch.Arch.
func (m *Mips) Name() string { return m.name }

// Order implements arch.Arch.
func (m *Mips) Order() binary.ByteOrder { return m.order }

// WordSize implements arch.Arch.
func (m *Mips) WordSize() int { return 4 }

func (m *Mips) word(w uint32) []byte {
	b := make([]byte, 4)
	m.order.PutUint32(b, w)
	return b
}

// BreakInstr implements arch.Arch: `break 0`.
func (m *Mips) BreakInstr() []byte { return m.word(encBreak(arch.TrapBreakpoint)) }

// NopInstr implements arch.Arch: `sll r0,r0,0`.
func (m *Mips) NopInstr() []byte { return m.word(0) }

// InstrSize implements arch.Arch.
func (m *Mips) InstrSize() int { return 4 }

// PCAdvance implements arch.Arch.
func (m *Mips) PCAdvance() int64 { return 4 }

// NumRegs implements arch.Arch.
func (m *Mips) NumRegs() int { return NReg }

// NumFRegs implements arch.Arch.
func (m *Mips) NumFRegs() int { return NFrg }

var regNames = [NReg]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "s8", "ra",
}

// RegName implements arch.Arch.
func (m *Mips) RegName(i int) string {
	if i >= 0 && i < NReg {
		return regNames[i]
	}
	return "r?"
}

// SPReg implements arch.Arch.
func (m *Mips) SPReg() int { return SP }

// FPReg implements arch.Arch: the MIPS has no frame pointer.
func (m *Mips) FPReg() int { return -1 }

// RetReg implements arch.Arch.
func (m *Mips) RetReg() int { return V0 }

// LinkReg implements arch.Arch.
func (m *Mips) LinkReg() int { return RA }

// ZeroReg implements arch.Arch: r0 is hardwired to zero.
func (m *Mips) ZeroReg() int { return R0 }

// Context implements arch.Arch. The layout is sigcontext-flavored:
// pc, then the flag word, then r0..r31, then f0..f7. On the big-endian
// MIPS the kernel's doubleword quirk applies (§4.3 footnote).
func (m *Mips) Context() arch.ContextLayout {
	l := arch.ContextLayout{
		Size:          8 + 4*NReg + 8*NFrg,
		PCOff:         0,
		FlagOff:       4,
		RegOffs:       make([]int, NReg),
		FRegOffs:      make([]int, NFrg),
		FRegSize:      8,
		FloatWordSwap: m.order == binary.BigEndian,
	}
	for i := range l.RegOffs {
		l.RegOffs[i] = 8 + 4*i
	}
	for i := range l.FRegOffs {
		l.FRegOffs[i] = 8 + 4*NReg + 8*i
	}
	return l
}

// SyscallArg implements arch.Arch.
func (m *Mips) SyscallArg(p arch.Proc, i int) uint32 { return p.Reg(A0 + i) }

// SyscallRet implements arch.Arch.
func (m *Mips) SyscallRet(p arch.Proc, v uint32) { p.SetReg(V0, v) }
