// Package m68k simulates a Motorola 68020-flavored target: big-endian,
// variable-length instructions built from 16-bit opwords, eight data
// and eight address registers, link/unlk frame discipline, and 80-bit
// extended-precision floating storage (the paper's third float size).
//
// Iconic opwords use the real 68000 encodings (trap #n, nop, rts, link,
// unlk, jsr, Bcc); the move and arithmetic groups use a simplified
// regular encoding documented in asm.go. Floating arithmetic happens in
// double precision (as K&R C promotes anyway); the extended format
// matters for storage, which is what the debugger sees.
package m68k

import (
	"encoding/binary"

	"ldb/internal/arch"
)

// Register numbering: d0-d7 are 0-7, a0-a7 are 8-15.
const (
	D0   = 0
	D1   = 1 // syscall number
	D2   = 2 // first syscall argument
	D3   = 3 // second syscall argument
	D4   = 4
	D5   = 5
	D6   = 6
	D7   = 7
	A0   = 8
	A1   = 9
	FPr  = 14 // a6, the frame pointer
	SPr  = 15 // a7, the stack pointer
	NReg = 16
	NFrg = 8
)

// M68k implements arch.Arch.
type M68k struct{}

// Target is the singleton 68020 target.
var Target = &M68k{}

func init() { arch.Register(Target) }

// Name implements arch.Arch.
func (m *M68k) Name() string { return "m68k" }

// Order implements arch.Arch.
func (m *M68k) Order() binary.ByteOrder { return binary.BigEndian }

// WordSize implements arch.Arch.
func (m *M68k) WordSize() int { return 4 }

// BreakInstr implements arch.Arch: `trap #0`.
func (m *M68k) BreakInstr() []byte { return []byte{0x4e, 0x40} }

// NopInstr implements arch.Arch: the real 68000 nop.
func (m *M68k) NopInstr() []byte { return []byte{0x4e, 0x71} }

// InstrSize implements arch.Arch: instructions are fetched and stored
// as 16-bit words.
func (m *M68k) InstrSize() int { return 2 }

// PCAdvance implements arch.Arch.
func (m *M68k) PCAdvance() int64 { return 2 }

// NumRegs implements arch.Arch.
func (m *M68k) NumRegs() int { return NReg }

// NumFRegs implements arch.Arch.
func (m *M68k) NumFRegs() int { return NFrg }

// RegName implements arch.Arch.
func (m *M68k) RegName(i int) string {
	switch {
	case i >= 0 && i < 8:
		return "d" + string(rune('0'+i))
	case i >= 8 && i < 16:
		return "a" + string(rune('0'+i-8))
	}
	return "r?"
}

// SPReg implements arch.Arch.
func (m *M68k) SPReg() int { return SPr }

// FPReg implements arch.Arch.
func (m *M68k) FPReg() int { return FPr }

// RetReg implements arch.Arch.
func (m *M68k) RetReg() int { return D0 }

// LinkReg implements arch.Arch: jsr pushes the return address.
func (m *M68k) LinkReg() int { return -1 }

// ZeroReg implements arch.Arch: the 68020 has no zero register.
func (m *M68k) ZeroReg() int { return -1 }

// Context implements arch.Arch: d0-d7, a0-a7, pc, flag, then the eight
// floating registers in 12-byte extended format (the struct sigcontext
// cannot serve as a context on the 68020, §4.3; this is the "other
// representation").
func (m *M68k) Context() arch.ContextLayout {
	l := arch.ContextLayout{
		Size:     72 + 12*NFrg,
		PCOff:    64,
		FlagOff:  68,
		RegOffs:  make([]int, NReg),
		FRegOffs: make([]int, NFrg),
		FRegSize: 12,
	}
	for i := range l.RegOffs {
		l.RegOffs[i] = 4 * i
	}
	for i := range l.FRegOffs {
		l.FRegOffs[i] = 72 + 12*i
	}
	return l
}

// SyscallArg implements arch.Arch.
func (m *M68k) SyscallArg(p arch.Proc, i int) uint32 { return p.Reg(D2 + i) }

// SyscallRet implements arch.Arch.
func (m *M68k) SyscallRet(p arch.Proc, v uint32) { p.SetReg(D0, v) }
