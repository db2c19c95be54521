// Package vax simulates a VAX-flavored target: little-endian, byte-
// coded variable-length instructions with operand specifiers, sixteen
// general registers with a conventional frame pointer, and one-byte
// break and no-op instructions (so breakpoints fetch and store single
// bytes — the smallest "instruction type" of the four targets).
//
// Documented simplifications: jsb/rsb calls instead of the call-frame
// calls/ret machinery; conditional branches take 16-bit displacements;
// floating values use IEEE formats in eight dedicated float registers
// (addressed by custom operand mode 4) instead of D_floating register
// pairs; and 0x79 is a custom logical-shift-right opcode.
package vax

import (
	"encoding/binary"

	"ldb/internal/arch"
)

// Register numbering follows the VAX convention.
const (
	R0   = 0 // return value
	R1   = 1 // first syscall argument
	R2   = 2 // second syscall argument
	AP   = 12
	FP   = 13
	SP   = 14
	PCr  = 15 // pc lives in the r15 slot of a saved context
	NReg = 16
	NFrg = 8
)

// Vax implements arch.Arch.
type Vax struct{}

// Target is the singleton VAX target.
var Target = &Vax{}

func init() { arch.Register(Target) }

// Name implements arch.Arch.
func (v *Vax) Name() string { return "vax" }

// Order implements arch.Arch.
func (v *Vax) Order() binary.ByteOrder { return binary.LittleEndian }

// WordSize implements arch.Arch.
func (v *Vax) WordSize() int { return 4 }

// BreakInstr implements arch.Arch: the one-byte bpt opcode.
func (v *Vax) BreakInstr() []byte { return []byte{OpBpt} }

// NopInstr implements arch.Arch: the one-byte nop opcode.
func (v *Vax) NopInstr() []byte { return []byte{OpNop} }

// InstrSize implements arch.Arch: instructions are fetched and stored
// byte-by-byte.
func (v *Vax) InstrSize() int { return 1 }

// PCAdvance implements arch.Arch.
func (v *Vax) PCAdvance() int64 { return 1 }

// NumRegs implements arch.Arch.
func (v *Vax) NumRegs() int { return NReg }

// NumFRegs implements arch.Arch.
func (v *Vax) NumFRegs() int { return NFrg }

// RegName implements arch.Arch.
func (v *Vax) RegName(i int) string {
	switch i {
	case AP:
		return "ap"
	case FP:
		return "fp"
	case SP:
		return "sp"
	case PCr:
		return "pc"
	}
	if i >= 0 && i < 12 {
		if i < 10 {
			return "r" + string(rune('0'+i))
		}
		return "r1" + string(rune('0'+i-10))
	}
	return "r?"
}

// SPReg implements arch.Arch.
func (v *Vax) SPReg() int { return SP }

// FPReg implements arch.Arch.
func (v *Vax) FPReg() int { return FP }

// RetReg implements arch.Arch.
func (v *Vax) RetReg() int { return R0 }

// LinkReg implements arch.Arch: jsb pushes the return address.
func (v *Vax) LinkReg() int { return -1 }

// ZeroReg implements arch.Arch: the VAX has no zero register.
func (v *Vax) ZeroReg() int { return -1 }

// Context implements arch.Arch: r0-r15 (the saved pc occupies the r15
// slot — a piece of machine-dependent dirt the VAX frame code knows),
// then the psl (flag), then the float registers.
func (v *Vax) Context() arch.ContextLayout {
	l := arch.ContextLayout{
		Size:     4*NReg + 4 + 8*NFrg,
		PCOff:    4 * PCr,
		FlagOff:  4 * NReg,
		RegOffs:  make([]int, NReg),
		FRegOffs: make([]int, NFrg),
		FRegSize: 8,
	}
	for i := range l.RegOffs {
		l.RegOffs[i] = 4 * i
	}
	for i := range l.FRegOffs {
		l.FRegOffs[i] = 4*NReg + 4 + 8*i
	}
	return l
}

// SyscallArg implements arch.Arch.
func (v *Vax) SyscallArg(p arch.Proc, i int) uint32 { return p.Reg(R1 + i) }

// SyscallRet implements arch.Arch.
func (v *Vax) SyscallRet(p arch.Proc, u uint32) { p.SetReg(R0, u) }
