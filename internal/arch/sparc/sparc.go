// Package sparc simulates a SPARC-flavored target: big-endian, fixed
// 32-bit instructions, 32 general registers, and a conventional frame
// pointer (%i6), so it shares ldb's frame-pointer stack walker with the
// 68020 and the VAX.
//
// Documented simplifications: there are no register windows (save and
// restore are not implemented; the compiler uses an explicit
// frame-pointer chain), there is no delay slot (a call's return address
// is %o7+4), the eight floating registers are doubles rather than
// single-precision pairs, fitod/fdtoi exchange values with integer
// registers directly, and the float branches use the integer condition
// encoding (fcmp sets the same flag).
package sparc

import (
	"encoding/binary"

	"ldb/internal/arch"
)

// Register numbering: g0-g7, o0-o7, l0-l7, i0-i7.
const (
	G0   = 0  // hardwired zero
	G1   = 1  // syscall number
	O0   = 8  // return value, first syscall argument
	O1   = 9  // second syscall argument
	SP   = 14 // %o6
	O7   = 15 // link register
	FP   = 30 // %i6
	NReg = 32
	NFrg = 8
)

// Sparc implements arch.Arch.
type Sparc struct{}

// Target is the singleton SPARC target.
var Target = &Sparc{}

func init() { arch.Register(Target) }

// Name implements arch.Arch.
func (s *Sparc) Name() string { return "sparc" }

// Order implements arch.Arch.
func (s *Sparc) Order() binary.ByteOrder { return binary.BigEndian }

// WordSize implements arch.Arch.
func (s *Sparc) WordSize() int { return 4 }

func word(w uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, w)
	return b
}

// BreakInstr implements arch.Arch: `ta 0`.
func (s *Sparc) BreakInstr() []byte { return word(encTrap(arch.TrapBreakpoint)) }

// NopInstr implements arch.Arch: `sethi 0, %g0`.
func (s *Sparc) NopInstr() []byte { return word(uint32(0)<<30 | 4<<22) }

// InstrSize implements arch.Arch.
func (s *Sparc) InstrSize() int { return 4 }

// PCAdvance implements arch.Arch.
func (s *Sparc) PCAdvance() int64 { return 4 }

// NumRegs implements arch.Arch.
func (s *Sparc) NumRegs() int { return NReg }

// NumFRegs implements arch.Arch.
func (s *Sparc) NumFRegs() int { return NFrg }

// RegName implements arch.Arch.
func (s *Sparc) RegName(i int) string {
	names := []string{"g", "o", "l", "i"}
	if i < 0 || i >= NReg {
		return "r?"
	}
	return names[i/8] + string(rune('0'+i%8))
}

// SPReg implements arch.Arch.
func (s *Sparc) SPReg() int { return SP }

// FPReg implements arch.Arch.
func (s *Sparc) FPReg() int { return FP }

// RetReg implements arch.Arch.
func (s *Sparc) RetReg() int { return O0 }

// LinkReg implements arch.Arch.
func (s *Sparc) LinkReg() int { return O7 }

// ZeroReg implements arch.Arch: %g0 is hardwired to zero.
func (s *Sparc) ZeroReg() int { return G0 }

// Context implements arch.Arch: registers first (the operating system
// provides most of the registers, §4.3), then pc, flag, and the
// floating registers.
func (s *Sparc) Context() arch.ContextLayout {
	l := arch.ContextLayout{
		Size:     4*NReg + 8 + 8*NFrg,
		PCOff:    4 * NReg,
		FlagOff:  4*NReg + 4,
		RegOffs:  make([]int, NReg),
		FRegOffs: make([]int, NFrg),
		FRegSize: 8,
	}
	for i := range l.RegOffs {
		l.RegOffs[i] = 4 * i
	}
	for i := range l.FRegOffs {
		l.FRegOffs[i] = 4*NReg + 8 + 8*i
	}
	return l
}

// SyscallArg implements arch.Arch.
func (s *Sparc) SyscallArg(p arch.Proc, i int) uint32 { return p.Reg(O0 + i) }

// SyscallRet implements arch.Arch.
func (s *Sparc) SyscallRet(p arch.Proc, v uint32) { p.SetReg(O0, v) }
