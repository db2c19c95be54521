package machine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/m68k"
	"ldb/internal/arch/mips"
	"ldb/internal/arch/sparc"
	"ldb/internal/arch/vax"
)

// The executor's random-instruction property: random instruction bytes
// execute identically through the decoder and the fused executor and
// through the architecture's own Step, which shares no code with
// either. Two processes — one decoding, one with NoPredecode — receive
// identical text and identical random register, flag, and float state,
// execute, and must agree on the fault, pc, flag, registers, float
// registers, every segment, and stdout. Register values are drawn to
// land memory operands in the mapped segments often, so loads, stores,
// and text writes (which must invalidate) are exercised, not only
// SIGSEGV. The processes are reused across trials so the whole property
// runs in a few seconds.

const (
	propText  = 96
	propData  = 1024
	propStack = 4096
)

var propArches = []arch.Arch{mips.Little, mips.Big, sparc.Target, m68k.Target, vax.Target}

// propPair returns a decoding process and its Step-only twin, with a
// small stack so comparing every segment after every trial is cheap.
func propPair(a arch.Arch) (pf, pu *Process) {
	mk := func() *Process {
		p := New(a, make([]byte, propText), make([]byte, propData), TextBase)
		p.Segs[2] = &Segment{Name: "stack", Base: StackTop - propStack, Data: make([]byte, propStack)}
		return p
	}
	pf, pu = mk(), mk()
	pu.NoPredecode = true
	return pf, pu
}

// propValue draws a register value: often an address inside a mapped
// segment, sometimes a small signed number, sometimes anything.
func propValue(r *rand.Rand) uint32 {
	switch r.Intn(6) {
	case 0:
		return r.Uint32()
	case 1:
		return uint32(r.Intn(64)) - 32
	case 2:
		return DataBase + uint32(r.Intn(propData))
	case 3:
		return StackTop - propStack + uint32(r.Intn(propStack))
	case 4:
		return TextBase + uint32(r.Intn(propText))
	}
	return 0
}

var propFloats = []float64{0, 1, -2.5, 3.25e9, 1e-300, math.Inf(1), math.NaN(), 7}

// propState gives both processes the same random registers, flag, float
// registers, and pc, and clears lifecycle and output.
func propState(r *rand.Rand, pf, pu *Process, pc uint32) {
	for i := range pf.regs {
		v := propValue(r)
		pf.SetReg(i, v)
		pu.SetReg(i, v)
	}
	for i := range pf.fregs {
		v := propFloats[r.Intn(len(propFloats))]
		pf.fregs[i], pu.fregs[i] = v, v
	}
	fl := r.Uint32()
	if r.Intn(2) == 0 {
		fl &= 7
	}
	for _, p := range []*Process{pf, pu} {
		p.flag, p.pc = fl, pc
		p.State, p.ExitCode = StateStopped, 0
		p.Stdout.Reset()
	}
}

// propDiff describes the first difference between the two processes'
// observable state, or returns "".
func propDiff(pf, pu *Process, ff, fu *arch.Fault) string {
	switch {
	case (ff == nil) != (fu == nil) || (ff != nil && *ff != *fu):
		return fmt.Sprintf("fault %+v, Step %+v", ff, fu)
	case pf.pc != pu.pc || pf.flag != pu.flag:
		return fmt.Sprintf("pc=%#x flag=%#x, Step pc=%#x flag=%#x", pf.pc, pf.flag, pu.pc, pu.flag)
	case pf.State != pu.State || pf.ExitCode != pu.ExitCode || pf.Steps != pu.Steps:
		return fmt.Sprintf("state %v/%d steps %d, Step %v/%d steps %d", pf.State, pf.ExitCode, pf.Steps, pu.State, pu.ExitCode, pu.Steps)
	case pf.Stdout.String() != pu.Stdout.String():
		return fmt.Sprintf("stdout %q, Step %q", pf.Stdout.String(), pu.Stdout.String())
	}
	for i := range pf.regs {
		if pf.regs[i] != pu.regs[i] {
			return fmt.Sprintf("r%d=%#x, Step %#x", i, pf.regs[i], pu.regs[i])
		}
	}
	for i := range pf.fregs {
		if math.Float64bits(pf.fregs[i]) != math.Float64bits(pu.fregs[i]) {
			return fmt.Sprintf("f%d=%v, Step %v", i, pf.fregs[i], pu.fregs[i])
		}
	}
	for i, s := range pf.Segs {
		if !bytes.Equal(s.Data, pu.Segs[i].Data) {
			return fmt.Sprintf("segment %s differs", s.Name)
		}
	}
	return ""
}

// writeBoth stores the same bytes into both processes.
func writeBoth(t *testing.T, pf, pu *Process, addr uint32, b []byte) {
	t.Helper()
	if err := pf.WriteBytes(addr, b); err != nil {
		t.Fatal(err)
	}
	if err := pu.WriteBytes(addr, b); err != nil {
		t.Fatal(err)
	}
}

// TestRandomInstructionsSingleStep single-steps random instruction
// bytes: each trial rewrites the text, draws fresh state, and runs one
// StepOne on each side.
func TestRandomInstructionsSingleStep(t *testing.T) {
	const trials = 60_000
	for _, a := range propArches {
		r := rand.New(rand.NewSource(1))
		pf, pu := propPair(a)
		text := make([]byte, propText)
		for trial := 0; trial < trials; trial++ {
			r.Read(text)
			writeBoth(t, pf, pu, TextBase, text)
			propState(r, pf, pu, TextBase)
			ff, fu := pf.StepOne(), pu.StepOne()
			if d := propDiff(pf, pu, ff, fu); d != "" {
				t.Fatalf("%s: trial %d, text % x: %s", a.Name(), trial, text[:16], d)
			}
		}
	}
}

// TestRandomInstructionsFused runs random straight-line code: random
// instructions the ISA's own decoder marks as falling through, ending
// in a break, executed by Run. A random store can rewrite the text
// into a loop, so each trial arms a pacing callback that sends both
// sides to an unmapped pc after 1000 instructions — at exactly the
// same step on both, or the property fails.
func TestRandomInstructionsFused(t *testing.T) {
	const trials = 15_000
	for _, a := range propArches {
		r := rand.New(rand.NewSource(2))
		dec := a.(arch.Decoder)
		pf, pu := propPair(a)
		brk := a.BreakInstr()
		var word [16]byte
		for trial := 0; trial < trials; trial++ {
			var text []byte
			for len(text) < propText-len(word)-len(brk) && r.Intn(16) != 0 {
				r.Read(word[:])
				d := dec.Decode(word[:], 0, TextBase+uint32(len(text)))
				if d == nil || d.Flags&arch.InsnTerm != 0 {
					continue
				}
				text = append(text, word[:d.Len]...)
			}
			text = append(text, brk...)
			text = append(text, make([]byte, propText-len(text))...)
			writeBoth(t, pf, pu, TextBase, text)
			propState(r, pf, pu, TextBase)
			for _, p := range []*Process{pf, pu} {
				p := p
				p.SetAutoCheckpoint(1000, func() { p.SetPC(0) })
			}
			ff, fu := pf.Run(), pu.Run()
			if d := propDiff(pf, pu, ff, fu); d != "" {
				t.Fatalf("%s: trial %d, text % x: %s", a.Name(), trial, text, d)
			}
		}
	}
}
