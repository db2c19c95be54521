package driver

import (
	"testing"

	"ldb/internal/arch"
	"ldb/internal/link"
	"ldb/internal/machine"
	"ldb/internal/workload"
)

// The simulator's gate: both engines — the fused executor over the
// decode cache, and Step, the uncached reference interpreter — must be
// step-for-step identical: same step count, stdout, exit fault, and
// final machine state for every workload program on every target.

// runWorkload runs prog to completion, skipping the pause traps debug
// builds execute before main.
func runWorkload(t *testing.T, prog *Program, noPredecode bool) (*machine.Process, *arch.Fault) {
	t.Helper()
	p := link.NewProcess(prog.Image)
	p.NoPredecode = noPredecode
	f := p.Run()
	for f.Kind == arch.FaultSignal && f.Sig == arch.SigTrap && f.Code == arch.TrapPause {
		p.SetPC(f.PC + f.Len)
		f = p.Run()
	}
	return p, f
}

func TestPredecodeDifferential(t *testing.T) {
	for _, a := range allArches {
		for _, name := range workload.Names {
			for _, opts := range []Options{
				{Arch: a},
				{Arch: a, Debug: true, Sched: a == "mips" || a == "mipsbe"},
			} {
				prog, err := Build([]Source{{Name: name + ".c", Text: workload.Programs[name]}}, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, a, err)
				}
				// The uncached engine is the reference: the architecture's
				// own Step, one fetch/decode/dispatch at a time, sharing
				// no code with decode or the executor.
				pu, fu := runWorkload(t, prog, true)
				pc, fc := runWorkload(t, prog, false)
				if *fc != *fu {
					t.Fatalf("%s on %s (%+v): fused exit %+v, uncached %+v", name, a, opts, fc, fu)
				}
				if pc.Steps != pu.Steps {
					t.Errorf("%s on %s (%+v): fused ran %d steps, uncached %d", name, a, opts, pc.Steps, pu.Steps)
				}
				if got, want := pc.Stdout.String(), pu.Stdout.String(); got != want {
					t.Errorf("%s on %s (%+v): fused stdout %q, uncached %q", name, a, opts, got, want)
				}
				if got, want := pc.Stdout.String(), workload.Outputs[name]; got != want {
					t.Errorf("%s on %s (%+v): stdout %q, want %q", name, a, opts, got, want)
				}
				if pc.PC() != pu.PC() || pc.Flag() != pu.Flag() {
					t.Errorf("%s on %s (%+v): fused pc=%#x flag=%#x, uncached pc=%#x flag=%#x",
						name, a, opts, pc.PC(), pc.Flag(), pu.PC(), pu.Flag())
				}
				for i := 0; i < prog.Image.Arch.NumRegs(); i++ {
					if pc.Reg(i) != pu.Reg(i) {
						t.Errorf("%s on %s (%+v): r%d fused %#x, uncached %#x", name, a, opts, i, pc.Reg(i), pu.Reg(i))
					}
				}
				for i := 0; i < prog.Image.Arch.NumFRegs(); i++ {
					if pc.FReg(i) != pu.FReg(i) {
						t.Errorf("%s on %s (%+v): f%d fused %v, uncached %v", name, a, opts, i, pc.FReg(i), pu.FReg(i))
					}
				}
				// All four ISAs implement arch.Decoder, so the fused run
				// must actually have executed from the cache and formed
				// blocks.
				if st := pc.SimStats(); st.Hits == 0 || st.Blocks == 0 {
					t.Errorf("%s on %s (%+v): fused run never hit the cache or formed no blocks (stats %+v)", name, a, opts, st)
				}
			}
		}
	}
}
