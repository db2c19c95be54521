package machine

import (
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
)

// The superblock regression suite. Fusion must be invisible except in
// speed: planting a breakpoint in the middle of a built block, a block
// storing over its own tail, and single-stepping through hot fused
// text must all behave exactly as Step does.

// breakWord assembles the mips break instruction with the given code
// and returns its word, for tests that store trap instructions over
// text the way a debugger's plant does.
func breakWord(t *testing.T, code int) uint32 {
	t.Helper()
	as := mips.NewAsm(mips.Little)
	as.Break(code)
	b, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return mips.Little.Order().Uint32(b)
}

// TestSuperblockPlantMidBlock plants a breakpoint in the interior of an
// already-built superblock — not at its entry — and re-executes from
// the entry. Entry-slot-only invalidation would leave the fused run
// intact and blast straight past the plant; the block must be dropped
// and the trap taken at the planted pc.
func TestSuperblockPlantMidBlock(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	as.I(mips.OpAddiu, mips.T0, mips.R0, 0) // TextBase+0: t0 = 0
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +4
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +8: plant target
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1) // +12
	as.Break(3)                             // +16
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p := New(m, code, nil, TextBase)
	f := p.Run()
	if f == nil || f.Sig != arch.SigTrap || f.Code != 3 || p.Reg(mips.T0) != 3 {
		t.Fatalf("first run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
	// The run is hot: the block at TextBase is built. Plant mid-block.
	old := make([]byte, 4)
	if err := p.ReadBytes(TextBase+8, old); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBytes(TextBase+8, m.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	p.SetPC(TextBase)
	f = p.Run()
	if f == nil || f.Sig != arch.SigTrap || f.Code != arch.TrapBreakpoint {
		t.Fatalf("planted run: %+v", f)
	}
	if f.PC != TextBase+8 || p.PC() != TextBase+8 {
		t.Fatalf("trapped at %#x (pc %#x), want %#x", f.PC, p.PC(), uint32(TextBase+8))
	}
	if got := p.Reg(mips.T0); got != 1 {
		t.Fatalf("t0 = %d at the breakpoint, want 1 (stale fused tail executed?)", got)
	}
	// Unplant and resume at the restored instruction.
	if err := p.WriteBytes(TextBase+8, old); err != nil {
		t.Fatal(err)
	}
	p.SetPC(TextBase + 8)
	f = p.Run()
	if f == nil || f.Code != 3 || p.Reg(mips.T0) != 3 {
		t.Fatalf("resumed run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
}

// TestSuperblockSelfModifyingStore fuses a store that overwrites a
// later instruction of its own block. The fused run must abort at the
// store and re-enter through the cache, so the overwritten instruction
// executes in its new form — and the retired-step accounting must match
// uncached execution exactly.
func TestSuperblockSelfModifyingStore(t *testing.T) {
	m := mips.Little
	brk := breakWord(t, 3)
	as := mips.NewAsm(m)
	// First pass with a placeholder address of the same LI width, to
	// learn where the block under test starts; LI expands to lui+ori
	// for large values, so the placeholder must be one too.
	as.LI(mips.T0+1, int32(TextBase))
	as.LI(mips.T0+2, int32(brk))             // the word the store plants
	entry := uint32(as.Off())                // block under test starts here
	as.I(mips.OpSw, mips.T0+2, mips.T0+1, 0) // entry: text store into own block
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)  // entry+4
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)  // entry+8: the victim
	as.Break(5)                              // entry+12
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Second pass with the victim's real address.
	as = mips.NewAsm(m)
	as.LI(mips.T0+1, int32(TextBase+entry+8))
	as.LI(mips.T0+2, int32(brk))
	as.I(mips.OpSw, mips.T0+2, mips.T0+1, 0)
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.Break(5)
	code2, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(code2) != len(code) {
		t.Fatalf("LI width changed: %d vs %d bytes", len(code2), len(code))
	}
	run := func(noPredecode bool) (*Process, *arch.Fault) {
		p := New(m, code2, nil, TextBase)
		p.NoPredecode = noPredecode
		return p, p.Run()
	}
	pf, ff := run(false)
	pu, fu := run(true)
	if ff == nil || ff.Sig != arch.SigTrap || ff.Code != 3 {
		t.Fatalf("fused: %+v (stale tail executed past the planted word?)", ff)
	}
	if ff.PC != TextBase+entry+8 {
		t.Fatalf("fused trapped at %#x, want %#x", ff.PC, TextBase+entry+8)
	}
	if got := pf.Reg(mips.T0); got != 1 {
		t.Fatalf("fused t0 = %d, want 1", got)
	}
	if fu == nil || *ff != *fu {
		t.Fatalf("fused fault %+v, uncached %+v", ff, fu)
	}
	if pf.Steps != pu.Steps || pf.PC() != pu.PC() || pf.Reg(mips.T0) != pu.Reg(mips.T0) {
		t.Fatalf("fused steps=%d pc=%#x t0=%d; uncached steps=%d pc=%#x t0=%d",
			pf.Steps, pf.PC(), pf.Reg(mips.T0), pu.Steps, pu.PC(), pu.Reg(mips.T0))
	}
}

// TestSuperblockStatsAccounting pins the counter contract: a fused
// block retiring N instructions advances Steps by N, every executed
// instruction is exactly one of a hit, a decode, or a fallback (a Step
// escape), and the fusion counters describe formation without
// disturbing hit-rate arithmetic.
func TestSuperblockStatsAccounting(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	as.I(mips.OpAddiu, mips.T0+1, mips.R0, 50)
	as.Label("loop")
	as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	as.Branch(mips.OpBne, mips.T0, mips.T0+1, "loop")
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run := func(noPredecode bool) *Process {
		p := New(m, code, nil, TextBase)
		p.NoPredecode = noPredecode
		if f := p.Run(); f == nil || f.Sig != arch.SigTrap || f.Code != 3 {
			t.Fatalf("noPredecode=%v: %+v", noPredecode, f)
		}
		return p
	}
	pf, pu := run(false), run(true)
	const wantSteps = 1 + 2*50 + 1 // li, 50 loop iterations, break
	if pf.Steps != wantSteps || pu.Steps != wantSteps {
		t.Fatalf("fused ran %d steps, uncached %d, want %d", pf.Steps, pu.Steps, wantSteps)
	}
	sf, su := pf.SimStats(), pu.SimStats()
	if sf.Hits+sf.Decodes+sf.Fallbacks != pf.Steps {
		t.Fatalf("fused counters do not partition steps: %+v (steps %d)", sf, pf.Steps)
	}
	// Three instructions decode to micro-ops once each; the break
	// escapes to Step, a fallback.
	if sf.Decodes != 3 || sf.Fallbacks != 1 || sf.Hits != wantSteps-4 {
		t.Fatalf("fused counters %+v, want 3 decodes, 1 fallback, %d hits", sf, wantSteps-4)
	}
	if sf.Blocks == 0 || sf.BlockInsns < sf.Blocks {
		t.Fatalf("fusion counters: %d blocks, %d fused instructions", sf.Blocks, sf.BlockInsns)
	}
	if su.Hits != 0 || su.Fallbacks != pu.Steps || su.Blocks != 0 || su.BlockInsns != 0 {
		t.Fatalf("uncached counters %+v, want every step a fallback and no blocks", su)
	}
}

// TestSuperblockStepOne: single steps through text that is hot in the
// block cache retire exactly one instruction each, and a run resumed
// afterwards continues correctly from the mid-block pc.
func TestSuperblockStepOne(t *testing.T) {
	m := mips.Little
	as := mips.NewAsm(m)
	for i := 0; i < 5; i++ {
		as.I(mips.OpAddiu, mips.T0, mips.T0, 1)
	}
	as.Break(3)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// A walk over cold text decodes one instruction per first visit
	// and enters nothing into the block cache.
	p := New(m, code, nil, TextBase)
	for i := 0; i < 5; i++ {
		if f := p.StepOne(); f != nil {
			t.Fatalf("cold step %d: %+v", i, f)
		}
		st := p.SimStats()
		if st.Decodes != int64(i+1) || st.Hits != 0 || st.Blocks != 0 {
			t.Fatalf("cold step %d: %+v, want %d decodes, no hits, no blocks", i, st, i+1)
		}
	}
	if f := p.StepOne(); f == nil || f.Code != 3 {
		t.Fatalf("cold step onto break: %+v", f)
	}
	p.SetPC(TextBase)
	for i := 0; i < 5; i++ {
		p.StepOne()
	}
	if st := p.SimStats(); st.Decodes != 5 || st.Fallbacks != 1 || st.Hits != 5 ||
		st.Hits+st.Decodes+st.Fallbacks != p.Steps {
		t.Fatalf("warm walk: %+v over %d steps, want 5 decodes, 1 fallback, 5 hits", st, p.Steps)
	}
	// A step runs through the process's scratch one-op block.
	if n := testing.AllocsPerRun(100, func() { p.SetPC(TextBase); p.StepOne() }); n != 0 {
		t.Fatalf("StepOne allocates %v times per step", n)
	}

	p = New(m, code, nil, TextBase)
	if f := p.Run(); f == nil || f.Code != 3 || p.Reg(mips.T0) != 5 {
		t.Fatalf("first run: %+v, t0=%d", f, p.Reg(mips.T0))
	}
	// The whole run is one hot block. Step from its entry: one
	// instruction per StepOne, no fused lookahead.
	p.SetPC(TextBase)
	for i := 0; i < 3; i++ {
		before := p.Steps
		if f := p.StepOne(); f != nil {
			t.Fatalf("step %d: %+v", i, f)
		}
		if p.Steps != before+1 {
			t.Fatalf("step %d retired %d instructions", i, p.Steps-before)
		}
		if want := TextBase + uint32(4*(i+1)); p.PC() != want {
			t.Fatalf("step %d: pc %#x, want %#x", i, p.PC(), want)
		}
	}
	if got := p.Reg(mips.T0); got != 8 {
		t.Fatalf("t0 = %d after 3 steps, want 8", got)
	}
	// Resume mid-block: the fused engine picks up at an interior pc.
	if f := p.Run(); f == nil || f.Code != 3 || p.Reg(mips.T0) != 10 {
		t.Fatalf("resumed: %+v, t0=%d", p.Run(), p.Reg(mips.T0))
	}
}

// countingDecoder counts the Decode calls it forwards.
type countingDecoder struct {
	arch.Decoder
	n int
}

func (c *countingDecoder) Decode(code []byte, off int, pc uint32) *arch.DecodedInsn {
	c.n++
	return c.Decoder.Decode(code, off, pc)
}

// TestUndecodableEntryDecodesOnce: an entry word the decoder rejects is
// decoded once per visit — the failed block build hands it straight to
// a Step escape, which raises Step's fault for it.
func TestUndecodableEntryDecodesOnce(t *testing.T) {
	m := mips.Little
	code := make([]byte, 8)
	m.Order().PutUint32(code, 0xfc000000) // opcode 0x3f: no such instruction
	for _, step := range []bool{false, true} {
		p := New(m, code, nil, TextBase)
		c := &countingDecoder{Decoder: p.dec}
		p.dec = c
		var f *arch.Fault
		if step {
			f = p.StepOne()
		} else {
			f = p.Run()
		}
		if f == nil || f.Sig != arch.SigIll || f.PC != TextBase {
			t.Fatalf("step=%v: %+v, want SIGILL at %#x", step, f, TextBase)
		}
		if c.n != 1 || p.SimStats().Fallbacks != 1 {
			t.Fatalf("step=%v: %d Decode calls, %+v; want 1 call and 1 fallback", step, c.n, p.SimStats())
		}
	}
}
