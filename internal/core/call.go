package core

import (
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/ps"
	"ldb/internal/symtab"
)

// callConv describes, as machine-dependent data, how ldb synthesizes a
// procedure call in a stopped target (§7.1's future work: "expressions
// that include procedure calls"). The machine-independent caller below
// needs only these three items per target — the same design as the
// four items of breakpoint data (§3).
type callConv struct {
	// RetOnStack says the return address is pushed at the new sp (the
	// 68020's jsr and the VAX's jsb); otherwise it goes in the link
	// register.
	RetOnStack bool
	// LinkAdjust is subtracted from the return address placed in the
	// link register (the SPARC returns with jmpl %o7+4).
	LinkAdjust int64
	// ArgBase is the offset from the new sp to the first argument word.
	ArgBase int64
}

var callConvs = map[string]callConv{
	"mips":   {},
	"mipsbe": {},
	"sparc":  {LinkAdjust: 4},
	"m68k":   {RetOnStack: true, ArgBase: 4},
	"vax":    {RetOnStack: true, ArgBase: 4},
}

// scratchBytes is how far below the current sp the synthetic frame is
// built, clearing anything the stopped procedure may address below its
// own sp (the MIPS outgoing-argument area is at sp+0).
const scratchBytes = 256

// CallProc calls a procedure in the target process and returns its
// result — the §7.1 extension the paper's prototype lacked. The target
// must be stopped. Arguments must be word-sized integers (ints,
// pointers as addresses); the return value follows the procedure's
// declared type: an integer, a real, or null for void.
//
// The call runs on a scratch stack below the stopped frame, returns to
// a temporary trap at the current pc, and the entire context record is
// restored afterward, so the interrupted session resumes exactly where
// it was. If the called procedure hits a user breakpoint or faults, the
// call is abandoned, the state is restored, and an error reports the
// stop.
func (t *Target) CallProc(name string, args ...int64) (ps.Object, error) {
	if t.Exited {
		return ps.Object{}, fmt.Errorf("core: %s has exited", t.Name)
	}
	if !t.Stopped() {
		return ps.Object{}, fmt.Errorf("core: target is not stopped")
	}
	conv, ok := callConvs[t.Arch.Name()]
	if !ok {
		return ps.Object{}, fmt.Errorf("core: no call convention for %s", t.Arch.Name())
	}
	if t.Degraded() {
		return ps.Object{}, ErrNoSymbols
	}
	e, entryName, ok := t.Table.ProcEntryByName(name)
	if !ok {
		return ps.Object{}, fmt.Errorf("core: no procedure %q", name)
	}
	addr, err := t.procAddr(e)
	if err != nil {
		return ps.Object{}, err
	}
	if n, err := t.checkFormals(entryName, len(args)); err != nil {
		return ps.Object{}, err
	} else if n != len(args) {
		return ps.Object{}, fmt.Errorf("core: %s takes %d arguments, got %d", name, n, len(args))
	}
	retKind, err := t.returnKind(e)
	if err != nil {
		return ps.Object{}, err
	}

	layout := t.Arch.Context()
	ctx := t.FInfo.Ctx
	c := t.Client

	// Snapshot the complete context record; restoring it afterward puts
	// every register — pc, sp, flags, floats — back.
	saved, err := c.FetchBytes(amem.Data, ctx, layout.Size)
	if err != nil {
		return ps.Object{}, err
	}
	pc64, err := c.FetchInt(amem.Data, ctx+uint32(layout.PCOff), 4)
	if err != nil {
		return ps.Object{}, err
	}
	sp64, err := c.FetchInt(amem.Data, ctx+uint32(layout.RegOffs[t.Arch.SPReg()]), 4)
	if err != nil {
		return ps.Object{}, err
	}
	retAddr, sp := uint32(pc64), uint32(sp64)

	// The callee returns to the current pc, where a trap awaits. If a
	// breakpoint is already planted there the trap exists; otherwise a
	// temporary one is stored directly (and removed afterward).
	trap := t.Arch.BreakInstr()
	oldInstr, err := c.FetchBytes(amem.Code, retAddr, len(trap))
	if err != nil {
		return ps.Object{}, err
	}
	planted := string(oldInstr) == string(trap)
	if !planted {
		if err := c.StoreBytes(amem.Code, retAddr, trap); err != nil {
			return ps.Object{}, err
		}
	}
	curFrame := t.CurFrame
	restore := func() error {
		if !planted {
			if err := c.StoreBytes(amem.Code, retAddr, oldInstr); err != nil {
				return err
			}
		}
		if err := c.StoreBytes(amem.Data, ctx, saved); err != nil {
			return err
		}
		if err := t.Refresh(); err != nil {
			return err
		}
		if curFrame > 0 {
			// Keep the user's selected frame (an expression may combine a
			// call with locals of an outer frame).
			return t.SelectFrame(curFrame)
		}
		return nil
	}

	// Build the synthetic frame on scratch stack below the stopped one.
	newSP := (sp - scratchBytes - uint32(4*len(args)+8)) &^ 7
	if conv.RetOnStack {
		if err := c.StoreInt(amem.Data, newSP, 4, uint64(retAddr)); err != nil {
			return ps.Object{}, err
		}
	}
	for i, a := range args {
		off := newSP + uint32(conv.ArgBase) + uint32(4*i)
		if err := c.StoreInt(amem.Data, off, 4, uint64(uint32(a))); err != nil {
			return ps.Object{}, err
		}
	}
	// The context stores go out in a fixed order: they ride the wire
	// one request each, and the deterministic fault injector schedules
	// drops by byte count — request order must not vary between runs
	// (this was a map until the detstate analyzer flagged the range).
	stores := []struct {
		off int
		val uint64
	}{
		{layout.PCOff, uint64(addr)},
		{layout.RegOffs[t.Arch.SPReg()], uint64(newSP)},
	}
	if !conv.RetOnStack {
		stores = append(stores, struct {
			off int
			val uint64
		}{layout.RegOffs[t.Arch.LinkReg()], uint64(retAddr - uint32(conv.LinkAdjust))})
	}
	for _, st := range stores {
		if err := c.StoreInt(amem.Data, ctx+uint32(st.off), 4, st.val); err != nil {
			return ps.Object{}, err
		}
	}

	ev, err := c.Continue()
	if err != nil {
		return ps.Object{}, err
	}
	if ev.Exited {
		t.Exited, t.ExitStatus = true, ev.Status
		t.stopExprServer()
		return ps.Object{}, fmt.Errorf("core: target exited with status %d during call", ev.Status)
	}
	// A genuine return traps at the return address with the synthetic
	// frame popped (sp back at or above newSP). A stop anywhere else —
	// including at a user breakpoint that happens to share the return
	// address because the callee re-entered the interrupted procedure —
	// leaves the callee's frame below newSP and aborts the call.
	returned := (t.Bpts.IsBreakpointSignal(ev) || isStopTrap(ev)) && ev.PC == retAddr
	if returned {
		spAfter, err := c.FetchInt(amem.Data, ctx+uint32(layout.RegOffs[t.Arch.SPReg()]), 4)
		if err != nil {
			return ps.Object{}, err
		}
		returned = uint32(spAfter) >= newSP
	}
	if !returned {
		stop := fmt.Errorf("core: %s stopped at %v instead of returning", name, ev)
		if rerr := restore(); rerr != nil {
			return ps.Object{}, fmt.Errorf("%v; restore failed: %v", stop, rerr)
		}
		return ps.Object{}, stop
	}

	// Read the result out of the freshly saved context, then restore.
	var result ps.Object
	switch retKind {
	case "void":
		result = ps.Null()
	case "float":
		v, err := t.readCtxFloat(ctx, layout)
		if err != nil {
			result = ps.Object{}
		} else {
			result = ps.Real(v)
		}
	default:
		v, err := c.FetchInt(amem.Data, ctx+uint32(layout.RegOffs[t.Arch.RetReg()]), 4)
		if err != nil {
			result = ps.Object{}
		} else {
			result = ps.Int(amem.SignExtend(v, 4))
		}
	}
	if err := restore(); err != nil {
		return ps.Object{}, err
	}
	return result, nil
}

// CallInt calls a procedure expecting an integer result.
func (t *Target) CallInt(name string, args ...int64) (int64, error) {
	o, err := t.CallProc(name, args...)
	if err != nil {
		return 0, err
	}
	if o.Kind != ps.KInt {
		return 0, fmt.Errorf("core: %s returned %s", name, o.TypeName())
	}
	return o.I, nil
}

// procAddr resolves a procedure entry's code address via its where
// procedure ({ (label) GlobalCode }) and the loader table, or from the
// realized location if the where has already been memoized (§5).
func (t *Target) procAddr(e symtab.Entry) (uint32, error) {
	w, ok := t.whereOf(e.D)
	switch {
	case ok && w.Kind == ps.KArray && len(w.A.E) == 2 &&
		isName(w.A.E[1], "GlobalCode") && w.A.E[0].Kind == ps.KString:
		if t.Table != nil {
			if a, err := t.Table.GlobalAddr(w.A.E[0].S); err == nil {
				return a, nil
			}
		}
		return 0, fmt.Errorf("core: %s not in the loader table", w.A.E[0].S)
	case ok && w.Kind == ps.KExt:
		if lx, ok := w.X.(*LocExt); ok && lx.Loc.Space == amem.Code && lx.Loc.Mode == amem.Absolute {
			return uint32(lx.Loc.Offset), nil
		}
	}
	return 0, fmt.Errorf("core: entry %s has no code address", e.Name())
}

// checkFormals counts a procedure's parameters (walking the uplink
// chain from the formals reference) and requires each to be one word.
func (t *Target) checkFormals(entryName string, _ int) (int, error) {
	info, err := t.Table.ProcInfo(entryName)
	if err != nil {
		return 0, err
	}
	f, ok := info.GetName("formals")
	if !ok || f.Kind == ps.KNull {
		return 0, nil
	}
	d, err := t.Table.EntryRef(f)
	if err != nil || d == nil {
		return 0, fmt.Errorf("core: bad formals reference: %v", err)
	}
	n := 0
	for e := (symtab.Entry{D: d, T: t.Table}); e.Kind() == "parameter"; {
		if td := e.TypeDict(); td != nil {
			if _, isF := td.GetName("fsize"); isF {
				return 0, fmt.Errorf("core: parameter %s is floating-point (unsupported in calls)", e.Name())
			}
			if sz, ok := td.GetName("size"); ok && sz.I != 4 {
				return 0, fmt.Errorf("core: parameter %s is not one word", e.Name())
			}
		}
		n++
		up, ok := e.Uplink()
		if !ok {
			break
		}
		e = up
	}
	return n, nil
}

// returnKind classifies a procedure's return type from its type
// dictionary: "void", "float", or "int".
func (t *Target) returnKind(e symtab.Entry) (string, error) {
	td := e.TypeDict()
	if td == nil {
		return "int", nil
	}
	bt, ok := td.GetName("&basetype")
	if !ok || bt.Kind != ps.KDict {
		return "int", nil
	}
	if _, ok := bt.D.GetName("fsize"); ok {
		return "float", nil
	}
	if sz, ok := bt.D.GetName("size"); ok && sz.I == 0 {
		return "void", nil
	}
	return "int", nil
}

// readCtxFloat reads floating register 0 from the saved context record,
// honoring the per-target image size and the big-endian MIPS kernel's
// word-swap quirk (§4.3 footnote).
func (t *Target) readCtxFloat(ctx uint32, layout arch.ContextLayout) (float64, error) {
	if len(layout.FRegOffs) == 0 {
		return 0, fmt.Errorf("core: %s saves no floating registers", t.Arch.Name())
	}
	img, err := t.Client.FetchBytes(amem.Data, ctx+uint32(layout.FRegOffs[0]), layout.FRegSize)
	if err != nil {
		return 0, err
	}
	order := t.Arch.Order()
	if layout.FRegSize == 12 {
		return amem.DecodeFloat(order, img, amem.Float80), nil
	}
	if layout.FloatWordSwap {
		for i := 0; i < 4; i++ {
			img[i], img[i+4] = img[i+4], img[i]
		}
	}
	return amem.DecodeFloat(order, img, amem.Float64), nil
}
