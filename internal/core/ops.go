package core

import (
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/ps"
)

// registerOps installs the debugging types and operators the dialect
// adds to PostScript (§2, §5): abstract memory and location operators,
// the lazy anchor-symbol operators, frame access, and formatting
// helpers used by the printer procedures. The operators live in the
// shared system dictionary, so those that need the debugger find it
// through debuggerOf.
func registerOps(in *ps.Interp) {
	locMaker := func(name string, space amem.Space) {
		in.Register(name, func(in *ps.Interp) (err error) {
			off, err := in.PopInt(name)
			if err != nil {
				return err
			}
			in.Push(LocObj(amem.Abs(space, off)))
			return nil
		})
	}
	locMaker("DLoc", amem.Data)
	locMaker("CLoc", amem.Code)
	locMaker("RLoc", amem.Reg)
	locMaker("FLoc", amem.Float)
	locMaker("XLoc", amem.Extra)

	in.Register("ImmLoc", func(in *ps.Interp) error {
		v, err := in.PopInt("ImmLoc")
		if err != nil {
			return err
		}
		in.Push(LocObj(amem.Imm(uint64(v))))
		return nil
	})

	in.Register("Shifted", func(in *ps.Interp) error {
		n, err := in.PopInt("Shifted")
		if err != nil {
			return err
		}
		loc, err := popLoc(in, "Shifted")
		if err != nil {
			return err
		}
		in.Push(LocObj(loc.Shifted(n)))
		return nil
	})

	in.Register("LocOffset", func(in *ps.Interp) error {
		loc, err := popLoc(in, "LocOffset")
		if err != nil {
			return err
		}
		if loc.Mode == amem.Immediate {
			in.Push(ps.Int(int64(loc.Imm)))
		} else {
			in.Push(ps.Int(loc.Offset))
		}
		return nil
	})

	fetchInt := func(name string, signed bool) {
		in.Register(name, func(in *ps.Interp) error {
			size, err := in.PopInt(name)
			if err != nil {
				return err
			}
			loc, err := popLoc(in, name)
			if err != nil {
				return err
			}
			mem, err := popMem(in, name)
			if err != nil {
				return err
			}
			v, err := mem.FetchInt(loc, int(size))
			if err != nil {
				return psErr("invalidaccess", err)
			}
			if signed {
				in.Push(ps.Int(amem.SignExtend(v, int(size))))
			} else {
				in.Push(ps.Int(int64(v)))
			}
			return nil
		})
	}
	fetchInt("FetchInt", false)
	fetchInt("FetchSigned", true)

	in.Register("FetchFloat", func(in *ps.Interp) error {
		size, err := in.PopInt("FetchFloat")
		if err != nil {
			return err
		}
		loc, err := popLoc(in, "FetchFloat")
		if err != nil {
			return err
		}
		mem, err := popMem(in, "FetchFloat")
		if err != nil {
			return err
		}
		v, err := mem.FetchFloat(loc, int(size))
		if err != nil {
			return psErr("invalidaccess", err)
		}
		in.Push(ps.Real(v))
		return nil
	})

	in.Register("StoreInt", func(in *ps.Interp) error {
		val, err := in.PopInt("StoreInt")
		if err != nil {
			return err
		}
		size, err := in.PopInt("StoreInt")
		if err != nil {
			return err
		}
		loc, err := popLoc(in, "StoreInt")
		if err != nil {
			return err
		}
		mem, err := popMem(in, "StoreInt")
		if err != nil {
			return err
		}
		if err := mem.StoreInt(loc, int(size), uint64(val)); err != nil {
			return psErr("invalidaccess", err)
		}
		return nil
	})

	in.Register("StoreFloat", func(in *ps.Interp) error {
		v, err := in.PopNum("StoreFloat")
		if err != nil {
			return err
		}
		size, err := in.PopInt("StoreFloat")
		if err != nil {
			return err
		}
		loc, err := popLoc(in, "StoreFloat")
		if err != nil {
			return err
		}
		mem, err := popMem(in, "StoreFloat")
		if err != nil {
			return err
		}
		if err := mem.StoreFloat(loc, int(size), v); err != nil {
			return psErr("invalidaccess", err)
		}
		return nil
	})

	// LazyData fetches a relocated address from the anchor table in the
	// target address space (§2). It needs a connected, stopped target
	// (§7 discusses exactly this).
	lazy := func(name string, space amem.Space) {
		in.Register(name, func(in *ps.Interp) error {
			idx, err := in.PopInt(name)
			if err != nil {
				return err
			}
			anchor, err := in.PopName(name)
			if err != nil {
				return err
			}
			t := debuggerOf(in).cur
			if t == nil || t.Client == nil || t.Table == nil {
				return &ps.Error{Name: "notarget", Cmd: name}
			}
			base, err := t.Table.AnchorAddr(anchor)
			if err != nil {
				return &ps.Error{Name: "undefined", Cmd: name + ": anchor " + anchor}
			}
			t.LazyFetches++
			v, err := t.Client.FetchInt(amem.Data, base+4*uint32(idx), 4)
			if err != nil {
				return psErr("invalidaccess", err)
			}
			in.Push(LocObj(amem.Abs(space, int64(v))))
			return nil
		})
	}
	lazy("LazyData", amem.Data)
	lazy("LazyCode", amem.Code)

	// GlobalData/GlobalCode resolve external symbols through the
	// nm-derived table in the loader table (§3, §7).
	global := func(name string, space amem.Space) {
		in.Register(name, func(in *ps.Interp) error {
			label, err := in.PopName(name)
			if err != nil {
				return err
			}
			t := debuggerOf(in).cur
			if t == nil || t.Table == nil {
				return &ps.Error{Name: "notarget", Cmd: name}
			}
			addr, err := t.Table.GlobalAddr(label)
			if err != nil {
				return &ps.Error{Name: "undefined", Cmd: name + ": " + label}
			}
			in.Push(LocObj(amem.Abs(space, int64(addr))))
			return nil
		})
	}
	global("GlobalData", amem.Data)
	global("GlobalCode", amem.Code)

	// Reg and XReg read registers of the current frame; the
	// machine-dependent per-architecture PostScript uses them to
	// address local variables (§4.3).
	regRead := func(name string, space amem.Space) {
		in.Register(name, func(in *ps.Interp) error {
			n, err := in.PopInt(name)
			if err != nil {
				return err
			}
			f := debuggerOf(in).CurrentFrame()
			if f == nil {
				return &ps.Error{Name: "notarget", Cmd: name}
			}
			v, err := f.Mem.FetchInt(amem.Abs(space, n), 4)
			if err != nil {
				return psErr("invalidaccess", err)
			}
			in.Push(ps.Int(int64(v)))
			return nil
		})
	}
	regRead("Reg", amem.Reg)
	regRead("XReg", amem.Extra)

	in.Register("CurrentMem", func(in *ps.Interp) error {
		f := debuggerOf(in).CurrentFrame()
		if f == nil {
			return &ps.Error{Name: "notarget", Cmd: "CurrentMem"}
		}
		in.Push(MemObj(f.Mem))
		return nil
	})

	in.Register("ProcName", func(in *ps.Interp) error {
		addr, err := in.PopInt("ProcName")
		if err != nil {
			return err
		}
		t := debuggerOf(in).cur
		if t == nil || t.Table == nil {
			in.Push(ps.Str(fmtHex(uint64(addr))))
			return nil
		}
		if p, ok := t.Table.ProcContaining(uint32(addr)); ok && p.Addr == uint32(addr) {
			in.Push(ps.Str(p.Name))
		} else {
			in.Push(ps.Str(fmtHex(uint64(addr))))
		}
		return nil
	})

	in.Register("HexStr", func(in *ps.Interp) error {
		v, err := in.PopInt("HexStr")
		if err != nil {
			return err
		}
		in.Push(ps.Str(fmtHex(uint64(uint32(v)))))
		return nil
	})

	in.Register("CharStr", func(in *ps.Interp) error {
		v, err := in.PopInt("CharStr")
		if err != nil {
			return err
		}
		if v >= 32 && v < 127 {
			in.Push(ps.Str(fmt.Sprintf("'%c'", rune(v))))
		} else {
			in.Push(ps.Str(fmt.Sprintf("'\\%03o'", v&0xff)))
		}
		return nil
	})

	// GetMemo fetches a value from a type dictionary or procedure side
	// dictionary, realizing a deferred /loci or /&fields body through
	// the current target's symbol table: once per table, under the
	// table's realize budget (§5: procedures interpreted at most once
	// are replaced with their results).
	in.Register("GetMemo", func(in *ps.Interp) error {
		key, err := in.PopName("GetMemo")
		if err != nil {
			return err
		}
		dict, err := in.PopDict("GetMemo")
		if err != nil {
			return err
		}
		if _, ok := dict.GetName(key); !ok {
			return &ps.Error{Name: "undefined", Cmd: "GetMemo: " + key}
		}
		t := debuggerOf(in).cur
		if t == nil || t.Table == nil {
			return &ps.Error{Name: "notarget", Cmd: "GetMemo"}
		}
		v, err := t.Table.GetMemo(dict, key)
		if err != nil {
			return err
		}
		in.Push(v)
		return nil
	})
}
