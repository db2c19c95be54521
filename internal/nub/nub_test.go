package nub

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/arch/m68k"
	"ldb/internal/arch/mips"
	"ldb/internal/arch/sparc"
	"ldb/internal/arch/vax"
	"ldb/internal/machine"
)

// countingWriter counts the Write calls that deliver its bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestProtocolRoundTripProperty(t *testing.T) {
	// The paper's protocol was validated with a model checker [13];
	// here the codec is checked by exhaustive property testing, along
	// with the byte layout and that each message takes one Write.
	f := func(kind uint8, space byte, size, addr uint32, val uint64, code, sig int32, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		in := &Msg{Kind: MsgKind(kind), Space: space, Size: size, Addr: addr, Val: val, Code: code, Sig: sig, Data: data}
		var buf countingWriter
		if err := WriteMsg(&buf, in); err != nil || buf.writes != 1 {
			return false
		}
		// The layout, field by field: header, payload length, payload.
		want := []byte{byte(kind), space}
		want = binary.LittleEndian.AppendUint32(want, size)
		want = binary.LittleEndian.AppendUint32(want, addr)
		want = binary.LittleEndian.AppendUint64(want, val)
		want = binary.LittleEndian.AppendUint32(want, uint32(code))
		want = binary.LittleEndian.AppendUint32(want, uint32(sig))
		want = append(want, 0)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(data)))
		if !bytes.Equal(buf.Bytes(), append(want, data...)) {
			return false
		}
		out, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		if out.Kind != in.Kind || out.Space != in.Space || out.Size != in.Size ||
			out.Addr != in.Addr || out.Val != in.Val || out.Code != in.Code || out.Sig != in.Sig {
			return false
		}
		if len(out.Data) != len(in.Data) {
			return len(in.Data) == 0 && len(out.Data) == 0
		}
		return bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolIsLittleEndianOnTheWire(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Kind: MFetchInt, Addr: 0x11223344, Size: 4}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Addr begins at byte 6 and must be little-endian.
	if b[6] != 0x44 || b[7] != 0x33 || b[8] != 0x22 || b[9] != 0x11 {
		t.Fatalf("address bytes on the wire: % x", b[6:10])
	}
}

// testProgram assembles, for the given architecture: pause; store 42 to
// DataBase; trap 3; exit(7).
func testProgram(t *testing.T, a arch.Arch) []byte {
	t.Helper()
	switch m := a.(type) {
	case *mips.Mips:
		as := mips.NewAsm(m)
		as.Break(arch.TrapPause)
		as.LI(mips.T0, int32(machine.DataBase))
		as.LI(mips.T0+1, 42)
		as.I(mips.OpSw, mips.T0+1, mips.T0, 0)
		as.Break(3)
		as.LI(mips.V0, arch.SysExit)
		as.LI(mips.A0, 7)
		as.Syscall()
		code, _, err := as.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return code
	case *sparc.Sparc:
		as := sparc.NewAsm()
		as.Trap(arch.TrapPause)
		as.LI(1, int32(machine.DataBase))
		as.LI(2, 42)
		as.Store(sparc.Op3St, 2, 1, 0)
		as.Trap(3)
		as.LI(sparc.G1, arch.SysExit)
		as.LI(sparc.O0, 7)
		as.Trap(1)
		code, _, err := as.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return code
	case *m68k.M68k:
		as := m68k.NewAsm()
		as.Trap(14)
		as.MoveImm(m68k.A0, int32(machine.DataBase))
		as.MoveImm(m68k.D2, 42)
		as.Mem(m68k.MvStoreL, m68k.D2, m68k.A0, 0)
		as.Trap(3)
		as.MoveImm(m68k.D1, arch.SysExit)
		as.MoveImm(m68k.D2, 7)
		as.Trap(1)
		code, _, err := as.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return code
	case *vax.Vax:
		as := vax.NewAsm()
		as.Chmk(arch.TrapPause)
		as.Op(vax.OpMovl, vax.ImmL(machine.DataBase), vax.Rn(2))
		as.Op(vax.OpMovl, vax.ImmL(42), vax.Disp(2, 0))
		as.Bpt()
		as.MoveImm(vax.R1, 7)
		as.Chmk(arch.SysExit)
		code, _, err := as.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	t.Fatalf("no test program for %s", a.Name())
	return nil
}

var allArches = []arch.Arch{mips.Little, mips.Big, sparc.Target, m68k.Target, vax.Target}

func TestFullSessionAllTargets(t *testing.T) {
	for _, a := range allArches {
		t.Run(a.Name(), func(t *testing.T) {
			code := testProgram(t, a)
			c, n, p, err := Launch(a, code, make([]byte, 64), machine.TextBase)
			if err != nil {
				t.Fatal(err)
			}
			if c.ArchName != a.Name() {
				t.Fatalf("welcome arch = %q", c.ArchName)
			}
			// First event: the pause trap before main.
			if c.Last.Exited || c.Last.Sig != arch.SigTrap || c.Last.Code != arch.TrapPause {
				t.Fatalf("first event = %v", c.Last)
			}
			// The context holds the (already advanced) pc.
			l := a.Context()
			pcInCtx, err := c.FetchInt(amem.Data, n.CtxAddr()+uint32(l.PCOff), 4)
			if err != nil {
				t.Fatal(err)
			}
			if uint32(pcInCtx) <= c.Last.PC {
				t.Fatalf("context pc %#x not past pause at %#x", pcInCtx, c.Last.PC)
			}
			// Continue to the embedded trap.
			ev, err := c.Continue()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Exited || ev.Sig != arch.SigTrap {
				t.Fatalf("second event = %v", ev)
			}
			// The store before the trap is visible through the wire.
			v, err := c.FetchInt(amem.Data, machine.DataBase, 4)
			if err != nil {
				t.Fatal(err)
			}
			if v != 42 {
				t.Fatalf("fetched %d, want 42", v)
			}
			// Store through the wire, read back.
			if err := c.StoreInt(amem.Data, machine.DataBase+8, 2, 0xbeef); err != nil {
				t.Fatal(err)
			}
			v, err = c.FetchInt(amem.Data, machine.DataBase+8, 2)
			if err != nil || v != 0xbeef {
				t.Fatalf("store/fetch = %#x, %v", v, err)
			}
			// Resume past the trap (ldb's job): bump the context pc.
			pcNow, _ := c.FetchInt(amem.Data, n.CtxAddr()+uint32(l.PCOff), 4)
			adv := uint64(1)
			switch a.Name() {
			case "mips", "mipsbe", "sparc":
				adv = 4
			case "m68k":
				adv = 2
			}
			if err := c.StoreInt(amem.Data, n.CtxAddr()+uint32(l.PCOff), 4, pcNow+adv); err != nil {
				t.Fatal(err)
			}
			ev, err = c.Continue()
			if err != nil {
				t.Fatal(err)
			}
			if !ev.Exited || ev.Status != 7 {
				t.Fatalf("final event = %v, want exited(7)", ev)
			}
			if p.State != machine.StateExited {
				t.Fatalf("process state = %v", p.State)
			}
		})
	}
}

func TestRegisterAssignmentThroughContext(t *testing.T) {
	// Writing a register's context slot changes the register when the
	// nub restores the context on continue (§4.1's assignment path).
	a := mips.Little
	as := mips.NewAsm(a)
	as.Break(arch.TrapPause)
	// exit(t0): whatever is in t0 becomes the exit status.
	as.LI(mips.V0, arch.SysExit)
	as.R(mips.FnAddu, mips.A0, mips.T0, 0)
	as.Syscall()
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, n, _, err := Launch(a, code, nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	l := a.Context()
	slot := n.CtxAddr() + uint32(l.RegOffs[mips.T0])
	if err := c.StoreInt(amem.Data, slot, 4, 99); err != nil {
		t.Fatal(err)
	}
	ev, err := c.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Exited || ev.Status != 99 {
		t.Fatalf("event = %v, want exited(99)", ev)
	}
}

func TestMipsBigEndianFloatQuirk(t *testing.T) {
	// §4.3 footnote: on a big-endian MIPS the kernel saves floating
	// registers least significant word first. The raw context bytes
	// show the swap; the nub's FetchFloat compensates.
	a := mips.Big
	as := mips.NewAsm(a)
	as.LI(mips.T0, 1)
	as.Mtc1(mips.T0, 2) // f2 = 1.0
	as.Break(arch.TrapPause)
	as.LI(mips.V0, arch.SysExit)
	as.LI(mips.A0, 0)
	as.Syscall()
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, n, _, err := Launch(a, code, nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	l := a.Context()
	slot := n.CtxAddr() + uint32(l.FRegOffs[2])
	v, err := c.FetchFloat(amem.Data, slot, 8)
	if err != nil || v != 1.0 {
		t.Fatalf("quirk-corrected fetch = %g, %v", v, err)
	}
	raw, err := c.FetchBytes(amem.Data, slot, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Big-endian 1.0 is 3f f0 00 ... ; word-swapped, the 3f f0 appears
	// in the second word.
	if raw[4] != 0x3f || raw[5] != 0xf0 {
		t.Fatalf("raw context bytes not word-swapped: % x", raw)
	}
	// The little-endian MIPS must NOT swap.
	al := mips.Little
	asl := mips.NewAsm(al)
	asl.LI(mips.T0, 1)
	asl.Mtc1(mips.T0, 2)
	asl.Break(arch.TrapPause)
	code, _, _ = asl.Finish()
	cl, nl, _, err := Launch(al, code, nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	slotL := nl.CtxAddr() + uint32(al.Context().FRegOffs[2])
	vl, err := cl.FetchFloat(amem.Data, slotL, 8)
	if err != nil || vl != 1.0 {
		t.Fatalf("little-endian fetch = %g, %v", vl, err)
	}
	rawL, _ := cl.FetchBytes(amem.Data, slotL, 8)
	if rawL[6] != 0xf0 || rawL[7] != 0x3f {
		t.Fatalf("little-endian double bytes: % x", rawL)
	}
}

func TestDetachAndReconnectPreservesState(t *testing.T) {
	// "Normally, when a connection is broken, even by a debugger crash,
	// the nub preserves the state of the target program and waits for a
	// new connection from another instance of ldb."
	a := mips.Little
	code := testProgram(t, a)
	p := machine.New(a, code, make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewService()
	s.SetLegacyTarget(n)
	go s.ServeListener(l)

	c1, conn1, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if c1.Last.Code != arch.TrapPause {
		t.Fatalf("first event: %v", c1.Last)
	}
	if err := c1.StoreInt(amem.Data, machine.DataBase+16, 4, 0xabcd); err != nil {
		t.Fatal(err)
	}
	if err := c1.Detach(); err != nil {
		t.Fatal(err)
	}
	conn1.Close()

	// A second debugger connects and sees the same stopped state.
	c2, conn2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if c2.Last.Code != arch.TrapPause {
		t.Fatalf("replayed event: %v", c2.Last)
	}
	v, err := c2.FetchInt(amem.Data, machine.DataBase+16, 4)
	if err != nil || v != 0xabcd {
		t.Fatalf("state not preserved: %#x, %v", v, err)
	}
	if err := c2.Kill(); err != nil {
		t.Fatal(err)
	}
}

func TestAbruptDisconnectPreservesState(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	p := machine.New(a, code, make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewService()
	s.SetLegacyTarget(n)
	go s.ServeListener(l)
	// "Crash": connect and drop without detach.
	c1, conn1, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = c1
	conn1.Close()
	c2, conn2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if c2.Last.Code != arch.TrapPause {
		t.Fatalf("event after crash: %v", c2.Last)
	}
	_ = c2.Kill()
}

func TestFaultyProcessWaitsForDebugger(t *testing.T) {
	// A program that is not being debugged runs free, faults, and then
	// waits for a connection: the nub catches unexpected faults; the
	// target need not be a child of the debugger (§4.2).
	a := mips.Little
	as := mips.NewAsm(a)
	as.Break(arch.TrapPause) // ignored by RunFree
	as.LI(mips.T0, 0x10)     // wild pointer
	as.I(mips.OpLw, mips.T0+1, mips.T0, 0)
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p := machine.New(a, code, nil, machine.TextBase)
	n := New(p)
	n.RunFree()
	c, err := Pair(n)
	if err != nil {
		t.Fatal(err)
	}
	if c.Last.Exited || c.Last.Sig != arch.SigSegv {
		t.Fatalf("event = %v, want SIGSEGV", c.Last)
	}
}

func TestWireMemory(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	w := &Wire{C: c}
	if err := w.StoreInt(amem.Abs(amem.Data, machine.DataBase+4), 4, 0x1234); err != nil {
		t.Fatal(err)
	}
	v, err := w.FetchInt(amem.Abs(amem.Data, machine.DataBase+4), 4)
	if err != nil || v != 0x1234 {
		t.Fatalf("wire int = %#x, %v", v, err)
	}
	if err := w.StoreFloat(amem.Abs(amem.Data, machine.DataBase+24), 8, 2.5); err != nil {
		t.Fatal(err)
	}
	fv, err := w.FetchFloat(amem.Abs(amem.Data, machine.DataBase+24), 8)
	if err != nil || fv != 2.5 {
		t.Fatalf("wire float = %g, %v", fv, err)
	}
	// Immediate fetches never reach the nub.
	v, err = w.FetchInt(amem.Imm(77), 4)
	if err != nil || v != 77 {
		t.Fatalf("imm = %d, %v", v, err)
	}
	// Register spaces are not served by the wire.
	if _, err := w.FetchInt(amem.Abs(amem.Reg, 1), 4); err == nil {
		t.Fatal("register space over the wire must fail")
	}
	// Errors from the nub surface as errors, and the connection keeps
	// working afterward.
	if _, err := w.FetchInt(amem.Abs(amem.Data, 0x10), 4); err == nil {
		t.Fatal("wild fetch must fail")
	}
	v, err = w.FetchInt(amem.Abs(amem.Data, machine.DataBase+4), 4)
	if err != nil || v != 0x1234 {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestCodeSpaceStores(t *testing.T) {
	// Planting a breakpoint is a store into the code space — the only
	// mechanism breakpoints need (§6).
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := c.FetchInt(amem.Code, machine.TextBase+4, 4)
	if err != nil {
		t.Fatal(err)
	}
	brk := a.BreakInstr()
	if err := c.StoreBytes(amem.Code, machine.TextBase+4, brk); err != nil {
		t.Fatal(err)
	}
	patched, _ := c.FetchInt(amem.Code, machine.TextBase+4, 4)
	if patched == orig {
		t.Fatal("store to code space had no effect")
	}
}

func TestDebugStrings(t *testing.T) {
	// The diagnostic renderings used in failure messages and traces.
	e := &Event{Sig: arch.SigTrap, Code: arch.TrapBreakpoint, PC: 0x400010}
	if s := e.String(); !strings.Contains(s, "pc=0x400010") {
		t.Errorf("event = %q", s)
	}
	e = &Event{Exited: true, Status: 3}
	if e.String() != "exited(3)" {
		t.Errorf("exited event = %q", e.String())
	}
	for k := MHello; k <= MPlanted; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "?") {
			t.Errorf("MsgKind %d has no name", int(k))
		}
	}
	if MsgKind(200).String() == MHello.String() {
		t.Error("unknown kind aliases hello")
	}
}
