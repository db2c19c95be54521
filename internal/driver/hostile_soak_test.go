package driver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ldb/internal/core"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/nub/faultrw"
)

// The adversarial soak: a real TCP nub serves a legitimate debug
// session while being harassed — the session's connection is severed
// repeatedly, hostile peers connect between operations and feed the
// server oversize frames, unknown request kinds, raw junk, and
// trickled partial frames, and a server-side fault injector corrupts
// the wire underneath everyone. The legitimate session's transcript
// must come out byte-identical to a clean in-memory run, and the nub's
// robustness counters must show the attacks actually landed.

// hostileListener wraps every accepted connection in a server-side
// fault injector while keeping the net.Conn deadline methods the nub's
// slowloris defence needs.
type hostileListener struct {
	net.Listener
	inj *faultrw.Injector
}

func (l hostileListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &injConn{Conn: c, rw: l.inj.Wrap(c)}, nil
}

// injConn routes Read/Write/Close through the injector but leaves the
// deadline methods on the embedded net.Conn, which is the same
// underlying connection — so injected faults and read deadlines
// compose the way they would on a genuinely bad network.
type injConn struct {
	net.Conn
	rw *faultrw.Conn
}

func (c *injConn) Read(p []byte) (int, error)  { return c.rw.Read(p) }
func (c *injConn) Write(p []byte) (int, error) { return c.rw.Write(p) }
func (c *injConn) Close() error                { return c.rw.Close() }

// frameBytes encodes one wire frame.
func frameBytes(t *testing.T, m *nub.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nub.WriteMsg(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oversizeFrame is a structurally valid header whose payload length
// word claims far more than the server's cap; the server must reply
// MError and close without draining the claimed payload.
func oversizeFrame(t *testing.T) []byte {
	t.Helper()
	b := frameBytes(t, &nub.Msg{Kind: nub.MStoreBytes, Space: 'd', Addr: 16, Data: []byte{1}})
	b = b[:31] // header + length word, no payload
	binary.LittleEndian.PutUint32(b[27:], 0x7fffffff)
	return b
}

// hostileScript drives a fixed debug session — the valid traffic of
// the soak — calling harass() between operations. The clean reference
// run passes a no-op.
func hostileScript(t *testing.T, d *core.Debugger, tgt *core.Target, stdout *bytes.Buffer, harass func()) string {
	t.Helper()
	var tr strings.Builder
	say := func(format string, args ...any) { fmt.Fprintf(&tr, format+"\n", args...) }

	addr, err := tgt.BreakStop("fib", 7)
	if err != nil {
		t.Fatalf("break: %v", err)
	}
	say("break fib@7 at %#x", addr)
	harass()

	ev, err := tgt.ContinueToBreakpoint()
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	say("stopped pc=%#x sig=%v", ev.PC, ev.Sig)
	say("i = %s", wirePrint(t, d, tgt, "i"))
	say("n = %s", wirePrint(t, d, tgt, "n"))
	harass()

	say("a = %s", wirePrint(t, d, tgt, "a"))
	ev, err = tgt.Step()
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	say("step to pc=%#x", ev.PC)
	bt, err := tgt.Backtrace(10)
	if err != nil {
		t.Fatalf("backtrace: %v", err)
	}
	say("backtrace: %s", strings.Join(bt, " <- "))
	harass()

	for _, expr := range []string{"a[i]", "a[i-1] + a[i-2]", "n"} {
		v, err := tgt.EvalInt(expr)
		if err != nil {
			t.Fatalf("eval %q: %v", expr, err)
		}
		say("eval %s = %d", expr, v)
	}
	harass()

	if err := tgt.Bpts.RemoveAll(); err != nil {
		t.Fatalf("clear: %v", err)
	}
	ev, err = tgt.ContinueToBreakpoint()
	if err != nil {
		t.Fatalf("run to exit: %v", err)
	}
	if !ev.Exited {
		t.Fatalf("expected exit, stopped at %#x", ev.PC)
	}
	say("exit=%d output=%q", ev.Status, stdout.String())
	return tr.String()
}

// TestHostileSoak runs the session on a TCP nub under attack and
// requires the transcript to match the clean run byte for byte.
func TestHostileSoak(t *testing.T) {
	// Clean reference run over the in-memory transport.
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Build([]Source{{Name: "fib.c", Text: wireFibC}}, Options{Arch: "mips", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	client, _, proc, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := d.AttachClient("clean:fib.c", client, prog.LoaderPS)
	if err != nil {
		t.Fatal(err)
	}
	tgt.Stdout = &proc.Stdout
	clean := hostileScript(t, d, tgt, &proc.Stdout, func() {})

	// Hostile run: real TCP, server-side fault injection, and harassment
	// between operations.
	d2, err := core.New(&sink)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	n := nub.New(proc2)
	n.Start()
	srv := nub.NewService()
	srv.ReadTimeout = 250 * time.Millisecond
	srv.SetLegacyTarget(n)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	inj := faultrw.New(1992, faultrw.Config{
		DropEvery:      3000,
		TruncateWrites: true,
		ChunkWrites:    true,
	})
	go srv.ServeListener(hostileListener{Listener: inner, inj: inj})
	addr := inner.Addr().String()

	var liveConn net.Conn
	dial := func() (io.ReadWriter, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		liveConn = conn
		return conn, nil
	}
	rw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := nub.Connect(rw)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetGate(c2.Replayable)
	c2.SetRedial(dial)
	c2.SetTimeout(2 * time.Second)
	c2.SetRetries(8)
	tgt2, err := d2.AttachClient("hostile:fib.c", c2, prog.LoaderPS)
	if err != nil {
		t.Fatal(err)
	}
	tgt2.Stdout = &proc2.Stdout
	c2.ResetStats()

	// Each hostile payload ends in a way that makes the server close the
	// connection, so draining to EOF keeps the rounds sequential and
	// deterministic: MError replies then an oversize reject, a junk
	// blast whose length word is astronomical, and a trickled partial
	// frame that must trip the slow-read deadline.
	unknownKinds := append(append(append(
		frameBytes(t, &nub.Msg{Kind: nub.MsgKind(200)}),
		frameBytes(t, &nub.Msg{Kind: nub.MsgKind(251), Addr: 4, Size: 8})...),
		frameBytes(t, &nub.Msg{Kind: nub.MFetchInt, Space: 'z', Addr: 16, Size: 4})...),
		oversizeFrame(t)...)
	junk := bytes.Repeat([]byte{0xff}, 31)
	partial := frameBytes(t, &nub.Msg{Kind: nub.MFetchInt, Space: 'd', Addr: 16, Size: 4})[:9]

	harass := func() {
		// Sever the session's connection: the nub must survive the loss
		// and the client must reattach transparently.
		_ = liveConn.Close()
		for _, payload := range [][]byte{unknownKinds, junk, partial} {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			_, _ = c.Write(payload)
			_, _ = io.Copy(io.Discard, c) // drain until the server drops us
			_ = c.Close()
		}
	}
	hostile := hostileScript(t, d2, tgt2, &proc2.Stdout, harass)

	if hostile != clean {
		t.Errorf("hostile transcript diverged:\n-- clean --\n%s\n-- hostile --\n%s", clean, hostile)
	}
	stats := c2.Stats()
	if stats.Reconnects < 4 {
		t.Errorf("reconnects = %d, want >= 4 (one per harassment round)", stats.Reconnects)
	}
	// The counters live on the nub; read them directly rather than over
	// the now-exited session's wire.
	if v := n.Stats.MalformedFrames.Load(); v == 0 {
		t.Error("no malformed frames counted; the unknown-kind attacks never landed")
	}
	if v := n.Stats.OversizeRejects.Load(); v == 0 {
		t.Error("no oversize rejects counted")
	}
	if v := n.Stats.SlowReads.Load(); v == 0 {
		t.Error("no slow reads counted; the trickled frames never tripped the deadline")
	}
	t.Logf("reconnects=%d replays=%d malformed=%d oversize=%d slow=%d recovered=%d",
		stats.Reconnects, stats.Replays,
		n.Stats.MalformedFrames.Load(), n.Stats.OversizeRejects.Load(),
		n.Stats.SlowReads.Load(), n.Stats.RecoveredPanics.Load())
}
