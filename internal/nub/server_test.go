package nub

import (
	"bytes"
	"encoding/hex"
	"flag"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/single_target.golden")

const singleTargetGolden = "testdata/single_target.golden"

// singleTargetScript drives one single-target conversation over conn
// frame by frame and returns every byte the server sent, one hex line
// per reply frame: welcome, pending event, fetch, store, plant,
// list-planted, batch, step-inst, continue, the MOpenSession and
// MServiceStats refusals, and detach. After the detach reply the server
// must send nothing more before closing.
func singleTargetScript(t *testing.T, conn io.ReadWriter, lastInsn uint32) string {
	t.Helper()
	var out strings.Builder
	read := func(what string) {
		var raw bytes.Buffer
		if _, err := ReadMsg(io.TeeReader(conn, &raw)); err != nil {
			t.Fatalf("read %s: %v", what, err)
		}
		out.WriteString(hex.EncodeToString(raw.Bytes()))
		out.WriteByte('\n')
	}
	send := func(m *Msg) {
		if err := WriteMsg(conn, m); err != nil {
			t.Fatalf("write %v: %v", m.Kind, err)
		}
		read(m.Kind.String())
	}
	read("welcome")
	read("pending event")
	send(&Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	send(&Msg{Kind: MStoreInt, Space: byte(amem.Data), Addr: machine.DataBase + 4, Size: 4, Val: 0x1234})
	send(&Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: lastInsn, Size: 4, Data: []byte{0, 0, 0, 0xd}})
	send(&Msg{Kind: MListPlanted})
	batch, err := EncodeBatch(MBatch, []*Msg{
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase + 4, Size: 4},
		{Kind: MFetchBytes, Space: byte(amem.Code), Addr: machine.TextBase, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	send(batch)
	send(&Msg{Kind: MStepInst})
	send(&Msg{Kind: MContinue})
	send(&Msg{Kind: MOpenSession, Data: []byte("mips")})
	send(&Msg{Kind: MServiceStats})
	send(&Msg{Kind: MDetach})
	if rest, _ := io.ReadAll(conn); len(rest) != 0 {
		t.Fatalf("server sent %d bytes after the detach reply", len(rest))
	}
	return out.String()
}

// checkSingleTargetGolden compares a transcript with the golden file.
func checkSingleTargetGolden(t *testing.T, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(singleTargetGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(singleTargetGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("single-target wire traffic differs from %s:\n-- got --\n%s-- want --\n%s", singleTargetGolden, got, want)
	}
}

// goldenNub is the target the single-target script debugs, with the
// address of its last instruction — where the script plants a
// breakpoint the run never reaches.
func goldenNub(t *testing.T) (*Nub, uint32) {
	t.Helper()
	a := allArches[0]
	code := testProgram(t, a)
	n := New(machine.New(a, code, make([]byte, 64), machine.TextBase))
	n.Start()
	return n, machine.TextBase + uint32(len(code)) - 4
}

// TestSingleTargetWireGolden pins the bytes a single-target nub sends,
// served through Nub.Serve over an in-memory pipe.
func TestSingleTargetWireGolden(t *testing.T) {
	srv, cli := net.Pipe()
	done := make(chan error, 1)
	n, last := goldenNub(t)
	go func() {
		done <- n.Serve(srv)
		_ = srv.Close()
	}()
	got := singleTargetScript(t, cli, last)
	_ = cli.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	checkSingleTargetGolden(t, got)
}

// TestSingleTargetServiceWireGolden runs the same script over TCP
// against a service with a legacy target and no registered programs:
// it must be indistinguishable from the plain nub, byte for byte.
func TestSingleTargetServiceWireGolden(t *testing.T) {
	s := NewService()
	n, last := goldenNub(t)
	s.SetLegacyTarget(n)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	defer s.Shutdown()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	checkSingleTargetGolden(t, singleTargetScript(t, conn, last))
}

// TestShutdownAfterFloodDoesNotHang: Shutdown issued while a bound
// connection is flooding requests, after which the peer goes quiet but
// keeps the connection open, must still drain. The hazard is the
// per-frame deadline reset: it can overwrite the expired deadline
// Shutdown just set, parking the connection in an idle read forever.
// Each iteration is bounded by one second; the first hang fails.
func TestShutdownAfterFloodDoesNotHang(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, addr := startService(t, nil)
		c, conn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenSession("mips"); err != nil {
			t.Fatal(err)
		}
		var replies atomic.Int64
		go func() {
			for {
				if _, err := ReadMsg(conn); err != nil {
					return
				}
				replies.Add(1)
			}
		}()
		var hello bytes.Buffer
		_ = WriteMsg(&hello, &Msg{Kind: MHello})
		frame := hello.Bytes()
		wrote := make(chan struct{})
		go func() {
			// Flood until Shutdown has begun, then a few frames more so
			// some are in flight as the deadlines expire, then go quiet
			// with the connection left open.
			defer close(wrote)
			extra := -1
			for extra != 0 {
				if _, err := conn.Write(frame); err != nil {
					return
				}
				if extra > 0 {
					extra--
				} else {
					select {
					case <-s.closeCh:
						extra = 4
					default:
					}
				}
			}
		}()
		for replies.Load() < 100 {
			time.Sleep(100 * time.Microsecond)
		}
		drained := make(chan struct{})
		go func() { s.Shutdown(); close(drained) }()
		<-wrote
		select {
		case <-drained:
		case <-time.After(time.Second):
			_ = conn.Close()
			<-drained
			t.Fatalf("iteration %d: Shutdown hung on a connection that went idle after a flood", i)
		}
		_ = conn.Close()
	}
}

// TestPassivateSpillsToDisk passivates more sessions than the in-memory
// store holds, with a spill directory set: the oldest session survives
// only on disk, resurrects from there with its memory and planted
// breakpoint, and a close deletes its file for good.
func TestPassivateSpillsToDisk(t *testing.T) {
	dir := t.TempDir()
	s, addr := startService(t, func(s *Service) {
		s.MaxSessions = 1
		s.PassivateDir = dir
	})
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	oldest := c.SessionID()
	if err := c.StoreInt(amem.Data, machine.DataBase+8, 4, 0xabcd); err != nil {
		t.Fatal(err)
	}
	bp := uint32(machine.TextBase + 4)
	orig, err := c.FetchBytes(amem.Code, bp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlantStore(bp, orig); err != nil {
		t.Fatal(err)
	}
	// With a pool of one, each open evicts and passivates its
	// predecessor.
	for i := 0; i < DefaultMaxPassivated+1; i++ {
		if _, err := c.OpenSession("mips"); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	inMemory, held := len(s.passive), s.passive[oldest] != nil
	s.mu.Unlock()
	if inMemory != DefaultMaxPassivated || held {
		t.Fatalf("in-memory store holds %d records (oldest present: %v), want %d without the oldest", inMemory, held, DefaultMaxPassivated)
	}
	spill := passivePath(dir, oldest)
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("oldest session not spilled: %v", err)
	}

	if _, err := c.AttachSession(oldest); err != nil {
		t.Fatalf("attach to spilled session: %v", err)
	}
	if v, err := c.FetchInt(amem.Data, machine.DataBase+8, 4); err != nil || v != 0xabcd {
		t.Fatalf("sentinel after resurrection from disk = %#x, %v", v, err)
	}
	pl, err := c.ListPlanted()
	if err != nil || len(pl) != 1 || pl[0].Addr != bp || !bytes.Equal(pl[0].Original, orig) {
		t.Fatalf("planted after resurrection from disk = %v, %v", pl, err)
	}

	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("spill file after close: %v", err)
	}
	if _, err := c.AttachSession(oldest); err == nil || !strings.Contains(err.Error(), "no such session") {
		t.Fatalf("attach after close = %v, want no such session", err)
	}
}
