package driver

import (
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

// The fault-injection soak: the full debug script from the wire
// differential test runs over a real TCP connection that a seeded
// injector keeps killing — dropping the connection mid-message,
// truncating writes, splitting writes into short chunks, and delaying
// reads. The client's deadlines, reconnection, and replay machinery
// must hide every fault: the transcript has to come out byte-identical
// to a clean in-memory run, on every architecture.
//
// The injector's drops are gated on Client.Replayable, so faults land
// only in windows the client can recover transparently — which is the
// contract's whole point: inside those windows, NO failure may leak to
// the debugger.

// soakTranscript runs the script over a faulty TCP wire and reports
// the transcript plus how many reconnects the faults forced.
func soakTranscript(t *testing.T, archName string, seed int64) (string, nub.StatsSnapshot) {
	t.Helper()
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Build([]Source{{Name: "fib.c", Text: wireFibC}}, Options{Arch: archName, Debug: true})
	if err != nil {
		t.Fatalf("%s: build: %v", archName, err)
	}

	// A real nub on a real TCP listener, accepting one debugger at a
	// time — the deployment shape from §4.2, where the connection can
	// actually die.
	proc := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	n := nub.New(proc)
	n.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := nub.NewService()
	srv.SetLegacyTarget(n)
	go srv.ServeListener(l)

	inj := faultrw.New(seed, faultrw.Config{
		DropEvery:      1500,
		TruncateWrites: true,
		ChunkWrites:    true,
		Delay:          100 * time.Microsecond,
		DelayEvery:     4096,
	})
	dial := func() (io.ReadWriter, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return inj.Wrap(conn), nil
	}
	rw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := nub.Connect(rw)
	if err != nil {
		t.Fatalf("%s: connect: %v", archName, err)
	}
	inj.SetGate(client.Replayable)
	client.SetRedial(dial)
	client.SetTimeout(2 * time.Second)
	client.SetRetries(8)

	tgt, err := d.AttachClient(archName+":fib.c", client, prog.LoaderPS)
	if err != nil {
		t.Fatalf("%s: attach: %v", archName, err)
	}
	tgt.Stdout = &proc.Stdout
	client.ResetStats()
	tr := runWireScript(t, archName, d, tgt, &proc.Stdout)
	return tr, client.Stats()
}

// TestFaultSoakAllTargets: on every architecture, the faulty-wire
// transcript must be byte-identical to the clean run's, and the faults
// must actually have fired (otherwise the test proves nothing).
func TestFaultSoakAllTargets(t *testing.T) {
	var reconnects int64
	for _, a := range allArches {
		t.Run(a, func(t *testing.T) {
			clean, _ := wireTranscript(t, a, true)
			faulty, stats := soakTranscript(t, a, 1992)
			if faulty != clean {
				t.Errorf("faulty-wire transcript diverged:\n-- clean --\n%s\n-- faulty --\n%s", clean, faulty)
			}
			t.Logf("%s: %d reconnects, %d replays, %d timeouts", a, stats.Reconnects, stats.Replays, stats.Timeouts)
			reconnects += stats.Reconnects
		})
	}
	if reconnects == 0 {
		t.Error("no faults fired across the whole soak; the wire was never exercised")
	}
}
