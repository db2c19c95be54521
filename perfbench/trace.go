package main

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"time"

	"runtime/metrics"

	"ldb/internal/nub"
)

// This file is the traced mode's layer accounting, taken entirely from
// outside the program at the seams the benchmark owns: the two ends of
// every nub connection (tap), the expression-server pipes
// (core.Target.TraceExprTraffic), the heap allocation counter, and the
// nub's SimStats and ServiceStats reports.
//
// For each command the wall time splits into
//
//	core self    = wall - wire wait - expression-server wait
//	expr wait    = expression written .. server's last PostScript line,
//	               less the wire wait inside that interval
//	wire transit = wire wait - nub serve - machine run
//	nub serve    = server busy time on requests that do not run the target
//	machine run  = server busy time on requests that do (continue, step,
//	               open session, and the first run to the startup stop)
//
// The identity holds by construction except where a part would be
// negative; those are counted as zero, so a coverage above 100% shows
// server work the client did not wait for, or waits counted twice.

// machineCmds are the commands that run the target.
var machineCmds = map[string]bool{"attach": true, "continue": true, "step": true, "exit": true}

// runningKind reports whether serving a request of this kind runs the
// simulated target.
func runningKind(k nub.MsgKind) bool {
	switch k {
	case nub.MContinue, nub.MStepInst, nub.MOpenSession, nub.MAttachSession:
		return true
	default:
		return false
	}
}

// kindStart marks a server connection that has not read a request
// yet: its first busy interval is the run to the target's first stop.
const kindStart = nub.MContinue

// sessTrace is one traced session's accounting. The fields above mu
// belong to the debugger goroutine; the server side of the connection
// adds its busy time under mu, attributed to the current command.
type sessTrace struct {
	alloc0   uint64
	wire     wireCount // client side, cumulative
	wire0    wireCount // at the command's start
	simCalls int64     // SimStats requests the trace itself sent

	exprStart, exprLast     time.Time
	exprWire0, exprLastWire time.Duration
	exprWait                time.Duration
	psBytes                 int64

	// mu is a leaf: taken from inside the nub's and the service's
	// locked regions (a tapped connection's Write), never around them.
	mu         sync.Mutex //ldb:lock perfbench.trace 90
	label      string     // command the server's busy time belongs to
	serve, run time.Duration
}

type wireCount struct {
	roundTrips, bytes int64
	wait              time.Duration
}

func (t *sessTrace) begin(cmd string, allocs []metrics.Sample) {
	t.wire0 = t.wire
	t.exprStart, t.exprWait, t.psBytes = time.Time{}, 0, 0
	t.mu.Lock()
	t.label, t.serve, t.run = cmd, 0, 0
	t.mu.Unlock()
	metrics.Read(allocs)
	t.alloc0 = allocs[0].Value.Uint64()
}

func (t *sessTrace) end(lay *layerSums, cmd string, wall time.Duration, allocs []metrics.Sample) {
	metrics.Read(allocs)
	alloc := allocs[0].Value.Uint64() - t.alloc0
	t.mu.Lock()
	serve, run := t.serve, t.run
	t.label = ""
	t.mu.Unlock()
	t.closeExpr()
	lay.add(cmd, partSample{
		wall: wall, wireWait: t.wire.wait - t.wire0.wait, exprWait: t.exprWait,
		serve: serve, run: run, alloc: alloc,
		roundTrips: t.wire.roundTrips - t.wire0.roundTrips,
		bytes:      t.wire.bytes - t.wire0.bytes,
		psBytes:    t.psBytes,
	})
}

// exprTraffic observes the expression-server pipes. It runs on the
// debugger goroutine: the write of a request and each read of the
// server's PostScript happen inside Eval.
func (t *sessTrace) exprTraffic(dir, line string) {
	now := time.Now()
	if strings.HasPrefix(dir, "ldb") {
		if strings.HasPrefix(line, "expr ") {
			t.closeExpr()
			t.exprStart, t.exprWire0 = now, t.wire.wait
		}
		return
	}
	t.psBytes += int64(len(line))
	t.exprLast, t.exprLastWire = now, t.wire.wait
}

// closeExpr adds the finished expression's wait.
func (t *sessTrace) closeExpr() {
	if t.exprStart.IsZero() || t.exprLast.Before(t.exprStart) {
		t.exprStart = time.Time{}
		return
	}
	t.exprWait += t.exprLast.Sub(t.exprStart) - (t.exprLastWire - t.exprWire0)
	t.exprStart = time.Time{}
}

// serverBusy adds busy time from the server side of the connection.
func (t *sessTrace) serverBusy(d time.Duration, running bool) {
	t.mu.Lock()
	if t.label != "" {
		if running {
			t.run += d
		} else {
			t.serve += d
		}
	}
	t.mu.Unlock()
}

// clientTap is the debugger's end of a nub connection in a traced
// session. It counts bytes, round trips (a read that follows a write
// starts a reply) and the time the debugger is blocked on the wire.
// Only the debugger goroutine uses it.
type clientTap struct {
	net.Conn
	tr      *sessTrace
	written bool
}

func (c *clientTap) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.tr.wire.wait += time.Since(t0)
	c.tr.wire.bytes += int64(n)
	if c.written {
		c.tr.wire.roundTrips++
		c.written = false
	}
	return n, err
}

func (c *clientTap) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.tr.wire.wait += time.Since(t0)
	c.tr.wire.bytes += int64(n)
	c.written = true
	return n, err
}

// serverTap is the nub's (or the debug service's) end of a connection.
// The server is busy from the end of one I/O call to the start of a
// write: decoding and handling the request just read, or running the
// target before announcing an event. The busy interval is classed by
// the kind of the last request read. Only the serving goroutine uses
// a serverTap; it reports to its session's trace under the trace's
// lock.
type serverTap struct {
	net.Conn
	resolve func() *sessTrace // nil result: not a traced session (yet)
	tr      *sessTrace
	last    time.Time
	kind    nub.MsgKind
	frames  frameScanner
}

func newServerTap(c net.Conn, resolve func() *sessTrace) *serverTap {
	return &serverTap{Conn: c, resolve: resolve, last: time.Now(), kind: kindStart}
}

func (s *serverTap) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if k, ok := s.frames.feed(p[:n]); ok {
		s.kind = k
	}
	s.last = time.Now()
	return n, err
}

func (s *serverTap) Write(p []byte) (int, error) {
	if s.tr == nil {
		s.tr = s.resolve()
	}
	if s.tr != nil {
		s.tr.serverBusy(time.Since(s.last), runningKind(s.kind))
	}
	n, err := s.Conn.Write(p)
	s.last = time.Now()
	return n, err
}

// frameScanner follows the nub's message framing (a 27-byte header
// whose first byte is the kind, a 4-byte little-endian payload length,
// the payload) across reads, reporting the kind of the last message
// whose header completed.
type frameScanner struct {
	hdr     [31]byte
	got     int
	payload int
}

func (f *frameScanner) feed(p []byte) (kind nub.MsgKind, ok bool) {
	for len(p) > 0 {
		if f.payload > 0 {
			k := min(f.payload, len(p))
			f.payload -= k
			p = p[k:]
			continue
		}
		k := copy(f.hdr[f.got:], p)
		f.got += k
		p = p[k:]
		if f.got == len(f.hdr) {
			kind, ok = nub.MsgKind(f.hdr[0]), true
			f.payload = int(binary.LittleEndian.Uint32(f.hdr[27:])) //ldb:allow endian the nub wire format's length field is little-endian on every host
			f.got = 0
		}
	}
	return kind, ok
}

// tapPipe returns the two ends of an in-memory nub connection, tapped
// when tr is not nil.
func tapPipe(tr *sessTrace) (debugger, server net.Conn) {
	a, b := net.Pipe()
	if tr == nil {
		return a, b
	}
	return &clientTap{Conn: a, tr: tr}, newServerTap(b, func() *sessTrace { return tr })
}

// tapListener hands the debug service server-side taps. A connection
// belongs to the traced session that registered the client end's local
// address; connections nobody registers are passed through untimed.
type tapListener struct {
	net.Listener
	traces sync.Map // client local address -> *sessTrace
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	key := c.RemoteAddr().String()
	return newServerTap(c, func() *sessTrace {
		if v, ok := l.traces.Load(key); ok {
			return v.(*sessTrace)
		}
		return nil
	}), nil
}
