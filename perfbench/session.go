package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"ldb/internal/core"
	"ldb/internal/nub"
)

// recorder collects the completed sessions of one kind (traced or not)
// and the operation counts.
type recorder struct {
	recs      []sessionRec
	attempted int
	failed    int
}

// sessionRec is one session that ran to exit with every check passing.
type sessionRec struct {
	cfg   int                  // index into configs
	ms    float64              // wall time from startup to exit
	walls map[string][]float64 // ms per command
}

func newRecorder() *recorder { return &recorder{} }

// walls returns every wall time of cmd, in ms.
func (r *recorder) walls(cmd string) []float64 {
	var xs []float64
	for _, rec := range r.recs {
		xs = append(xs, rec.walls[cmd]...)
	}
	return xs
}

// sessions returns every session's wall time, in ms.
func (r *recorder) sessions() []float64 {
	xs := make([]float64, len(r.recs))
	for i, rec := range r.recs {
		xs[i] = rec.ms
	}
	return xs
}

// worker is the closed-loop client's accumulated results.
type worker struct {
	plain, traced *recorder
	lay           *layerSums
	allocs        []metrics.Sample
}

func newWorker() *worker {
	return &worker{
		plain: newRecorder(), traced: newRecorder(), lay: newLayerSums(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (w *worker) newSession(traced bool) *session {
	s := &session{w: w, rec: w.plain, start: time.Now(), ok: true, walls: map[string][]float64{}}
	if traced {
		s.rec = w.traced
		s.tr = &sessTrace{}
	}
	return s
}

// logged bounds the diagnostics printed for failed operations.
var logged atomic.Int64

func logf(format string, args ...any) {
	if logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// session is one scripted debug session: a fresh debugger, one target,
// and the commands of the workload's script. A command that fails ends
// the session.
type session struct {
	w     *worker
	rec   *recorder
	tr    *sessTrace // nil when the session is not traced
	cfg   int        // the target's configuration, an index into configs
	start time.Time
	end   time.Time // when the last command returned
	ok    bool      // every command so far succeeded and checked out
	// exited is set by the script when the target ran to exit.
	exited bool
	walls  map[string][]float64 // ms per command

	d   *core.Debugger
	out bytes.Buffer // the debugger's output: what print writes
	tgt *core.Target
	// sim is the last SimStats reading of a traced session.
	sim nub.SimStatsReport
}

// cmd runs one command of the script under the wall clock (and, in a
// traced session, the layer accounting). It reports whether the
// command succeeded; after a failure it runs nothing.
func (s *session) cmd(name string, f func() error) bool {
	if !s.ok {
		return false
	}
	s.rec.attempted++
	if s.tr != nil {
		s.tr.begin(name, s.w.allocs)
	}
	start := time.Now()
	err := f()
	wall := time.Since(start)
	if s.tr != nil {
		s.tr.end(s.w.lay, name, wall, s.w.allocs)
	}
	s.walls[name] = append(s.walls[name], ms(wall))
	s.end = start.Add(wall)
	if err != nil {
		s.fail(name, "%v", err)
		return false
	}
	if s.tr != nil && s.tgt != nil && machineCmds[name] {
		s.sampleSim(name)
	}
	return s.ok
}

// check counts a wrong value as a failed operation of command name;
// the session's first failure ends it.
func (s *session) check(name string, good bool, format string, args ...any) bool {
	if !good && s.ok {
		s.fail(name, format, args...)
	}
	return good
}

func (s *session) fail(name, format string, args ...any) {
	s.rec.failed++
	s.ok = false
	logf("%s: %s", name, fmt.Sprintf(format, args...))
}

// startup is the first command of every script.
func (s *session) startup() bool {
	return s.cmd("startup", func() error {
		d, err := core.New(&s.out)
		s.d = d
		return err
	})
}

// attached records the target of a successful attach and, in a traced
// session, installs the expression-server trace before the first eval.
func (s *session) attached(t *core.Target) {
	s.tgt = t
	if s.tr != nil {
		t.TraceExprTraffic(s.tr.exprTraffic)
	}
}

// finish records the session's wall time if it ran to exit, and the
// client-side cache and batch counters of a traced session.
func (s *session) finish() {
	if s.ok && s.exited {
		s.rec.recs = append(s.rec.recs, sessionRec{cfg: s.cfg, ms: ms(s.end.Sub(s.start)), walls: s.walls})
	}
	if s.tr != nil && s.tgt != nil {
		s.w.lay.client(s.tgt.Client.Stats(), s.tr.simCalls)
	}
}

// printed runs print and returns what it wrote, without the newline.
func (s *session) printed(name string) (string, error) {
	s.out.Reset()
	if err := s.tgt.Print(name); err != nil {
		return "", err
	}
	return strings.TrimRight(s.out.String(), "\n"), nil
}

// stopAt names the current stop as proc@index, the address-free form
// every target agrees on: proc is the procedure's source name, or with
// entry set its symbol-table entry name (the corpus transcripts' form).
func (s *session) stopAt(entry bool) (string, error) {
	f, err := s.tgt.Frame(0)
	if err != nil {
		return "", err
	}
	ctx, err := s.tgt.ContextAt(f)
	if err != nil {
		return "", err
	}
	idx := -1
	if ctx.Stop != nil {
		idx = ctx.Stop.Index
	}
	proc := strings.TrimPrefix(f.Proc(), "_")
	if entry {
		proc = ctx.ProcEntryName
	}
	return fmt.Sprintf("%s@%d", proc, idx), nil
}

// backtrace returns the procedure names of the stack, innermost first,
// without the startup frame and the assembler's leading underscore.
func (s *session) backtrace(limit int) ([]string, error) {
	bt, err := s.tgt.Backtrace(limit)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range bt {
		p = strings.TrimPrefix(p, "_")
		if p == "start" {
			break
		}
		out = append(out, p)
	}
	return out, nil
}

// exitTarget is the exit command: remove every breakpoint and continue
// to program exit. It returns the exit event.
func (s *session) exitTarget() (*nub.Event, error) {
	if err := s.tgt.Bpts.RemoveAll(); err != nil {
		return nil, err
	}
	ev, err := s.tgt.ContinueToBreakpoint()
	if err == nil && !ev.Exited {
		err = fmt.Errorf("stopped at %v instead of exiting", ev)
	}
	return ev, err
}

// sampleSim reads the simulator counters after a traced command that
// runs the target, outside the command's timed window.
func (s *session) sampleSim(name string) {
	st, err := s.tgt.Client.SimStats()
	if err != nil {
		s.fail(name, "simstats: %v", err)
		return
	}
	s.tr.simCalls++
	s.w.lay.sim(name, st, s.sim)
	s.sim = st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closeQuietly closes c; the session is over, so an error changes
// nothing.
func closeQuietly(c io.Closer) { _ = c.Close() }
