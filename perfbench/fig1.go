package main

import (
	"fmt"
	"slices"
	"time"

	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

// Expected values of the Fig. 1 session at fib's stopping point 7 (the
// first pass through the first loop, i == 2), on every configuration.
const (
	fig1Print = "{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, ...}"
	fig1Eval  = 2
	fig1Stop  = "fib@7"
	fig1Step  = "fib@6"
)

var fig1Where = []string{"fib", "main"}

// fig1 is the paper's Fig. 1 session on fib.c: one client, an
// in-memory connection, a fresh debugger and target per session, the
// five configurations taking turns.
type fig1 struct {
	progs []*driver.Program
	off   int
}

func setupFig1(seed int64, _ time.Duration, _ bool) (fixture, error) {
	f := &fig1{off: int(uint64(seed) % uint64(len(configs)))}
	for _, cfg := range configs {
		p, err := driver.Build([]driver.Source{{Name: "fib.c", Text: workload.Fib}},
			driver.Options{Arch: cfg, Debug: true})
		if err != nil {
			return nil, fmt.Errorf("build fib.c for %s: %w", cfg, err)
		}
		f.progs = append(f.progs, p)
	}
	return f, nil
}

func (f *fig1) limit() int                  { return 0 }
func (f *fig1) layers(m map[string]float64) {}
func (f *fig1) close()                      {}

func (f *fig1) session(s *session, k int) {
	s.cfg = (f.off + k) % len(f.progs)
	prog := f.progs[s.cfg]
	l := launchLocal(s, prog, "fib")
	defer l.stop()
	if !l.ok {
		return
	}
	tgt := s.tgt
	s.cmd("break", func() error {
		_, err := tgt.BreakStop("fib", 7)
		return err
	})
	s.cmd("continue", func() error {
		return continueTo(s, fig1Stop)
	})
	s.cmd("print", func() error {
		v, err := s.printed("a")
		if err == nil {
			s.check("print", v == fig1Print, "print a = %q, want %q", v, fig1Print)
		}
		return err
	})
	s.cmd("eval", func() error {
		v, err := tgt.EvalInt("a[i-1] + a[i-2]")
		if err == nil {
			s.check("eval", v == fig1Eval, "eval = %d, want %d", v, fig1Eval)
		}
		return err
	})
	s.cmd("where", func() error {
		bt, err := s.backtrace(8)
		if err == nil {
			s.check("where", slices.Equal(bt, fig1Where), "where = %v, want %v", bt, fig1Where)
		}
		return err
	})
	s.cmd("step", func() error {
		return stepTo(s, fig1Step)
	})
	s.cmd("exit", func() error {
		ev, err := s.exitTarget()
		if err == nil {
			s.exited = true
			out := l.proc.Stdout.String()
			s.check("exit", ev.Status == 0 && out == workload.Outputs["fib"],
				"exit %d with output %q, want 0 and %q", ev.Status, out, workload.Outputs["fib"])
		}
		return err
	})
}

// continueTo continues to a breakpoint and checks the stop.
func continueTo(s *session, want string) error {
	ev, err := s.tgt.ContinueToBreakpoint()
	if err != nil {
		return err
	}
	if ev.Exited {
		s.check("continue", false, "exited (%d), want a stop at %s", ev.Status, want)
		return nil
	}
	at, err := s.stopAt(false)
	if err == nil {
		s.check("continue", at == want, "stopped at %s, want %s", at, want)
	}
	return err
}

// stepTo takes one source-level step and checks where it lands.
func stepTo(s *session, want string) error {
	ev, err := s.tgt.Step()
	if err != nil {
		return err
	}
	if ev.Exited {
		s.check("step", false, "exited (%d), want a stop at %s", ev.Status, want)
		return nil
	}
	at, err := s.stopAt(false)
	if err == nil {
		s.check("step", at == want, "stepped to %s, want %s", at, want)
	}
	return err
}

// local is a target launched in this process and served over an
// in-memory connection, as a debugger that forks its target does.
type local struct {
	ok     bool
	proc   *machine.Process
	conn   interface{ Close() error }
	served chan struct{}
}

// launchLocal runs the startup and attach commands against a fresh
// process of prog: attach creates the process, starts its nub on one
// end of an in-memory connection, and attaches the debugger to the
// other end (handshake, loader table, first refresh).
func launchLocal(s *session, prog *driver.Program, name string) *local {
	l := &local{}
	if !s.startup() {
		return l
	}
	l.ok = s.cmd("attach", func() error {
		l.proc = machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		n := nub.New(l.proc)
		dc, sc := tapPipe(s.tr)
		l.conn = dc
		l.served = make(chan struct{})
		go func() {
			defer close(l.served)
			_ = n.Serve(sc) // returns when the debugger end closes
			_ = sc.Close()
		}()
		t, err := s.d.Attach(name, dc, prog.LoaderPS)
		if err != nil {
			return err
		}
		s.attached(t)
		return nil
	})
	return l
}

// stop closes the debugger end and waits for the nub to finish serving.
func (l *local) stop() {
	if l.conn == nil {
		return
	}
	_ = l.conn.Close()
	<-l.served
}

// runToExit runs prog under a nub with no breakpoints and returns its
// output and exit status.
func runToExit(prog *driver.Program) (string, int, error) {
	proc := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	n := nub.New(proc)
	dc, sc := tapPipe(nil)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = n.Serve(sc)
		_ = sc.Close()
	}()
	defer func() { _ = dc.Close(); <-served }()
	c, err := nub.Connect(dc)
	if err != nil {
		return "", 0, err
	}
	ev := c.Last
	for err == nil && !ev.Exited {
		ev, err = c.Continue()
	}
	if err != nil {
		return "", 0, err
	}
	return proc.Stdout.String(), ev.Status, nil
}
