package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"ldb/internal/driver"
	"ldb/internal/workload"
)

const (
	// corpusStride spaces the scenario seeds of runs with different
	// --seed values so that no two runs share a scenario: run s uses
	// workload.Generate(s*corpusStride + k) for k = 0, 1, ...
	corpusStride = 1 << 20
	// corpusRate bounds the sessions per second the pool is sized for;
	// a run never attaches one image twice, and stops early (saying so
	// on stderr) if it uses up the pool.
	corpusRate = 140
)

// corpusCase is one generated scenario built for one configuration,
// with its reference transcript.
type corpusCase struct {
	sc   workload.Scenario
	prog *driver.Program // only what a session needs: arch, image, loader table
	ref  []string
}

// corpusFix replays generated scenarios, one image per session.
type corpusFix struct {
	cases []corpusCase
}

// setupCorpus generates d*corpusRate/5 scenarios, builds each for
// the five configurations, and records each scenario's reference
// transcript: the same script on mips with batching and caching off.
// Session k runs scenario k/5 on configuration k mod 5, so consecutive
// sessions take turns through the configurations and no image repeats.
func setupCorpus(seed int64, d time.Duration, _ bool) (fixture, error) {
	n := int(math.Ceil(d.Seconds() * corpusRate / float64(len(configs))))
	f := &corpusFix{cases: make([]corpusCase, n*len(configs))}
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				errs[k] = buildCases(seed*corpusStride+int64(k), f.cases[k*len(configs):(k+1)*len(configs)])
			}
		}()
	}
	for k := range n {
		work <- k
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// buildCases generates scenario seed, computes its reference transcript,
// and fills out with one case per configuration.
func buildCases(seed int64, out []corpusCase) error {
	sc := workload.Generate(seed)
	for i, cfg := range configs {
		p, err := driver.Build([]driver.Source{{Name: sc.Name + ".c", Text: sc.Source}},
			driver.Options{Arch: cfg, Debug: true})
		if err != nil {
			return fmt.Errorf("build scenario %d for %s: %w", seed, cfg, err)
		}
		// The compiler's intermediate products (ASTs, objects, the
		// combined symbol table) are many times the image's size; a
		// pool of thousands keeps only what attach needs.
		out[i] = corpusCase{sc: sc, prog: &driver.Program{Arch: p.Arch, Image: p.Image, LoaderPS: p.LoaderPS}}
	}
	var ref []string // out[0] is mips: configs[0]
	s := newWorker().newSession(false)
	replay(s, out[0], false, func(_, line string) { ref = append(ref, line) })
	if !s.ok || !s.exited {
		return fmt.Errorf("reference session of scenario %d failed", seed)
	}
	for i := range out {
		out[i].ref = ref
	}
	return nil
}

func (f *corpusFix) limit() int                  { return len(f.cases) }
func (f *corpusFix) layers(m map[string]float64) {}
func (f *corpusFix) close()                      {}

// session replays scenario k and checks every transcript line against
// the reference as the command that produces it returns.
func (f *corpusFix) session(s *session, k int) {
	c := f.cases[k]
	s.cfg = k % len(configs)
	line := 0
	replay(s, c, true, func(cmd, got string) {
		want := ""
		if line < len(c.ref) {
			want = c.ref[line]
		}
		line++
		s.check(cmd, got == want, "scenario %d line %d: %q, reference %q", c.sc.Seed, line, got, want)
	})
	if s.ok {
		s.check("exit", line == len(c.ref), "scenario %d: transcript has %d lines, reference %d", c.sc.Seed, line, len(c.ref))
	}
}

// replay runs a scenario's script with the shared command vocabulary:
// break; up to MaxHits hits, each with its prints, evals, where and
// steps; then exit. emit receives each transcript line with the command
// that produced it. The transcript is address-free (stops as
// entry@index, backtraces as procedure names), so every configuration
// must produce the same one. With wire false the client's batching and
// caching are off: the reference transport.
func replay(s *session, c corpusCase, wire bool, emit func(cmd, line string)) {
	sc := c.sc
	l := launchLocal(s, c.prog, sc.Name)
	defer l.stop()
	if !l.ok {
		return
	}
	tgt := s.tgt
	tgt.Client.SetBatching(wire)
	tgt.Client.SetCaching(wire)
	say := func(cmd, format string, args ...any) { emit(cmd, fmt.Sprintf(format+"\n", args...)) }
	exited := false
	// exit records an exit observed by cmd, and the program's output.
	exit := func(cmd string, status int) {
		exited, s.exited = true, true
		say(cmd, "exit %d", status)
		say(cmd, "output %q", l.proc.Stdout.String())
	}

	s.cmd("break", func() error {
		_, err := tgt.BreakStop(sc.BreakProc, sc.BreakStop)
		if err == nil {
			say("break", "break %s@%d", sc.BreakProc, sc.BreakStop)
		}
		return err
	})
	for hit := 1; hit <= sc.MaxHits && !exited && s.ok; hit++ {
		s.cmd("continue", func() error {
			ev, err := tgt.ContinueToBreakpoint()
			if err != nil {
				return err
			}
			if ev.Exited {
				exit("continue", ev.Status)
				return nil
			}
			at, err := s.stopAt(true)
			if err == nil {
				say("continue", "hit %d at %s", hit, at)
			}
			return err
		})
		if exited {
			break
		}
		for _, name := range sc.Prints {
			s.cmd("print", func() error {
				v, err := s.printed(name)
				if err == nil {
					say("print", "  %s = %s", name, v)
				}
				return err
			})
		}
		for _, ex := range sc.Evals {
			s.cmd("eval", func() error {
				v, err := tgt.EvalInt(ex)
				if err == nil {
					say("eval", "  eval %s = %d", ex, v)
				}
				return err
			})
		}
		s.cmd("where", func() error {
			bt, err := tgt.Backtrace(8)
			if err == nil {
				say("where", "  bt %s", strings.Join(bt, " <- "))
			}
			return err
		})
		for i := 0; i < sc.Steps && !exited && s.ok; i++ {
			s.cmd("step", func() error {
				ev, err := tgt.Step()
				if err != nil {
					return err
				}
				if ev.Exited {
					exit("step", ev.Status)
					return nil
				}
				at, err := s.stopAt(true)
				if err == nil {
					say("step", "  step at %s", at)
				}
				return err
			})
		}
	}
	if !exited {
		s.cmd("exit", func() error {
			ev, err := s.exitTarget()
			if err == nil {
				exit("exit", ev.Status)
			}
			return err
		})
	}
}
