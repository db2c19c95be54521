package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/ps"
)

// buildFib builds the Fig. 1 program for archName.
func buildFib(t *testing.T, archName string) *driver.Program {
	t.Helper()
	prog, err := driver.Build([]driver.Source{{Name: "fib.c", Text: fibC}}, driver.Options{Arch: archName, Debug: true})
	if err != nil {
		t.Fatalf("%s: build: %v", archName, err)
	}
	return prog
}

// runPS runs src in d's interpreter and returns the top of the stack.
func runPS(t *testing.T, d *Debugger, src string) ps.Object {
	t.Helper()
	o, err := d.In.Eval(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return o
}

// TestDebuggersOnOneBaseAreIsolated checks that debuggers sharing the
// process's base keep their definitions to themselves: a def, a store
// over a prelude name, a put into userdict, and a def into an arch
// dictionary in one are invisible to the other.
func TestDebuggersOnOneBaseAreIsolated(t *testing.T) {
	var out1, out2 strings.Builder
	d1, err := New(&out1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(&out2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.In.RunString("/mine 1 def /ArrayLimit 3 store userdict /viaPut 7 put"); err != nil {
		t.Fatal(err)
	}
	t1 := launch(t, d1, "mips", "fib.c", fibC)
	t2 := launch(t, d2, "mips", "fib.c", fibC)
	if err := d1.In.RunString("/WordSize 8 def"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src        string
		own, other string
	}{
		{"/mine where { pop true } { false } ifelse", "true", "false"},
		{"ArrayLimit", "3", "10"},
		{"userdict /viaPut known", "true", "false"},
		{"WordSize", "8", "4"},
	} {
		if got := ps.Format(runPS(t, d1, c.src)); got != c.own {
			t.Errorf("%s in the defining debugger = %s, want %s", c.src, got, c.own)
		}
		if got := ps.Format(runPS(t, d2, c.src)); got != c.other {
			t.Errorf("%s in the other debugger = %s, want %s", c.src, got, c.other)
		}
	}
	// The store reached the printer procedures of d1 only.
	for _, tgt := range []*Target{t1, t2} {
		if _, err := tgt.BreakStop("fib", 7); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
				t.Fatalf("%v %v", ev, err)
			}
		}
	}
	if got := printOf(t, d1, t1, "a"); !strings.HasPrefix(got, "{1, 1, 2, ...}") {
		t.Errorf("print a with ArrayLimit 3 = %q", got)
	}
	if got := printOf(t, d2, t2, "a"); !strings.HasPrefix(got, "{1, 1, 2, 3, 5,") {
		t.Errorf("print a in the other debugger = %q", got)
	}
}

// TestBaseIsReadOnly checks that composite values reachable from the
// shared base refuse writes, and that the refusals leave them intact.
func TestBaseIsReadOnly(t *testing.T) {
	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		t.Fatal(err)
	}
	tgt := launch(t, d, "sparc", "fib.c", fibC)
	for _, src := range []string{
		"/INT load 0 (x) put",                    // a prelude procedure
		"/PTR load dup length 3 sub get 0 1 put", // a procedure nested in one
		"RegNames 0 (x) put",                     // an arch dictionary's register names
		"Context /pc 99 put",                     // an arch dictionary's context record
		"Context /regs get 0 1 put",              // an array inside it
		"1 2 RegNames astore",
		"systemdict /add 1 put",
		"/add 1 store",
		"systemdict /add undef",
	} {
		err := d.In.RunString(src)
		var pe *ps.Error
		if !errors.As(err, &pe) || pe.Name != "invalidaccess" {
			t.Errorf("%s: err = %v, want invalidaccess", src, err)
		}
		d.In.Stack = d.In.Stack[:0]
	}
	if got := ps.Format(runPS(t, d, "RegNames 0 get")); got != "(g0)" {
		t.Errorf("RegNames 0 get = %s after refused writes", got)
	}
	if got, want := ps.Format(runPS(t, d, "Context /pc get")), fmt.Sprint(tgt.Arch.Context().PCOff); got != want {
		t.Errorf("Context /pc get = %s after refused writes", got)
	}
	if got := ps.Format(runPS(t, d, "1 2 add")); got != "3" {
		t.Errorf("1 2 add = %s after refused writes", got)
	}
}

// TestNewIsCheap pins what a debugger costs once the base is built:
// a fork of the interpreter, not a rerun of the initial PostScript.
func TestNewIsCheap(t *testing.T) {
	if _, err := New(io.Discard); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := New(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("New makes %.0f allocations, want at most 100", allocs)
	}
}

// TestConcurrentDebuggers runs whole sessions on several goroutines at
// once, all on the shared base; under -race it checks that nothing the
// base shares is written.
func TestConcurrentDebuggers(t *testing.T) {
	prog := buildFib(t, "mips")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := concurrentSession(prog); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func concurrentSession(prog *driver.Program) error {
	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		return err
	}
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		return err
	}
	defer client.Close()
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		return err
	}
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		return err
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		return err
	}
	if err := tgt.Print("a"); err != nil {
		return err
	}
	if !strings.HasPrefix(out.String(), "{1, 1, ") {
		return errors.New("print a: " + out.String())
	}
	v, err := tgt.EvalInt("a[i-1] + a[i-2]")
	if err != nil {
		return err
	}
	if v != 2 {
		return errors.New("eval: wrong value")
	}
	tgt.Bpts.RemoveAll()
	_, err = tgt.ContinueToBreakpoint()
	return err
}

// TestExprServerStopsWithTarget runs many sessions that each start an
// expression server and run the target to exit: no goroutine may
// outlive its session.
func TestExprServerStopsWithTarget(t *testing.T) {
	prog := buildFib(t, "mips")
	start := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		d, err := New(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		n := nub.New(machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry))
		dc, sc := net.Pipe()
		var served sync.WaitGroup
		served.Add(1)
		go func() {
			defer served.Done()
			_ = n.Serve(sc)
			_ = sc.Close()
		}()
		tgt, err := d.Attach("fib", dc, prog.LoaderPS)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tgt.EvalInt("1 + 2"); err != nil || v != 3 {
			t.Fatalf("eval 1 + 2 = %d, %v", v, err)
		}
		if ev, err := tgt.ContinueToBreakpoint(); err != nil || !ev.Exited {
			t.Fatalf("run to exit: %v %v", ev, err)
		}
		_ = dc.Close()
		served.Wait()
	}
	if now := runtime.NumGoroutine(); now > start+2 {
		t.Errorf("%d goroutines after 200 sessions, %d before", now, start)
	}
}
