// crossdebug demonstrates §4.1 and §6: one ldb session debugging two
// targets on two different architectures simultaneously — one attached
// in-process, one over a TCP connection — with identical commands.
// Cross-architecture debugging is identical to single-architecture
// debugging; switching targets just rebinds the machine-dependent
// PostScript names (§5).
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"

	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

func run(w io.Writer) error {
	d, err := core.New(w)
	if err != nil {
		return err
	}

	// Target 1: big-endian 68020, as an in-process child.
	prog1, err := driver.Build([]driver.Source{{Name: "fib.c", Text: workload.Fib}},
		driver.Options{Arch: "m68k", Debug: true})
	if err != nil {
		return err
	}
	c1, _, _, err := nub.Launch(prog1.Arch, prog1.Image.Text, prog1.Image.Data, prog1.Image.Entry)
	if err != nil {
		return err
	}
	t1, err := d.AttachClient("m68k child", c1, prog1.LoaderPS)
	if err != nil {
		return err
	}

	// Target 2: little-endian VAX, over the network. The process runs
	// with its nub listening; ldb dials in — the target is not a child
	// of the debugger (§4.2).
	prog2, err := driver.Build([]driver.Source{{Name: "fib.c", Text: workload.Fib}},
		driver.Options{Arch: "vax", Debug: true})
	if err != nil {
		return err
	}
	proc2 := machine.New(prog2.Arch, prog2.Image.Text, prog2.Image.Data, prog2.Image.Entry)
	n2 := nub.New(proc2)
	n2.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := nub.NewService()
	srv.SetLegacyTarget(n2)
	go srv.ServeListener(l)
	defer srv.Shutdown()
	fmt.Fprintf(w, "vax target's nub listening on %s\n", l.Addr())
	c2, conn2, err := nub.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer conn2.Close()
	t2, err := d.AttachClient("vax over tcp", c2, prog2.LoaderPS)
	if err != nil {
		return err
	}

	// The same session drives both with the same code.
	for _, tgt := range []*core.Target{t1, t2} {
		d.Switch(tgt)
		if _, err := tgt.BreakStop("fib", 7); err != nil {
			return err
		}
		if _, err := tgt.ContinueToBreakpoint(); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\nboth targets stopped at stopping point 7 of fib; interleaved inspection:")
	for round := 0; round < 2; round++ {
		for _, tgt := range []*core.Target{t1, t2} {
			d.Switch(tgt)
			i, err := tgt.FetchScalar("i")
			if err != nil {
				return err
			}
			sum, err := tgt.EvalInt("a[i-1] + a[i-2]")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  [%-12s %-5s] i=%d  a[i-1]+a[i-2]=%d  ", tgt.Name, tgt.Arch.Name(), i, sum)
			fmt.Fprintf(w, "print a: ")
			if err := tgt.Print("a"); err != nil {
				return err
			}
			if round == 0 {
				if _, err := tgt.ContinueToBreakpoint(); err != nil {
					return err
				}
			}
		}
	}

	// Run both to completion; byte order never mattered.
	fmt.Fprintln(w, "\nrunning both to completion:")
	for _, tgt := range []*core.Target{t1, t2} {
		d.Switch(tgt)
		if err := tgt.Bpts.RemoveAll(); err != nil {
			return err
		}
		ev, err := tgt.Continue()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s: %v\n", tgt.Name, ev)
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
