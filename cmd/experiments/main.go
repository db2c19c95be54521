// experiments regenerates every measured table in the paper's
// evaluation (see EXPERIMENTS.md for the index):
//
//	-t1   §4.3 machine-dependent LoC table (via internal/locstats)
//	-t2   §7 startup/connect timing table (with the stabs baseline)
//	-e1   §3 no-op stopping-point code growth per target
//	-e2   §3 MIPS restricted-scheduling penalty
//	-e3   §7 symbol-table size: PostScript vs stabs, raw and compressed
//	-e4   §5 deferral: symbol-table read time, deferred vs eager
//
// With no flags, everything runs.
package main

import (
	"bytes"
	"compress/lzw"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/cc"
	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/link"
	"ldb/internal/locstats"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/ps"
	"ldb/internal/stab"
	"ldb/internal/symtab"
	"ldb/internal/workload"
)

var targets = []string{"mips", "mipsbe", "sparc", "m68k", "vax"}

func main() {
	t1 := flag.Bool("t1", false, "LoC table")
	t2 := flag.Bool("t2", false, "startup timings")
	e1 := flag.Bool("e1", false, "no-op growth")
	e2 := flag.Bool("e2", false, "scheduling penalty")
	e3 := flag.Bool("e3", false, "symbol-table sizes")
	e4 := flag.Bool("e4", false, "deferral timing")
	bigLines := flag.Int("big", 13000, "size of the lcc-sized program in source lines")
	flag.Parse()
	all := !(*t1 || *t2 || *e1 || *e2 || *e3 || *e4)
	if all || *t1 {
		runT1()
	}
	if all || *t2 {
		runT2(*bigLines)
	}
	if all || *e1 {
		runE1()
	}
	if all || *e2 {
		runE2()
	}
	if all || *e3 {
		runE3(*bigLines)
	}
	if all || *e4 {
		runE4(*bigLines)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func build(archName, name, src string, debug, sched bool) *driver.Program {
	prog, err := driver.Build([]driver.Source{{Name: name, Text: src}},
		driver.Options{Arch: archName, Debug: debug, Sched: sched})
	check(err)
	return prog
}

func runT1() {
	fmt.Println("== T1: machine-dependent code per target (cf. the §4.3 table) ==")
	root, err := locstats.FindRoot(".")
	if err != nil {
		fmt.Println("   (skipped: run from inside the repository:", err, ")")
		return
	}
	table, err := locstats.Collect(root)
	check(err)
	fmt.Print(locstats.Format(table))
	fmt.Println()
}

// median3 runs f three times and reports the median duration.
func median3(f func()) time.Duration {
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		ds = append(ds, time.Since(start))
	}
	if ds[0] > ds[1] {
		ds[0], ds[1] = ds[1], ds[0]
	}
	if ds[1] > ds[2] {
		ds[1], ds[2] = ds[2], ds[1]
	}
	if ds[0] > ds[1] {
		ds[0], ds[1] = ds[1], ds[0]
	}
	return ds[1]
}

func runT2(bigLines int) {
	fmt.Println("== T2: startup and connect times (cf. the §7 table) ==")
	hello := build("mips", "hello.c", workload.Hello, true, false)
	big := build("mips", "lcc.c", workload.Big(bigLines), true, false)
	bigSparc := build("sparc", "lcc.c", workload.Big(bigLines), true, false)

	row := func(label string, d time.Duration) {
		fmt.Printf("  %-46s %10.3fms\n", label, float64(d.Microseconds())/1000)
	}

	row("interpreter initialization", median3(func() { ps.New() }))
	// The initial PostScript is read once per process; this row times
	// that read itself, uncached, and the next what each debugger pays.
	row("read initial PostScript", median3(func() {
		_, err := core.NewBase()
		check(err)
	}))
	row("new debugger on the shared base", median3(func() {
		_, err := core.New(nil)
		check(err)
	}))
	row("read symbol table for hello.c (1 line)", median3(func() {
		_, err := symtab.Load(ps.New(), hello.LoaderPS)
		check(err)
	}))
	row(fmt.Sprintf("read symbol table for lcc-sized (%d lines)", bigLines), median3(func() {
		_, err := symtab.Load(ps.New(), big.LoaderPS)
		check(err)
	}))

	// A connect reads each distinct loader table once, afresh: the
	// rows stay cold however often they run. A second MIPS machine
	// running the same program shares the first one's table.
	connect := func(progs ...*driver.Program) func() {
		return func() {
			d, err := core.New(nil)
			check(err)
			tables := map[string]*symtab.Table{}
			for i, prog := range progs {
				client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
				check(err)
				tbl, ok := tables[prog.LoaderPS]
				if !ok {
					tbl, err = core.LoadTable(prog.LoaderPS)
					check(err)
					tables[prog.LoaderPS] = tbl
				}
				_, err = d.AttachTable(fmt.Sprintf("t%d", i), client, tbl)
				check(err)
			}
		}
	}
	// Attaching a program this process has attached before shares one
	// table, kept from the second attach on.
	again := func(prog *driver.Program) func() {
		attach := func() {
			d, err := core.New(nil)
			check(err)
			client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
			check(err)
			_, err = d.AttachClient("t", client, prog.LoaderPS)
			check(err)
		}
		attach()
		attach()
		return attach
	}
	row("connect to hello.c (one machine)", median3(connect(hello)))
	row("connect to lcc-sized (one machine)", median3(connect(big)))
	row("connect to lcc-sized (two MIPS machines)", median3(connect(big, big)))
	row("connect to lcc-sized (MIPS and SPARC)", median3(connect(big, bigSparc)))
	row("connect to hello.c again (image cached)", median3(again(hello)))
	row("connect to lcc-sized again (image cached)", median3(again(big)))

	// Network attach, for the flavor of debugging over the wire.
	row("connect to hello.c over TCP", median3(func() {
		p := machine.New(hello.Arch, hello.Image.Text, hello.Image.Data, hello.Image.Entry)
		n := nub.New(p)
		n.Start()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		srv := nub.NewService()
		srv.SetLegacyTarget(n)
		go srv.ServeListener(l)
		d, err := core.New(nil)
		check(err)
		client, conn, err := nub.Dial(l.Addr().String())
		check(err)
		tbl, err := core.LoadTable(hello.LoaderPS)
		check(err)
		_, err = d.AttachTable("net", client, tbl)
		check(err)
		conn.Close()
		srv.Shutdown()
	}))

	// The dbx/gdb baseline: binary stabs parse much faster (§7 shows
	// dbx and gdb starting in a fraction of ldb's time).
	tc := &cc.TargetConf{Name: "mips", LDoubleSize: 8}
	unit, err := cc.Compile(workload.Big(bigLines), "lcc.c", tc)
	check(err)
	stabs := stab.Emit([]*cc.Unit{unit})
	row("dbx/gdb baseline: read stabs for lcc-sized", median3(func() {
		_, err := stab.Read(stabs)
		check(err)
	}))
	fmt.Println()
}

func runE1() {
	fmt.Println("== E1: no-op stopping points grow the code (§3: 16-19% on the paper's targets) ==")
	fmt.Printf("  %-8s", "")
	for _, name := range workload.Names {
		fmt.Printf("%9s", name)
	}
	fmt.Printf("%9s\n", "overall")
	for _, t := range targets {
		fmt.Printf("  %-8s", t)
		tot, totDbg := 0, 0
		for _, name := range workload.Names {
			plain := build(t, name, workload.Programs[name], false, false)
			debug := build(t, name, workload.Programs[name], true, false)
			p, d := driver.TextWords(plain), driver.TextWords(debug)
			tot += p
			totDbg += d
			fmt.Printf("%8.1f%%", 100*float64(d-p)/float64(p))
		}
		fmt.Printf("%8.1f%%\n", 100*float64(totDbg-tot)/float64(tot))
	}
	fmt.Println()
}

func runE2() {
	fmt.Println("== E2: restricted scheduling on the MIPS (§3: 13% on the paper's testbed) ==")
	fmt.Printf("  %-8s %8s %8s %8s %8s %10s\n", "program", "fill", "pad", "fill -g", "pad -g", "extra nops")
	totPlain, totDebug, totInstr := 0, 0, 0
	for _, name := range workload.Names {
		src := workload.Programs[name]
		plain := build("mips", name, src, false, true)
		debug := build("mips", name, src, true, true)
		fmt.Printf("  %-8s %8d %8d %8d %8d %10d\n", name,
			plain.SchedFilled, plain.SchedPadded, debug.SchedFilled, debug.SchedPadded,
			debug.SchedPadded-plain.SchedPadded)
		totPlain += plain.SchedPadded
		totDebug += debug.SchedPadded
		totInstr += driver.TextWords(plain)
	}
	fmt.Printf("  scheduling restricted by debugging adds %d no-ops (%.1f%% of %d instructions)\n",
		totDebug-totPlain, 100*float64(totDebug-totPlain)/float64(totInstr), totInstr)
	fmt.Println("  (our accumulator-style code generator exposes far less parallelism than")
	fmt.Println("   MIPS compilers of the era, so the magnitude is smaller; the direction —")
	fmt.Println("   debugging defeats slot filling — is the paper's point)")
	fmt.Println()
}

func compressLen(b []byte) int {
	var buf bytes.Buffer
	w := lzw.NewWriter(&buf, lzw.LSB, 8)
	w.Write(b)
	w.Close()
	return buf.Len()
}

func runE3(bigLines int) {
	fmt.Println("== E3: symbol-table sizes (§7: PostScript ≈ 9x stabs raw, ≈ 2x compressed) ==")
	tc := &cc.TargetConf{Name: "sparc", LDoubleSize: 8}
	for _, lines := range []int{100, 1000, bigLines} {
		unit, err := cc.Compile(workload.Big(lines), "big.c", tc)
		check(err)
		stabs := stab.Emit([]*cc.Unit{unit})
		pts := []byte(symtab.EmitProgramPS([]*cc.Unit{unit}, "sparc"))
		fmt.Printf("  %6d lines: PostScript %8d B, stabs %7d B, raw ratio %4.1f, compressed ratio %4.1f\n",
			lines, len(pts), len(stabs),
			float64(len(pts))/float64(len(stabs)),
			float64(compressLen(pts))/float64(compressLen(stabs)))
	}
	fmt.Println()
}

func runE4(bigLines int) {
	fmt.Println("== E4: deferral of lexical analysis (§5: reduces read time by 40%) ==")
	tc := &cc.TargetConf{Name: "sparc", LDoubleSize: 8}
	unit, err := cc.Compile(workload.Big(bigLines), "big.c", tc)
	check(err)
	prog := build("sparc", "big.c", workload.Big(bigLines), true, false)
	eagerPS := link.LoaderPS(prog.Image, symtab.EmitProgramPSOpts([]*cc.Unit{unit}, "sparc", false))
	deferPS := link.LoaderPS(prog.Image, symtab.EmitProgramPSOpts([]*cc.Unit{unit}, "sparc", true))
	eager := median3(func() {
		_, err := symtab.Load(ps.New(), eagerPS)
		check(err)
	})
	deferred := median3(func() {
		_, err := symtab.Load(ps.New(), deferPS)
		check(err)
	})
	fmt.Printf("  eager read    %10.3fms\n", float64(eager.Microseconds())/1000)
	fmt.Printf("  deferred read %10.3fms\n", float64(deferred.Microseconds())/1000)
	fmt.Printf("  deferral saves %.0f%% of the read time\n", 100*(1-float64(deferred)/float64(eager)))
	fmt.Println()
}
