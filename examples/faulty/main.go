// faulty demonstrates §4.2's signature scenario: a program that is not
// being debugged crashes; because the nub is loaded with every program,
// it catches the fault, preserves the state, and waits on the network
// for a debugger. ldb then attaches post-mortem, walks the stack, and
// finds the bad pointer.
package main

import (
	"fmt"
	"log"
	"net"
	"os"

	_ "ldb/internal/arch/sparc"
	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
)

const buggy = `
int depth;
int *cursor;
int walk(int *p, int k) {
	depth = k;
	cursor = p;
	if (k == 3) p = (int *) 12;   /* the bug: a wild pointer */
	if (k > 5) return *p;
	return walk(p, k + 1) + *p;
}
int table[4];
int main() {
	table[0] = 42;
	return walk(table, 0);
}
`

func main() {
	prog, err := driver.Build([]driver.Source{{Name: "buggy.c", Text: buggy}},
		driver.Options{Arch: "sparc", Debug: true})
	if err != nil {
		log.Fatal(err)
	}

	// Run the program WITHOUT a debugger: the nub ignores its own
	// pause and lets it run free — until it faults.
	proc := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	n := nub.New(proc)
	n.RunFree()
	fmt.Println("the program crashed while running free; its nub preserved the state")

	// The nub waits for a connection from ldb (§4.2).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := nub.NewService()
	srv.SetLegacyTarget(n)
	go srv.ServeListener(l)
	fmt.Printf("nub waiting on %s; attaching...\n\n", l.Addr())

	d, err := core.New(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	client, conn, err := nub.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	tgt, err := d.AttachClient("buggy", client, prog.LoaderPS)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stopped: %v\n", client.Last)
	bt, _ := tgt.Backtrace(16)
	fmt.Printf("backtrace: %v\n\n", bt)

	// Post-mortem inspection: what was the program doing?
	fmt.Print("print depth:\t")
	if err := tgt.Print("depth"); err != nil {
		log.Fatal(err)
	}
	fmt.Print("print cursor:\t")
	if err := tgt.Print("cursor"); err != nil {
		log.Fatal(err)
	}
	fmt.Print("print table:\t")
	if err := tgt.Print("table"); err != nil {
		log.Fatal(err)
	}

	// The faulting frame's parameter is the wild pointer.
	if v, err := tgt.EvalInt("p"); err == nil {
		fmt.Printf("\nin the faulting frame, p = %#x — the wild pointer\n", uint32(v))
	}
	if v, err := tgt.EvalInt("k"); err == nil {
		fmt.Printf("and k = %d, so the corruption happened %d frames ago\n", v, v-3)
	}
	// Walk down to the frame where the bug struck.
	for i := 0; ; i++ {
		if err := tgt.SelectFrame(i); err != nil {
			break
		}
		k, err := tgt.EvalInt("k")
		if err != nil {
			break
		}
		if k == 3 {
			fmt.Printf("frame #%d is walk(k=3): here `p = (int *) 12` planted the bug\n", i)
			break
		}
	}
}
