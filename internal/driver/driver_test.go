package driver

import (
	"strings"
	"testing"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/link"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

var allArches = []string{"mips", "mipsbe", "sparc", "m68k", "vax"}

// runProgram builds src for the given target (not for debugging) and
// runs it to completion.
func runProgram(t *testing.T, archName, src string) (*machine.Process, int) {
	t.Helper()
	prog, err := Build([]Source{{Name: "test.c", Text: src}}, Options{Arch: archName})
	if err != nil {
		t.Fatalf("%s: build: %v", archName, err)
	}
	p := link.NewProcess(prog.Image)
	f := p.Run()
	if f.Kind != arch.FaultHalt {
		t.Fatalf("%s: program died: %v (output so far %q)", archName, f, p.Stdout.String())
	}
	return p, p.ExitCode
}

func checkOutput(t *testing.T, src, want string) {
	t.Helper()
	for _, a := range allArches {
		p, _ := runProgram(t, a, src)
		if got := p.Stdout.String(); got != want {
			t.Errorf("%s: output = %q, want %q", a, got, want)
		}
	}
}

func checkExit(t *testing.T, src string, want int) {
	t.Helper()
	for _, a := range allArches {
		_, code := runProgram(t, a, src)
		if code != want {
			t.Errorf("%s: exit = %d, want %d", a, code, want)
		}
	}
}

const fibC = `
void fib(int n)
{
	static int a[20];
	int i;
	if (n > 20) n = 20;
	a[0] = a[1] = 1;
	for (i = 2; i < n; i++)
		a[i] = a[i-1] + a[i-2];
	{	int j;
		for (j = 0; j < n; j++)
			printf("%d ", a[j]);
	}
	printf("\n");
}
int main() { fib(10); return 0; }
`

func TestFibAllTargets(t *testing.T) {
	checkOutput(t, fibC, "1 1 2 3 5 8 13 21 34 55 \n")
}

func TestArithmetic(t *testing.T) {
	checkOutput(t, `
int main() {
	int a;
	int b;
	a = 21; b = 4;
	printf("%d %d %d %d %d\n", a+b, a-b, a*b, a/b, a%b);
	printf("%d %d %d\n", a << 2, a >> 1, -a);
	printf("%d %d %d %d\n", a & b, a | b, a ^ b, ~a);
	printf("%d %d %d\n", a > b, a == b, a != b);
	printf("%d %d\n", a > 0 && b > 10, a > 0 || b > 10);
	printf("%d\n", !a);
	return 0;
}`, "25 17 84 5 1\n84 10 -21\n4 21 17 -22\n1 0 1\n0 1\n0\n")
}

func TestNegativeDivRem(t *testing.T) {
	checkOutput(t, `
int main() {
	printf("%d %d %d %d\n", -7 / 2, -7 % 2, 7 / -2, 7 % -2);
	return 0;
}`, "-3 -1 -3 1\n")
}

func TestUnsigned(t *testing.T) {
	checkOutput(t, `
int main() {
	unsigned u;
	u = 0 - 1;
	printf("%d\n", u > 1);         /* unsigned compare: max > 1 */
	printf("%d\n", (int)(u >> 28)); /* logical shift: 15 */
	return 0;
}`, "1\n15\n")
}

func TestCharShortAndSignExtension(t *testing.T) {
	checkOutput(t, `
char c;
short s;
int main() {
	c = 200;   /* becomes negative as signed char */
	s = -2;
	printf("%d %d\n", c, s);
	c = 'A';
	printf("%c%c\n", c, c + 1);
	return 0;
}`, "-56 -2\nAB\n")
}

func TestControlFlow(t *testing.T) {
	checkOutput(t, `
int main() {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 10; i++) {
		if (i == 3) continue;
		if (i == 8) break;
		sum = sum + i;
	}
	while (sum > 20) sum = sum - 5;
	printf("%d\n", sum);
	printf("%d\n", sum > 15 ? 1 : sum);
	return 0;
}`, "20\n1\n")
}

func TestRecursion(t *testing.T) {
	checkOutput(t, `
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int fibr(int n) { if (n < 2) return n; return fibr(n-1) + fibr(n-2); }
int main() {
	printf("%d %d\n", fact(7), fibr(15));
	return 0;
}`, "5040 610\n")
}

func TestPointersAndArrays(t *testing.T) {
	checkOutput(t, `
int a[8];
int sum(int *p, int n) {
	int s;
	s = 0;
	while (n-- > 0) s = s + *p++;
	return s;
}
int main() {
	int i;
	for (i = 0; i < 8; i++) a[i] = i * i;
	printf("%d\n", sum(a, 8));
	printf("%d %d\n", a[3], *(a + 4));
	printf("%d\n", &a[7] - &a[2]);
	return 0;
}`, "140\n9 16\n5\n")
}

func TestBubbleSort(t *testing.T) {
	checkOutput(t, `
int v[10];
void sort(int *p, int n) {
	int i; int j;
	for (i = 0; i < n; i++)
		for (j = 0; j < n - 1 - i; j++)
			if (p[j] > p[j+1]) {
				int t;
				t = p[j]; p[j] = p[j+1]; p[j+1] = t;
			}
}
int main() {
	int i;
	for (i = 0; i < 10; i++) v[i] = (i * 7 + 3) % 10;
	sort(v, 10);
	for (i = 0; i < 10; i++) printf("%d", v[i]);
	printf("\n");
	return 0;
}`, "0123456789\n")
}

func TestStrings(t *testing.T) {
	checkOutput(t, `
int length(char *s) {
	int n;
	n = 0;
	while (*s++) n++;
	return n;
}
int main() {
	char *msg;
	msg = "hello, world";
	printf("%s has %d chars\n", msg, length(msg));
	return 0;
}`, "hello, world has 12 chars\n")
}

func TestStructs(t *testing.T) {
	checkOutput(t, `
struct point { int x; int y; };
struct rect { struct point min; struct point max; };
struct rect r;
int area(struct rect *p) {
	return (p->max.x - p->min.x) * (p->max.y - p->min.y);
}
int main() {
	r.min.x = 1; r.min.y = 2;
	r.max.x = 11; r.max.y = 7;
	printf("%d\n", area(&r));
	return 0;
}`, "50\n")
}

func TestFloats(t *testing.T) {
	checkOutput(t, `
double half(double x) { return x / 2.0; }
int main() {
	double d;
	float f;
	int i;
	d = 3.5;
	f = 1.25;
	printf("%g %g\n", d + f, half(d));
	printf("%g\n", d * 2.0 - 1.0);
	i = (int) (d + 0.6);
	printf("%d\n", i);
	d = i;
	printf("%g\n", d);
	printf("%d %d\n", d > 3.9, 1.5 == 1.5);
	return 0;
}`, "4.75 1.75\n6\n4\n4\n1 1\n")
}

func TestFloatNegationAndIncrement(t *testing.T) {
	// Exercises the FNeg and FMove back-end operations on every target:
	// unary minus on floats and the value-producing pre/post forms of
	// ++/-- on doubles and floats.
	checkOutput(t, `
double d = 2.5;
float f = 1.5;
int main() {
	double e;
	e = -d;
	printf("%g %g %g\n", e, -e, -(d + e));
	printf("%g %g\n", ++d, d);   /* pre: new value */
	printf("%g %g\n", d++, d);   /* post: old value */
	printf("%g %g\n", --f, f--);
	printf("%g\n", f);
	printf("%g\n", -f * -2.0);
	return 0;
}`, "-2.5 2.5 -0\n3.5 3.5\n3.5 4.5\n0.5 0.5\n-0.5\n-1\n")
}

func TestFloatArguments(t *testing.T) {
	checkOutput(t, `
double mix(double a, int b, double c) { return a + b * c; }
int main() {
	printf("%g\n", mix(0.5, 3, 1.5));
	return 0;
}`, "5\n")
}

func TestFunctionPointers(t *testing.T) {
	checkOutput(t, `
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int apply(int (*f)(int), int v) { return f(v); }
int main() {
	int (*g)(int);
	g = &twice;
	printf("%d %d\n", apply(g, 10), apply(&thrice, 10));
	return 0;
}`, "20 30\n")
}

func TestGlobalsStaticsInitializers(t *testing.T) {
	checkOutput(t, `
int g = 42;
static int hidden = 7;
double dg = 2.5;
char *msg = "init";
int bump() {
	static int counter;
	counter = counter + 1;
	return counter;
}
int main() {
	printf("%d %d %g %s\n", g, hidden, dg, msg);
	printf("%d%d%d\n", bump(), bump(), bump());
	return 0;
}`, "42 7 2.5 init\n123\n")
}

func TestExitStatus(t *testing.T) {
	checkExit(t, `int main() { return 42; }`, 42)
}

func TestMultipleUnits(t *testing.T) {
	srcs := []Source{
		{Name: "main.c", Text: `
extern int helper(int x);
int main() { printf("%d\n", helper(20)); return 0; }
`},
		{Name: "helper.c", Text: `
static int secret = 22;
int helper(int x) { return x + secret; }
`},
	}
	for _, a := range allArches {
		prog, err := Build(srcs, Options{Arch: a})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		p := link.NewProcess(prog.Image)
		if f := p.Run(); f.Kind != arch.FaultHalt {
			t.Fatalf("%s: %v", a, f)
		}
		if got := p.Stdout.String(); got != "42\n" {
			t.Errorf("%s: output %q", a, got)
		}
	}
}

func TestLongDoubleOnM68k(t *testing.T) {
	src := `
long double x;
int main() {
	x = 1.5;
	x = x * 4.0;
	printf("%d\n", (int)x);
	printf("%d\n", sizeof(long double));
	return 0;
}`
	p, _ := runProgram(t, "m68k", src)
	if got := p.Stdout.String(); got != "6\n12\n" {
		t.Errorf("m68k long double: %q", got)
	}
	p, _ = runProgram(t, "sparc", src)
	if got := p.Stdout.String(); got != "6\n8\n" {
		t.Errorf("sparc long double: %q", got)
	}
}

func TestDebugBuildRunsIdentically(t *testing.T) {
	for _, a := range allArches {
		prog, err := Build([]Source{{Name: "fib.c", Text: fibC}}, Options{Arch: a, Debug: true})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		p := link.NewProcess(prog.Image)
		n := nub.New(p)
		n.Start() // runs to the pause trap
		c, err := nub.Pair(n)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if c.Last.Sig != arch.SigTrap || c.Last.Code != arch.TrapPause {
			t.Fatalf("%s: first event %v", a, c.Last)
		}
		ev, err := c.Continue()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !ev.Exited || ev.Status != 0 {
			t.Fatalf("%s: final event %v", a, ev)
		}
		if got := p.Stdout.String(); got != "1 1 2 3 5 8 13 21 34 55 \n" {
			t.Errorf("%s: debug run output %q", a, got)
		}
	}
}

// TestZeroRegisterStaysZero pins the hardwired-zero register (MIPS r0,
// SPARC %g0) against a debugger store into its context slot: the nub
// restores every slot on continue, and the store must be dropped, as on
// hardware, so the program runs on unharmed in both execution modes.
func TestZeroRegisterStaysZero(t *testing.T) {
	for _, a := range []string{"mips", "mipsbe", "sparc"} {
		prog, err := Build([]Source{{Name: "fib.c", Text: workload.Fib}}, Options{Arch: a, Debug: true})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		for _, noPredecode := range []bool{false, true} {
			p := link.NewProcess(prog.Image)
			p.NoPredecode = noPredecode
			n := nub.New(p)
			n.Start() // runs to the pause trap
			c, err := nub.Pair(n)
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			ar := prog.Image.Arch
			slot := n.CtxAddr() + uint32(ar.Context().RegOffs[ar.ZeroReg()])
			if err := c.StoreInt(amem.Data, slot, 4, 0x40); err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			ev, err := c.Continue()
			if err != nil {
				t.Fatalf("%s noPredecode=%v: %v", a, noPredecode, err)
			}
			if !ev.Exited || ev.Status != 0 || p.Stdout.String() != workload.Outputs["fib"] {
				t.Errorf("%s noPredecode=%v: final event %v, output %q", a, noPredecode, ev, p.Stdout.String())
			}
			c.Close()
		}
	}
}

func TestDebugCodeIsBigger(t *testing.T) {
	// §3: the no-ops at stopping points grow the code.
	for _, a := range allArches {
		plain, err := Build([]Source{{Name: "fib.c", Text: fibC}}, Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		debug, err := Build([]Source{{Name: "fib.c", Text: fibC}}, Options{Arch: a, Debug: true})
		if err != nil {
			t.Fatal(err)
		}
		pw, dw := TextWords(plain), TextWords(debug)
		if dw <= pw {
			t.Errorf("%s: debug text %d not larger than plain %d", a, dw, pw)
		}
		growth := float64(dw-pw) / float64(pw)
		t.Logf("%s: no-op growth %.1f%% (%d → %d)", a, growth*100, pw, dw)
	}
}

func TestLoaderPSGenerated(t *testing.T) {
	prog, err := Build([]Source{{Name: "fib.c", Text: fibC}}, Options{Arch: "sparc", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"/symtab", "/anchormap", "/proctable", "_stanchor__V", "(_fib)", "(_main)"} {
		if !strings.Contains(prog.LoaderPS, want) {
			t.Errorf("loader PS missing %q", want)
		}
	}
	if !strings.Contains(prog.SymtabPS, "/architecture (sparc)") {
		t.Error("symtab PS missing architecture")
	}
}

func TestMipsRuntimeProcedureTable(t *testing.T) {
	prog, err := Build([]Source{{Name: "fib.c", Text: fibC}}, Options{Arch: "mips", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Image.RPTAddr == 0 {
		t.Fatal("no runtime procedure table")
	}
	if _, ok := prog.Image.SymAddr("_procedure_table"); !ok {
		t.Fatal("no _procedure_table symbol")
	}
	// Every compiled function appears with a plausible frame size.
	found := map[string]int32{}
	for _, f := range prog.Image.Funcs {
		found[f.Name] = f.FrameSize
	}
	if found["_fib"] <= 0 {
		t.Errorf("fib frame size = %d", found["_fib"])
	}
}

func TestFaultingProgram(t *testing.T) {
	for _, a := range allArches {
		prog, err := Build([]Source{{Name: "bad.c", Text: `
int main() {
	int *p;
	p = (int *) 16;
	return *p;
}`}}, Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		p := link.NewProcess(prog.Image)
		f := p.Run()
		if f.Kind != arch.FaultSignal || f.Sig != arch.SigSegv {
			t.Errorf("%s: fault = %v, want SIGSEGV", a, f)
		}
	}
}

func TestDivideByZeroProgram(t *testing.T) {
	for _, a := range allArches {
		prog, err := Build([]Source{{Name: "dz.c", Text: `
int main() { int z; z = 0; return 5 / z; }`}}, Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		p := link.NewProcess(prog.Image)
		if f := p.Run(); f.Sig != arch.SigFPE {
			t.Errorf("%s: %v, want SIGFPE", a, f)
		}
	}
}

func TestNestedCallsInArguments(t *testing.T) {
	checkOutput(t, `
int add(int a, int b) { return a + b; }
int main() {
	printf("%d\n", add(add(1, 2), add(add(3, 4), 5)));
	return 0;
}`, "15\n")
}

func TestDeepExpressionSpill(t *testing.T) {
	checkOutput(t, `
int main() {
	int a;
	a = 1;
	printf("%d\n", ((((a+1)*2+1)*2+1)*2+1)*2 + (a+2)*(a+3)*(a+4));
	return 0;
}`, "106\n")
}

func TestFloatConditions(t *testing.T) {
	checkOutput(t, `
double d;
float f;
int main() {
	d = 0.0;
	if (d) printf("x"); else printf("zero ");
	d = 0.25;
	if (d) printf("nonzero "); else printf("x");
	f = 2.0;
	while (f > 0.5) f = f / 2.0;
	printf("%g\n", f);
	return 0;
}`, "zero nonzero 0.5\n")
}

func TestCastsEverywhere(t *testing.T) {
	checkOutput(t, `
int main() {
	int i;
	char c;
	short s;
	double d;
	i = 300;
	c = (char) i;             /* 300 -> 44 */
	s = (short) 70000;        /* 70000 -> 4464 */
	d = (double) 7 / 2;
	printf("%d %d %d %g\n", c, s, (int) d, d);
	printf("%d\n", (int) 2.75 + (int) -1.5);
	return 0;
}`, "44 4464 3 3.5\n1\n")
}

func TestRunawayTargetIsStopped(t *testing.T) {
	// An infinite loop cannot wedge the machinery: the simulator's
	// step limit turns it into a signal the nub reports, after exactly
	// MaxSteps instructions and at the same pc in both engines.
	old := machine.MaxSteps
	machine.MaxSteps = 1_000_000
	defer func() { machine.MaxSteps = old }()
	for _, a := range allArches {
		prog, err := Build([]Source{{Name: "spin.c", Text: `
int main() { for (;;) ; return 0; }`}}, Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		var pcs []uint32
		for _, noPredecode := range []bool{false, true} {
			p := link.NewProcess(prog.Image)
			p.NoPredecode = noPredecode
			f := p.Run()
			if f.Kind != arch.FaultSignal || f.Sig != arch.SigIll || f.Code != -1 {
				t.Fatalf("%s noPredecode=%v: runaway target: %v", a, noPredecode, f)
			}
			if p.State != machine.StateStopped {
				t.Fatalf("%s noPredecode=%v: state = %v", a, noPredecode, p.State)
			}
			if p.Steps != machine.MaxSteps+1 {
				t.Fatalf("%s noPredecode=%v: stopped after %d steps, want %d", a, noPredecode, p.Steps, machine.MaxSteps+1)
			}
			pcs = append(pcs, p.PC())
		}
		if pcs[0] != pcs[1] {
			t.Fatalf("%s: fused stopped at pc %#x, uncached at %#x", a, pcs[0], pcs[1])
		}
	}
}

func TestDoWhileSwitchCompoundComma(t *testing.T) {
	checkOutput(t, `
int classify(int x) {
	switch (x % 5) {
	case 0: return 100;
	case 1:
	case 2: return 200;   /* fallthrough from 1 into 2 */
	case 3: x += 1000;    /* fall into default */
	default: return x;
	}
}
int main() {
	int i;
	int acc;
	acc = 0;
	i = 0;
	do {
		acc += classify(i);
		i++;
	} while (i < 7);
	printf("%d\n", acc);
	acc <<= 2;
	acc |= 3;
	acc -= 1;
	printf("%d\n", acc);
	for (i = 0, acc = 0; i < 5; i++, acc += i) ;
	printf("%d %d\n", i, acc);
	return 0;
}`, "1807\n7230\n5 15\n")
}

func TestDoWhileRunsBodyAtLeastOnce(t *testing.T) {
	checkOutput(t, `
int main() {
	int n;
	n = 10;
	do { printf("once "); n++; } while (n < 5);
	printf("%d\n", n);
	return 0;
}`, "once 11\n")
}

func TestSwitchBreakAndNesting(t *testing.T) {
	checkOutput(t, `
int main() {
	int i;
	for (i = 0; i < 6; i++) {
		switch (i) {
		case 0: printf("z"); break;
		case 2:
		case 4: printf("e"); break;
		case 5: printf("f"); continue;
		default: printf("o"); break;
		}
		printf(".");
	}
	printf("\n");
	return 0;
}`, "z.o.e.o.e.f\n")
}

func TestCompoundAssignErrors(t *testing.T) {
	_, err := Build([]Source{{Name: "x.c", Text: `
int a[4];
int main() { int i; i = 0; a[i++] += 1; return 0; }`}}, Options{Arch: "vax"})
	if err == nil || !strings.Contains(err.Error(), "side effects") {
		t.Fatalf("err = %v", err)
	}
	_, err = Build([]Source{{Name: "y.c", Text: `
int main() { switch (1) { case 1: ; case 1: ; } return 0; }`}}, Options{Arch: "vax"})
	if err == nil || !strings.Contains(err.Error(), "duplicate case") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrintfHexAndUnsigned(t *testing.T) {
	checkOutput(t, `
int main() {
	unsigned u;
	u = 0 - 1;
	printf("%x %u\n", 255, u);
	printf("%x\n", 4096);
	return 0;
}`, "ff 4294967295\n1000\n")
}

func TestUnions(t *testing.T) {
	// Members share storage: writing one is visible through another.
	checkOutput(t, `
union value { int i; unsigned u; char c; };
union value v;
union number { double d; int half[2]; };
union number n;
int main() {
	v.i = -1;
	printf("%d %d\n", (int) v.u == -1, v.c);   /* all-ones through every view */
	v.c = 'A';
	printf("%d\n", v.i != -1);                 /* low byte changed the int */
	printf("%d\n", sizeof(union value));
	n.d = 1.0;
	printf("%d\n", n.half[0] != 0 || n.half[1] != 0);
	printf("%d %d\n", sizeof(union number), sizeof(n.half));
	return 0;
}`, "1 -1\n1\n4\n1\n8 8\n")
	// Unions nest in structs and pass through pointers.
	checkOutput(t, `
union u { int i; char c; };
struct box { int tag; union u body; };
struct box b;
int get(union u *p) { return p->i; }
int main() {
	b.tag = 1;
	b.body.i = 42;
	printf("%d %d\n", b.body.i, get(&b.body));
	return 0;
}`, "42 42\n")
}

func TestEnumsRuntime(t *testing.T) {
	checkOutput(t, `
enum op { ADD, SUB = 10, NEG };
int apply(int op, int a, int b) {
	switch (op) {
	case ADD: return a + b;
	case SUB: return a - b;
	case NEG: return -a;
	}
	return -999;
}
int main() {
	printf("%d %d %d\n", apply(ADD, 7, 2), apply(SUB, 7, 2), apply(NEG, 7, 0));
	printf("%d %d %d\n", ADD, SUB, NEG);
	return 0;
}`, "9 5 -7\n0 10 11\n")
}

func TestBracedInitializers(t *testing.T) {
	checkOutput(t, `
int primes[5] = {2, 3, 5, 7, 11};
int part[4] = {9, 8};                 /* trailing elements zero */
int sized[] = {4, 5, 6};              /* length from the initializer */
char msg[] = "wide";
char small[8] = "ok";
struct point { int x; int y; };
struct point origin = {3, 4};
struct line { struct point a; struct point b; } seg = {{1, 2}, {3, 4}};
double weights[2] = {0.5, 1.5};
static int hidden[3] = {7, 7, 7};
int main() {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 5; i++) sum = sum + primes[i];
	printf("%d\n", sum);
	printf("%d %d %d %d\n", part[0], part[1], part[2], part[3]);
	printf("%d %d\n", sizeof(sized) / sizeof(sized[0]), sized[2]);
	printf("%s %d %s\n", msg, sizeof(msg), small);
	printf("%d %d\n", origin.x + origin.y, seg.b.y);
	printf("%g\n", weights[0] + weights[1]);
	printf("%d\n", hidden[0] + hidden[1] + hidden[2]);
	return 0;
}`, "28\n9 8 0 0\n3 6\nwide 5 ok\n7 4\n2\n21\n")
}

func TestInitializerErrors(t *testing.T) {
	for _, src := range []string{
		`int a[2] = {1, 2, 3}; int main() { return 0; }`,
		`char s[2] = "toolong"; int main() { return 0; }`,
		`int x = {1}; int main() { return 0; }`,
		`struct p { int x; }; struct p v = {1, 2}; int main() { return 0; }`,
		`int main() { int a[2] = {1, 2}; return 0; }`,
	} {
		if _, err := Build([]Source{{Name: "bad.c", Text: src}}, Options{Arch: "vax"}); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestGoto(t *testing.T) {
	checkOutput(t, `
int main() {
	int i;
	int sum;
	i = 0; sum = 0;
again:
	sum = sum + i;
	i = i + 1;
	if (i < 5) goto again;
	if (sum > 100) goto skip;
	printf("%d\n", sum);
skip:
	/* goto out of a nested loop, the classic use */
	for (i = 0; i < 10; i++) {
		int j;
		for (j = 0; j < 10; j++)
			if (i * j == 12) goto found;
	}
	printf("none\n");
	goto done;
found:
	printf("%d\n", i);
done:
	return 0;
}`, "10\n2\n")
}

func TestGotoErrors(t *testing.T) {
	for _, src := range []string{
		`int main() { goto nowhere; return 0; }`,
		`int main() { x: x: return 0; }`,
	} {
		if _, err := Build([]Source{{Name: "bad.c", Text: src}}, Options{Arch: "mips"}); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestFloatGlobalInitializers(t *testing.T) {
	// float initializers use the 32-bit image; long double uses the
	// 80-bit extended image on the 68020 and 64 bits elsewhere.
	src := `
float fg = 1.25;
double dg = -2.5;
long double lg = 3.75;
int main() {
	printf("%g %g %g\n", fg, dg, lg);
	printf("%g\n", fg + dg + lg);
	return 0;
}`
	checkOutput(t, src, "1.25 -2.5 3.75\n2.5\n")
}
