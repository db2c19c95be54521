package symtab

import (
	"strings"
	"testing"
	"testing/quick"

	"ldb/internal/cc"
	"ldb/internal/ps"
)

func quickCheck(f any) error { return quick.Check(f, nil) }

var conf = &cc.TargetConf{Name: "sparc", LDoubleSize: 8}

const fibSrc = `void fib(int n)
{
	static int a[20];
	if (n > 20) n = 20;
	a[0] = a[1] = 1;
	{	int i;
		for (i=2; i<n; i++)
			a[i] = a[i-1] + a[i-2];
	}
	{	int j;
		for (j=0; j<n; j++)
			printf("%d ", a[j]);
	}
	printf("\n");
}
int main() { fib(10); return 0; }
`

func compileFib(t *testing.T) *cc.Unit {
	t.Helper()
	u, err := cc.Compile(fibSrc, "fib.c", conf)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// loadTable emits the program PS (without a linker) and reads it back
// by wrapping it in a minimal loader table.
func loadTable(t *testing.T, u *cc.Unit, deferred bool) *Table {
	t.Helper()
	symPS := EmitProgramPSOpts([]*cc.Unit{u}, conf.Name, deferred)
	loader := "<<\n/symtab " + symPS + "\n/anchormap << /" + u.AnchorSym + " 16#1000 >>\n/proctable [ 16#100 (_fib) 16#200 (_main) ]\n/nm << /_fib 16#100 /_main 16#200 >>\n>>"
	in := ps.New()
	tbl, err := Load(in, loader)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestEmitAndLoadBothModes(t *testing.T) {
	u := compileFib(t)
	for _, deferred := range []bool{false, true} {
		tbl := loadTable(t, u, deferred)
		if got, err := tbl.Architecture(); err != nil || got != "sparc" {
			t.Fatalf("architecture = %q (%v)", got, err)
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("validate (deferred=%v): %v", deferred, err)
		}
		// Resolve fib via externs.
		e, name, ok := tbl.ProcEntryByName("fib")
		if !ok {
			t.Fatalf("no fib entry (deferred=%v)", deferred)
		}
		if e.Name() != "fib" || e.Kind() != "procedure" {
			t.Fatalf("entry: %s %s", e.Name(), e.Kind())
		}
		info, err := tbl.ProcInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		stops, err := tbl.Loci(info)
		if err != nil {
			t.Fatal(err)
		}
		if len(stops) != 14 {
			t.Fatalf("loci = %d, want 14 (Fig. 1)", len(stops))
		}
		// §2: the 9th element of fib's stopping-point array contains
		// the entry for the symbol j.
		vis, err := tbl.EntryRef(stops[9].Visible)
		if err != nil || vis == nil {
			t.Fatalf("stop 9 visible: %v", err)
		}
		je := Entry{D: vis, T: tbl}
		if je.Name() != "j" {
			t.Fatalf("stop 9 sees %q, want j", je.Name())
		}
		// Walking up from stop 9: j, a, n, fib visible.
		var chain []string
		for e := je; ; {
			chain = append(chain, e.Name())
			up, ok := e.Uplink()
			if !ok {
				break
			}
			e = up
		}
		if strings.Join(chain, " ") != "j a n fib" {
			t.Fatalf("uplink chain = %v", chain)
		}
	}
}

func TestResolveAt(t *testing.T) {
	u := compileFib(t)
	tbl := loadTable(t, u, true)
	_, name, _ := tbl.ProcEntryByName("fib")
	info, _ := tbl.ProcInfo(name)
	stops, _ := tbl.Loci(info)
	// At stop 7 (the i-loop body) i, a, n, fib, main are visible; j is
	// not.
	for _, id := range []string{"i", "a", "n", "fib", "main"} {
		if _, err := tbl.ResolveAt(name, &stops[7], id); err != nil {
			t.Errorf("resolve %s at stop 7: %v", id, err)
		}
	}
	if _, err := tbl.ResolveAt(name, &stops[7], "j"); err == nil {
		t.Error("j resolved at stop 7")
	}
	// At stop 9, j is visible but i is not.
	if _, err := tbl.ResolveAt(name, &stops[9], "j"); err != nil {
		t.Errorf("resolve j at stop 9: %v", err)
	}
	if _, err := tbl.ResolveAt(name, &stops[9], "i"); err == nil {
		t.Error("i resolved at stop 9")
	}
}

func TestFileScopeStaticsResolve(t *testing.T) {
	u, err := cc.Compile(`
static int counter;
int bump() { counter = counter + 1; return counter; }
`, "s.c", conf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := loadTable(t, u, true)
	_, name, ok := tbl.ProcEntryByName("bump")
	if !ok {
		t.Fatal("no bump")
	}
	info, _ := tbl.ProcInfo(name)
	stops, _ := tbl.Loci(info)
	e, err := tbl.ResolveAt(name, &stops[0], "counter")
	if err != nil {
		t.Fatalf("counter via statics dict: %v", err)
	}
	if e.Decl() != "int counter" {
		t.Fatalf("decl = %q", e.Decl())
	}
	// counter is NOT in externs.
	if _, ok := tbl.ExternEntry("counter"); ok {
		t.Error("static leaked into externs")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	u := compileFib(t)
	symPS := EmitProgramPSOpts([]*cc.Unit{u}, conf.Name, true)
	// Loader table with the WRONG anchor: validation must fail (§2).
	loader := "<<\n/symtab " + symPS + "\n/anchormap << /_stanchor__Vdeadbeef_c0ffee 16#1000 >>\n/proctable [ ]\n>>"
	in := ps.New()
	tbl, err := Load(in, loader)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err == nil {
		t.Fatal("validation passed with mismatched anchors")
	}
}

func TestDeferredEntriesAreStringsUntilUsed(t *testing.T) {
	u := compileFib(t)
	tbl := loadTable(t, u, true)
	// Find some entry binding in the environment: it is a string, and
	// stays one — the table is read-only — while access realizes it
	// once into a frozen dictionary every reader shares (§5's
	// replacement, kept in the table's memo).
	var name string
	for _, k := range tbl.Env.Keys() {
		if v, _ := tbl.Env.Get(k); v.Kind == ps.KString && strings.HasPrefix(ps.Cvs(k), "U0S") && !strings.Contains(ps.Cvs(k), ".") {
			name = ps.Cvs(k)
			break
		}
	}
	if name == "" {
		t.Fatal("no deferred entries found")
	}
	d, err := tbl.EntryOf(name)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Frozen() {
		t.Errorf("realized entry %s is writable", name)
	}
	if v, _ := tbl.Env.GetName(name); v.Kind != ps.KString {
		t.Fatalf("entry %s rewritten in the environment: %s", name, v.TypeName())
	}
	again, err := tbl.EntryOf(name)
	if err != nil || again != d {
		t.Fatalf("entry %s realized twice (%p then %p, %v)", name, d, again, err)
	}
}

func TestEagerAndDeferredSizesDiffer(t *testing.T) {
	u := compileFib(t)
	eager := EmitProgramPSOpts([]*cc.Unit{u}, conf.Name, false)
	deferred := EmitProgramPSOpts([]*cc.Unit{u}, conf.Name, true)
	if len(eager) == 0 || len(deferred) == 0 {
		t.Fatal("empty emission")
	}
	// Both must load to the same structure.
	for _, mode := range []bool{false, true} {
		tbl := loadTable(t, u, mode)
		if _, _, ok := tbl.ProcEntryByName("main"); !ok {
			t.Fatalf("main missing in mode deferred=%v", mode)
		}
	}
}

func TestTypeDictsShared(t *testing.T) {
	u, err := cc.Compile(`int x; int y; int add(int a, int b) { return a + b; }`, "t.c", conf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := loadTable(t, u, false)
	ex, _ := tbl.ExternEntry("x")
	ey, _ := tbl.ExternEntry("y")
	if ex.TypeDict() == nil || ex.TypeDict() != ey.TypeDict() {
		t.Error("int type dictionary not shared between entries")
	}
	if d, _ := ex.TypeDict().GetName("decl"); d.S != "int %s" {
		t.Errorf("decl = %q", d.S)
	}
	if p, ok := ex.TypeDict().GetName("printer"); !ok || p.Kind != ps.KArray || !p.Exec {
		t.Error("printer is not a procedure")
	}
}

func TestProcContaining(t *testing.T) {
	u := compileFib(t)
	tbl := loadTable(t, u, true)
	if p, ok := tbl.ProcContaining(0x150); !ok || p.Name != "_fib" {
		t.Fatalf("0x150 → %v %v", p, ok)
	}
	if p, ok := tbl.ProcContaining(0x250); !ok || p.Name != "_main" {
		t.Fatalf("0x250 → %v %v", p, ok)
	}
	if _, ok := tbl.ProcContaining(0x50); ok {
		t.Fatal("0x50 mapped to a procedure")
	}
	if a, err := tbl.GlobalAddr("_fib"); err != nil || a != 0x100 {
		t.Fatalf("GlobalAddr = %#x %v", a, err)
	}
	if a, err := tbl.AnchorAddr(u.AnchorSym); err != nil || a != 0x1000 {
		t.Fatalf("AnchorAddr = %#x %v", a, err)
	}
}

func TestPSStringEscapingProperty(t *testing.T) {
	// Any byte string survives the psStr → scanner round trip — the
	// foundation under deferred entry bodies, which nest arbitrarily
	// many quoted strings.
	f := func(raw []byte) bool {
		s := string(raw)
		in := ps.New()
		if err := in.RunString(psStr(s)); err != nil {
			return false
		}
		if len(in.Stack) != 1 || in.Stack[0].Kind != ps.KString {
			return false
		}
		return in.Stack[0].S == s
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
	// Double nesting: a deferred body containing a string literal.
	inner := "has (parens) and \\ slashes\nand newlines"
	body := "<< /name " + psStr(inner) + " >>"
	in := ps.New()
	if err := in.RunString(psStr(body)); err != nil {
		t.Fatal(err)
	}
	quoted, _ := in.Pop()
	if err := in.RunString(quoted.S); err != nil {
		t.Fatal(err)
	}
	d, _ := in.Pop()
	v, _ := d.D.GetName("name")
	if v.S != inner {
		t.Fatalf("nested round trip: %q", v.S)
	}
}

func TestEntryRefForms(t *testing.T) {
	u := compileFib(t)
	tbl := loadTable(t, u, true)
	_, name, _ := tbl.ProcEntryByName("fib")
	// A literal name (the deferred reference form) resolves through the
	// environment; so does the same name as a string.
	for _, o := range []ps.Object{ps.LitName(name), ps.Str(name)} {
		d, err := tbl.EntryRef(o)
		if err != nil || d == nil {
			t.Fatalf("EntryRef(%s): %v %v", ps.Format(o), d, err)
		}
	}
	// Null means "no entry" (the tree root's uplink).
	if d, err := tbl.EntryRef(ps.Null()); err != nil || d != nil {
		t.Fatalf("EntryRef(null) = %v %v", d, err)
	}
	// Anything else is a malformed table.
	if _, err := tbl.EntryRef(ps.Int(7)); err == nil {
		t.Fatal("EntryRef accepted an int")
	}
}

// linearProcContaining is the reference ProcContaining: a scan for the
// greatest address at or below pc, the last listed winning ties.
func linearProcContaining(procs []ProcAddr, pc uint32) (ProcAddr, bool) {
	best := -1
	for i, p := range procs {
		if p.Addr <= pc && (best < 0 || p.Addr >= procs[best].Addr) {
			best = i
		}
	}
	if best < 0 {
		return ProcAddr{}, false
	}
	return procs[best], true
}

// TestProcContainingMatchesLinearScan checks the binary search against
// the linear scan on proctables with ties, out-of-order entries and
// malformed pairs, at every pc near every procedure and at the ends of
// the address space.
func TestProcContainingMatchesLinearScan(t *testing.T) {
	for _, c := range []struct {
		name      string
		proctable string
		malformed bool
	}{
		{"empty", "", false},
		{"one", "16#100 (_a)", false},
		{"sorted", "16#100 (_a) 16#200 (_b) 16#300 (_c)", false},
		{"ties", "16#100 (_a) 16#200 (_b1) 16#200 (_b2) 16#200 (_b3) 16#300 (_c)", false},
		{"tie at the start", "16#100 (_a1) 16#100 (_a2) 16#200 (_b)", false},
		{"unsorted", "16#300 (_c) 16#100 (_a) 16#200 (_b) 16#100 (_a2)", false},
		{"address zero and top", "0 (_zero) 16#ffffffff (_top)", false},
		{"odd count", "16#100 (_a) 16#200", true},
		{"name slot holds an int", "16#100 (_a) 16#200 42", true},
		{"address slot holds a name", "16#100 (_a) /x (_b)", true},
	} {
		tbl, err := Load(ps.New(), "<< /symtab << >> /proctable [ "+c.proctable+" ] >>")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		procs, perr := tbl.ProcTable()
		if (perr != nil) != c.malformed {
			t.Fatalf("%s: ProcTable error = %v", c.name, perr)
		}
		pcs := []uint32{0, 1, 0xfffffffe, 0xffffffff}
		for _, p := range procs {
			pcs = append(pcs, p.Addr-1, p.Addr, p.Addr+1)
		}
		for _, pc := range pcs {
			want, wantOK := linearProcContaining(procs, pc)
			if perr != nil {
				want, wantOK = ProcAddr{}, false
			}
			if got, ok := tbl.ProcContaining(pc); got != want || ok != wantOK {
				t.Errorf("%s: ProcContaining(%#x) = %v %v, want %v %v", c.name, pc, got, ok, want, wantOK)
			}
		}
	}
}

// TestProcContainingAllocatesNothing pins the cost of the lookup that
// names every frame of every stack walk.
func TestProcContainingAllocatesNothing(t *testing.T) {
	tbl := loadTable(t, compileFib(t), true)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tbl.ProcContaining(0x150); !ok {
			t.Fatal("0x150 is in no procedure")
		}
	})
	if allocs != 0 {
		t.Errorf("ProcContaining makes %.0f allocations, want 0", allocs)
	}
}
