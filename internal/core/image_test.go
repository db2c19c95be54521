package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/driver"
	"ldb/internal/nub"
	"ldb/internal/ps"
)

// cachedBytes reports the loader text the cache holds.
func (c *imageCache) cachedBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

var freshTexts atomic.Int64

// freshText returns loaderPS made distinct from every other text this
// process attaches, so that no earlier attach or test run has read it.
func freshText(loaderPS string) string {
	return fmt.Sprintf("%s%% fresh text %d\n", loaderPS, freshTexts.Add(1))
}

// sighted makes the next attach of text share the cached image: the
// cache keeps a text from its second attach on.
func sighted(t *testing.T, text string) {
	t.Helper()
	if _, err := sharedTable(text); err != nil {
		t.Fatal(err)
	}
}

// attachText launches prog under a nub and attaches d to it with the
// loader text loaderPS.
func attachText(t *testing.T, d *Debugger, prog *driver.Program, loaderPS string) *Target {
	t.Helper()
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	tgt, err := d.AttachClient("fib", client, loaderPS)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// stopAt plants a breakpoint at proc's stopping point index and runs
// the target to it.
func stopAt(t *testing.T, tgt *Target, proc string, index int) {
	t.Helper()
	if _, err := tgt.BreakStop(proc, index); err != nil {
		t.Fatal(err)
	}
	if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
		t.Fatalf("continue to %s@%d: %v %v", proc, index, ev, err)
	}
}

// isPSError reports whether err is the PostScript error name.
func isPSError(err error, name string) bool {
	var pe *ps.Error
	return errors.As(err, &pe) && pe.Name == name
}

// TestAttachSharesOneImage checks that the first attach of a loader
// text reads it for itself and later ones share one table, whatever
// the attaching debuggers have defined, and that the uncached read
// makes a table of its own.
func TestAttachSharesOneImage(t *testing.T) {
	prog := buildFib(t, "sparc")
	text := freshText(prog.LoaderPS)
	d1, err := New(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Names a loader table could pick up from the attaching debugger,
	// were it read on that debugger's dictionary stack.
	runPS(t, d1, "/U0T1 1 def /U0S1 (<< >>) def /ArrayLimit 3 store true")
	runPS(t, d2, "/U0T1 2 def /anchors [ ] def true")
	first := attachText(t, d1, prog, text)
	t1 := attachText(t, d2, prog, text)
	t2 := attachText(t, d1, prog, text)
	t3 := attachText(t, d2, prog, text)
	if first.Table == t1.Table {
		t.Fatal("the first attach of a text kept its table")
	}
	if t1.Table != t2.Table || t1.Table != t3.Table {
		t.Fatal("later attaches of one loader text read it more than once")
	}
	fresh, err := LoadTable(text)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == t1.Table {
		t.Fatal("LoadTable returned the cached table")
	}
}

// TestLoadIgnoresAttachedTargets checks that a loader table reads only
// its own text: a name only another, already attached table defines is
// undefined, alone and after that table's target is current.
func TestLoadIgnoresAttachedTargets(t *testing.T) {
	prog := buildFib(t, "sparc")
	if !strings.Contains(prog.LoaderPS, "/U0T1 ") {
		t.Fatal("fib's table no longer defines U0T1")
	}
	// A well-formed table apart from its use of U0T1, a type dictionary
	// fib's table defines.
	borrower := "<< /symtab << /architecture (sparc) /anchors [ ] /borrowed U0T1 >> /anchormap << >> /proctable [ ] >>"
	d, err := New(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := d.AttachClient("alone", client, borrower); !isPSError(err, "undefined") {
		t.Fatalf("borrowing table alone: err = %v, want undefined", err)
	}
	if _, err := LoadTable(borrower); !isPSError(err, "undefined") {
		t.Fatalf("borrowing table read afresh: err = %v, want undefined", err)
	}
	attachText(t, d, prog, prog.LoaderPS)
	if _, err := d.In.Eval("U0T1"); err != nil {
		t.Fatalf("fib's table is not on the debugger's dictionary stack: %v", err)
	}
	// A text of its own, so that it is read now and not taken from the
	// cache.
	if _, err := d.AttachClient("after", client, freshText(borrower)); !isPSError(err, "undefined") {
		t.Fatalf("borrowing table after fib: err = %v, want undefined", err)
	}
}

// TestImageCacheIsBounded attaches a thousand distinct loader texts
// twice each, so that the cache keeps them, each realizing some of its
// table: the cache never holds more loader text than its bound, and the
// live heap stops growing once it is full.
func TestImageCacheIsBounded(t *testing.T) {
	prog := buildFib(t, "sparc")
	pad := "\n%" + strings.Repeat("x", 16<<10) + "\n"
	const n = 1000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var half uint64
	for i := 0; i < n; i++ {
		d, err := New(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		if err != nil {
			t.Fatal(err)
		}
		text := fmt.Sprintf("%s%s%% text %d\n", prog.LoaderPS, pad, i)
		sighted(t, text)
		tgt, err := d.AttachClient("fib", client, text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tgt.ProcStops("fib"); err != nil {
			t.Fatal(err)
		}
		client.Close()
		if got := images.cachedBytes(); got > imageCacheBytes {
			t.Fatalf("after %d texts the cache holds %d bytes, bound %d", i+1, got, imageCacheBytes)
		}
		if i == n/2 {
			half = heap()
		}
	}
	if got := images.cachedBytes(); got < imageCacheBytes/2 {
		t.Errorf("the cache holds %d bytes after %d texts; it kept too few to reach its bound", got, n)
	}
	end := heap()
	t.Logf("live heap %d bytes half way, %d at the end", half, end)
	if end > half+half/4 {
		t.Errorf("live heap grew from %d to %d bytes over the last %d texts", half, end, n/2)
	}
}

// TestConcurrentAttachesShareImage runs whole sessions on eight
// goroutines that attach, at once, a loader text attached only once
// before: all of them get the one table, read once, and the same
// transcript.
func TestConcurrentAttachesShareImage(t *testing.T) {
	prog := buildFib(t, "mips")
	text := freshText(prog.LoaderPS)
	sighted(t, text)
	const g = 8
	var (
		wg    sync.WaitGroup
		trs   [g]string
		tabs  [g]any
		start = make(chan struct{})
	)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tr, tab, err := sharedSession(prog, text)
			if err != nil {
				t.Error(err)
			}
			trs[i], tabs[i] = tr, tab
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < g; i++ {
		if tabs[i] != tabs[0] {
			t.Errorf("session %d got its own table", i)
		}
		if trs[i] != trs[0] {
			t.Errorf("session %d transcript differs:\n%s\n-- want --\n%s", i, trs[i], trs[0])
		}
	}
}

// sharedSession runs break, continue, print, eval and step on a new
// debugger attached with loader text text.
func sharedSession(prog *driver.Program, text string) (string, any, error) {
	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		return "", nil, err
	}
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		return "", nil, err
	}
	defer client.Close()
	tgt, err := d.AttachClient("fib", client, text)
	if err != nil {
		return "", nil, err
	}
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		return "", nil, err
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		return "", nil, err
	}
	for _, name := range []string{"a", "i", "n"} {
		if err := tgt.Print(name); err != nil {
			return "", nil, err
		}
	}
	v, err := tgt.EvalInt("a[i-1] + a[i-2]")
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&out, "eval %d\n", v)
	if _, err := tgt.Step(); err != nil {
		return "", nil, err
	}
	ctx, err := tgt.ContextAt(tgt.Frames[0])
	if err != nil {
		return "", nil, err
	}
	if ctx.Stop == nil {
		return "", nil, errors.New("step stopped at no stopping point")
	}
	fmt.Fprintf(&out, "stepped to %s@%d\n", ctx.ProcEntryName, ctx.Stop.Index)
	return out.String(), tgt.Table, nil
}

// TestWhereResultsArePerTarget attaches two targets that share one
// table and moves the static array a in one target's anchor table: each
// target's location of a follows its own memory, before and after the
// other target has memoized its own.
func TestWhereResultsArePerTarget(t *testing.T) {
	prog := buildFib(t, "sparc")
	d, err := New(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sighted(t, prog.LoaderPS)
	t1 := attachText(t, d, prog, prog.LoaderPS)
	t2 := attachText(t, d, prog, prog.LoaderPS)
	if t1.Table != t2.Table {
		t.Fatal("the two targets do not share a table")
	}
	stops, fib, err := t1.ProcStops("fib")
	if err != nil || len(stops) < 8 {
		t.Fatalf("fib's stopping points: %d, %v", len(stops), err)
	}
	a, err := t1.Table.ResolveAt(fib, &stops[7], "a")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := a.D.GetName("where")
	if len(w.A.E) != 3 || !isName(w.A.E[2], "LazyData") {
		t.Fatalf("a's where is %s, not an anchor-table fetch", ps.Format(w))
	}
	anchor, err := t1.Table.AnchorAddr(w.A.E[0].S)
	if err != nil {
		t.Fatal(err)
	}
	slot := anchor + 4*uint32(w.A.E[1].I)

	loc1, err := t1.WhereLoc(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.Client.StoreInt(amem.Data, slot, 4, uint64(loc1.Offset+64)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		loc2, err := t2.WhereLoc(a)
		if err != nil {
			t.Fatal(err)
		}
		if loc2.Offset != loc1.Offset+64 {
			t.Fatalf("round %d: target 2 locates a at %#x, its anchor table says %#x", i, loc2.Offset, loc1.Offset+64)
		}
		again, err := t1.WhereLoc(a)
		if err != nil {
			t.Fatal(err)
		}
		if again.Offset != loc1.Offset {
			t.Fatalf("round %d: target 1 locates a at %#x after target 2 did, was %#x", i, again.Offset, loc1.Offset)
		}
	}
	if desc, err := t2.whereDesc(a); err != nil || desc != fmt.Sprintf("absolute d %d", loc1.Offset+64) {
		t.Errorf("target 2 describes a as %q (%v)", desc, err)
	}
}

// TestSharedTableIsReadOnly checks that PostScript cannot write into a
// shared table: an entry, a type dictionary, a loci element, the
// environment and the loader dictionary all refuse with invalidaccess.
func TestSharedTableIsReadOnly(t *testing.T) {
	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		t.Fatal(err)
	}
	tgt := launch(t, d, "sparc", "fib.c", fibC)
	stopAt(t, tgt, "fib", 7)
	e, name, ok := tgt.Table.ProcEntryByName("fib")
	if !ok {
		t.Fatal("no fib")
	}
	info, err := tgt.Table.ProcInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	loci, err := tgt.Table.GetMemo(info, "loci")
	if err != nil || loci.Kind != ps.KArray || len(loci.A.E) == 0 || loci.A.E[0].Kind != ps.KDict {
		t.Fatalf("loci: %s, %v", ps.Format(loci), err)
	}
	for _, c := range []struct {
		what string
		d    *ps.Dict
	}{
		{"entry", e.D},
		{"type dictionary", e.TypeDict()},
		{"loci element", loci.A.E[0].D},
		{"procedure side dictionary", info},
		{"environment", tgt.Table.Env},
		{"loader dictionary", tgt.Table.Loader},
	} {
		d.In.Push(ps.DictObj(c.d))
		if err := d.In.RunString("/where 1 put"); !isPSError(err, "invalidaccess") {
			t.Errorf("put into the %s: err = %v, want invalidaccess", c.what, err)
		}
		d.In.Stack = d.In.Stack[:0]
	}
	if err := d.In.RunString("U0T1 /size 1 put"); !isPSError(err, "invalidaccess") {
		t.Errorf("put into a type dictionary by name: err = %v, want invalidaccess", err)
	}
	d.In.Stack = d.In.Stack[:0]
	if got := printOf(t, d, tgt, "a"); got == "" {
		t.Error("print a wrote nothing after the refused writes")
	}
}

// structC declares a global struct for the GetMemo tests.
const structC = `struct pt { int x; int y; } p;
int main() { p.x = 3; p.y = 4; return 0; }
`

// TestGetMemoRealizesOnce prints a struct twice: its /&fields body is
// realized by the first print only.
func TestGetMemoRealizesOnce(t *testing.T) {
	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		t.Fatal(err)
	}
	// A text of its own, so no other test has realized this table.
	prog, err := driver.Build([]driver.Source{{Name: "pt.c", Text: structC}}, driver.Options{Arch: "sparc", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	tgt := attachText(t, d, prog, freshText(prog.LoaderPS))
	stopAt(t, tgt, "main", 0)
	first := printOf(t, d, tgt, "p")
	n := tgt.Table.Realized()
	if second := printOf(t, d, tgt, "p"); second != first {
		t.Fatalf("second print %q, first %q", second, first)
	}
	if got := tgt.Table.Realized(); got != n {
		t.Errorf("second print realized %d more bodies", got-n)
	}
}

// TestGetMemoRunsUnderRealizeBudget prints a struct whose deferred
// /&fields body loops forever: the print fails with a timeout once the
// realize budget is spent, long before the interpreter's own limit.
func TestGetMemoRunsUnderRealizeBudget(t *testing.T) {
	prog, err := driver.Build([]driver.Source{{Name: "pt.c", Text: structC}}, driver.Options{Arch: "sparc", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	const fields = `/&fields ([ [ \(x\) 0 U0T2 ] [ \(y\) 4 U0T2 ] ]) put`
	if !strings.Contains(prog.LoaderPS, fields) {
		t.Fatalf("no /&fields body like %s in:\n%s", fields, prog.LoaderPS)
	}
	loops := strings.Replace(prog.LoaderPS, fields, `/&fields ({ } loop) put`, 1)

	// What a loop costs under the realize budget, for scale.
	in := ps.New()
	begin := time.Now()
	_ = in.WithBudget(1_000_000, 0, func() error { return in.RunString("{ } loop") })
	budget := time.Since(begin)

	var out strings.Builder
	d, err := New(&out)
	if err != nil {
		t.Fatal(err)
	}
	tgt := attachText(t, d, prog, loops)
	stopAt(t, tgt, "main", 0)
	begin = time.Now()
	err = tgt.Print("p")
	took := time.Since(begin)
	if !isPSError(err, "timeout") {
		t.Fatalf("print p: err = %v, want timeout", err)
	}
	// The interpreter's own limit is 200 times the realize budget.
	if took > 20*budget+time.Second {
		t.Errorf("print p took %v to time out; a realize budget's loop takes %v", took, budget)
	}
}
