package symtab

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ldb/internal/ps"
)

// Table is the debugger's view of a program's symbol tables: the
// loader table (§3) wrapping the top-level dictionary (§2). A table is
// read-only once Load returns — every dictionary and array reachable
// from it is frozen (ps.Freeze), and deferred bodies are realized into
// the table's own memo instead of being written back — so any number
// of debuggers and targets, on any goroutines, may share one. What
// depends on a target's memory (where results) stays with the target.
type Table struct {
	Loader *ps.Dict
	Top    *ps.Dict
	// Env holds this program's definitions. Each table gets its own
	// environment so several targets can share one interpreter without
	// their symbol names colliding (§7: no target state in globals).
	Env *ps.Dict

	arch     string
	archErr  error
	validErr error
	procs    []ProcAddr // the proctable as emitted
	byAddr   []ProcAddr // procs stably sorted by address
	procsErr error

	base *ps.Interp // forked to run the table's PostScript

	mu       sync.Mutex            //ldb:lock symtab.table 61
	realized map[memoKey]ps.Object // guarded by mu
	stops    map[*ps.Dict][]Stop   // Loci results by procedure dictionary; guarded by mu
}

// memoKey names a realized deferred value: the value under key in
// dictionary d (an entry of Env, or a /loci or /&fields value).
type memoKey struct {
	d   *ps.Dict
	key string
}

// Execution budgets for untrusted symbol-table code. A loader table
// comes from the file system, not from the program being debugged, but
// §2's validation story assumes it can be stale, truncated, or wrong —
// so it gets a step-and-depth allowance far below the interpreter's
// default rather than the run of the machine. Deferred entry bodies
// (realized lazily during accessors) are smaller still.
const (
	loadBudgetSteps    = 2_000_000
	loadBudgetDepth    = 100
	realizeBudgetSteps = 1_000_000
	realizeBudgetDepth = 100
)

// Load interprets loader-table PostScript (the output of link.LoaderPS)
// and wraps the resulting dictionary. The table's PostScript runs in
// forks of base, an interpreter that has read its initial PostScript
// (frozen, if tables on several goroutines share it) or a fresh one:
// the table reads its text, and later realizes its deferred bodies, on
// a dictionary stack of base's system and user dictionaries and the
// table's own environment, so what it defines depends on the text
// alone, never on the state of whoever attaches it. The untrusted code
// runs under an explicit step-and-depth budget: a hostile or corrupt
// table errors out instead of spinning or recursing the interpreter
// into the ground. Load always reads afresh; embedders that attach one
// program many times share its table.
func Load(base *ps.Interp, loaderPS string) (*Table, error) {
	env := ps.NewDict(0)
	in := base.Fork()
	in.DStack = append(in.DStack, env)
	err := in.WithBudget(loadBudgetSteps, loadBudgetDepth, func() error {
		return in.RunStringNamed(loaderPS, "<loader>")
	})
	if err != nil {
		return nil, fmt.Errorf("symtab: reading loader table: %w", err)
	}
	o, err := in.Pop()
	if err != nil || o.Kind != ps.KDict {
		return nil, fmt.Errorf("symtab: loader table did not yield a dictionary")
	}
	top, ok := o.D.GetName("symtab")
	if !ok || top.Kind != ps.KDict {
		return nil, fmt.Errorf("symtab: loader table has no /symtab")
	}
	ps.Freeze(ps.DictObj(env))
	ps.Freeze(o)
	t := &Table{Loader: o.D, Top: top.D, Env: env, base: base}
	t.arch, t.archErr = t.readArchitecture()
	t.validErr = t.validate()
	t.procs, t.procsErr = t.readProcTable()
	t.byAddr = t.procs
	byAddr := func(a, b ProcAddr) int { return cmp.Compare(a.Addr, b.Addr) }
	if !slices.IsSortedFunc(t.procs, byAddr) {
		t.byAddr = slices.Clone(t.procs)
		slices.SortStableFunc(t.byAddr, byAddr)
	}
	return t, nil
}

// Architecture returns the name recorded in the top-level dictionary,
// which ldb uses at debug time to find its machine-dependent code and
// data (§2). A missing or non-string entry is an error, not an empty
// name: an empty name would silently fail the arch match downstream.
func (t *Table) Architecture() (string, error) { return t.arch, t.archErr }

func (t *Table) readArchitecture() (string, error) {
	v, ok := t.Top.GetName("architecture")
	if !ok {
		return "", fmt.Errorf("symtab: top-level dictionary has no /architecture")
	}
	if v.Kind != ps.KString && v.Kind != ps.KName {
		return "", fmt.Errorf("symtab: /architecture is %s, not a name", v.TypeName())
	}
	return v.S, nil
}

// Validate compares the anchor-symbol names in the top-level dictionary
// with those in the loader table, ensuring the symbol table matches the
// object code (§2). The comparison runs once, when the table is read.
func (t *Table) Validate() error { return t.validErr }

func (t *Table) validate() error {
	anchors, ok := t.Top.GetName("anchors")
	if !ok || anchors.Kind != ps.KArray {
		return fmt.Errorf("symtab: top-level dictionary has no /anchors")
	}
	am, ok := t.Loader.GetName("anchormap")
	if !ok || am.Kind != ps.KDict {
		return fmt.Errorf("symtab: loader table has no /anchormap")
	}
	for _, a := range anchors.A.E {
		if _, ok := am.D.Get(a); !ok {
			return fmt.Errorf("symtab: anchor %s missing from the loader table: symbol table does not match object code", ps.Cvs(a))
		}
	}
	return nil
}

// AnchorAddr returns the link-time address of an anchor symbol. The
// error distinguishes a malformed table (no usable /anchormap) from a
// merely absent name.
func (t *Table) AnchorAddr(name string) (uint32, error) {
	am, ok := t.Loader.GetName("anchormap")
	if !ok || am.Kind != ps.KDict {
		return 0, fmt.Errorf("symtab: loader table has no /anchormap")
	}
	v, ok := am.D.GetName(name)
	if !ok {
		return 0, fmt.Errorf("symtab: no anchor %q", name)
	}
	if v.Kind != ps.KInt {
		return 0, fmt.Errorf("symtab: anchor %q is %s, not an address", name, v.TypeName())
	}
	return uint32(v.I), nil
}

// GlobalAddr resolves an external symbol through the nm-derived table
// in the loader table (§3: nm output is mostly machine-independent and
// easily transformed into PostScript).
func (t *Table) GlobalAddr(label string) (uint32, error) {
	nm, ok := t.Loader.GetName("nm")
	if !ok || nm.Kind != ps.KDict {
		return 0, fmt.Errorf("symtab: loader table has no /nm")
	}
	v, ok := nm.D.GetName(label)
	if !ok {
		return 0, fmt.Errorf("symtab: no global %q", label)
	}
	if v.Kind != ps.KInt {
		return 0, fmt.Errorf("symtab: global %q is %s, not an address", label, v.TypeName())
	}
	return uint32(v.I), nil
}

// ProcAddr is a (address, name) pair from the loader table's proctable.
type ProcAddr struct {
	Addr uint32
	Name string
}

// ProcTable returns the proctable in the order emitted (sorted by
// address). A malformed table — missing, the wrong kind, an odd element
// count, or pairs that are not (int, string) — is an error: silently
// skipping bad pairs would misattribute pcs to the procedures around
// them. The table is parsed once, when it is read; callers must not
// modify the slice.
func (t *Table) ProcTable() ([]ProcAddr, error) { return t.procs, t.procsErr }

func (t *Table) readProcTable() ([]ProcAddr, error) {
	v, ok := t.Loader.GetName("proctable")
	if !ok {
		return nil, fmt.Errorf("symtab: loader table has no /proctable")
	}
	if v.Kind != ps.KArray {
		return nil, fmt.Errorf("symtab: /proctable is %s, not an array", v.TypeName())
	}
	e := v.A.E
	if len(e)%2 != 0 {
		return nil, fmt.Errorf("symtab: /proctable has %d elements, not (addr, name) pairs", len(e))
	}
	out := make([]ProcAddr, 0, len(e)/2)
	for i := 0; i+1 < len(e); i += 2 {
		if e[i].Kind != ps.KInt || (e[i+1].Kind != ps.KString && e[i+1].Kind != ps.KName) {
			return nil, fmt.Errorf("symtab: /proctable pair %d is (%s, %s), not (addr, name)", i/2, e[i].TypeName(), e[i+1].TypeName())
		}
		out = append(out, ProcAddr{Addr: uint32(e[i].I), Name: e[i+1].S})
	}
	return out, nil
}

// ProcContaining maps a program counter to the procedure whose code
// contains it (the first step in mapping a pc to a symbol-table entry,
// §3): the procedure with the greatest address at or below pc, the
// last one listed among procedures at the same address. A malformed
// proctable contains no pc.
func (t *Table) ProcContaining(pc uint32) (ProcAddr, bool) {
	if t.procsErr != nil {
		return ProcAddr{}, false
	}
	// The first procedure past pc; the one before it contains pc.
	i, _ := slices.BinarySearchFunc(t.byAddr, pc, func(p ProcAddr, pc uint32) int {
		if p.Addr <= pc {
			return -1
		}
		return 1
	})
	if i == 0 {
		return ProcAddr{}, false
	}
	return t.byAddr[i-1], true
}

// RPTAddr returns the address of the MIPS runtime procedure table.
func (t *Table) RPTAddr() (uint32, bool) {
	v, ok := t.Loader.GetName("rpt")
	if !ok || v.Kind != ps.KInt {
		return 0, false
	}
	return uint32(v.I), true
}

// run scans and executes a deferred body — an entry body quoted as a
// string, §5's deferral — in a fork of the table's base with the
// table's environment on the dictionary stack, and returns the one
// value it leaves. Deferred bodies are as untrusted as the loader table
// they came from, and they run lazily inside accessors: they run under
// the realize budget.
func (t *Table) run(body string) (ps.Object, error) {
	in := t.base.Fork()
	in.DStack = append(in.DStack, t.Env)
	err := in.WithBudget(realizeBudgetSteps, realizeBudgetDepth, func() error {
		return in.RunStringNamed(body, "<deferred>")
	})
	if err != nil {
		return ps.Object{}, err
	}
	if len(in.Stack) != 1 {
		return ps.Object{}, fmt.Errorf("symtab: deferred body left %d values", len(in.Stack))
	}
	return in.Stack[0], nil
}

// realize returns the value of the deferred body under key in d.
// Procedures interpreted at most once are replaced with their results:
// the body of a table dictionary runs once per table, under the
// table's lock, and every reader shares the frozen result, kept in the
// table's memo. A writable dictionary (built at debug time, not by a
// loader table) may change under its key, so its bodies run on every
// access.
func (t *Table) realize(d *ps.Dict, key, body string) (ps.Object, error) {
	if !d.Frozen() {
		return t.run(body)
	}
	k := memoKey{d, key}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.realized[k]; ok {
		return v, nil
	}
	v, err := t.run(body)
	if err != nil {
		return ps.Object{}, err
	}
	ps.Freeze(v)
	if t.realized == nil {
		t.realized = make(map[memoKey]ps.Object)
	}
	t.realized[k] = v
	return v, nil
}

// Realized reports how many deferred bodies the table has realized and
// kept.
func (t *Table) Realized() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.realized)
}

// EntryOf resolves a symbol-table entry by its PostScript name,
// realizing a deferred body on first access.
func (t *Table) EntryOf(name string) (*ps.Dict, error) {
	v, ok := t.Env.GetName(name)
	if !ok {
		return nil, fmt.Errorf("symtab: no entry %s", name)
	}
	if v.Kind == ps.KString {
		var err error
		if v, err = t.realize(t.Env, name, v.S); err != nil {
			return nil, err
		}
	}
	if v.Kind != ps.KDict {
		return nil, fmt.Errorf("symtab: entry %s is a %s, not a dictionary", name, v.TypeName())
	}
	return v.D, nil
}

// EntryRef resolves an entry reference — a literal name (the deferred
// form) or a dictionary — to the entry dictionary.
func (t *Table) EntryRef(o ps.Object) (*ps.Dict, error) {
	switch o.Kind {
	case ps.KDict:
		return o.D, nil
	case ps.KName, ps.KString:
		return t.EntryOf(o.S)
	case ps.KNull:
		return nil, nil
	}
	return nil, fmt.Errorf("symtab: bad entry reference %s", ps.Format(o))
}

// GetMemo fetches key from d, realizing a deferred value (used for
// /loci arrays and /&fields tables).
func (t *Table) GetMemo(d *ps.Dict, key string) (ps.Object, error) {
	v, ok := d.GetName(key)
	if !ok {
		return ps.Object{}, fmt.Errorf("symtab: no /%s", key)
	}
	if v.Kind == ps.KString && (key == "loci" || key == "&fields") {
		return t.realize(d, key, v.S)
	}
	return v, nil
}

// Entry is a convenience wrapper over a symbol-table entry dictionary.
type Entry struct {
	D *ps.Dict
	T *Table
}

// Name returns the entry's source-language name. A /name that is not a
// string (a corrupt entry) reads as absent rather than as whatever
// bytes happen to sit in the object's string slot.
func (e Entry) Name() string {
	if v, ok := e.D.GetName("name"); ok && (v.Kind == ps.KString || v.Kind == ps.KName) {
		return v.S
	}
	return ""
}

// Kind returns "variable", "parameter", or "procedure".
func (e Entry) Kind() string {
	if v, ok := e.D.GetName("kind"); ok && (v.Kind == ps.KString || v.Kind == ps.KName) {
		return v.S
	}
	return ""
}

// TypeDict returns the entry's type dictionary.
func (e Entry) TypeDict() *ps.Dict {
	if v, ok := e.D.GetName("type"); ok && v.Kind == ps.KDict {
		return v.D
	}
	return nil
}

// Decl renders the declaration of the entry, as the type's /decl
// template applied to the name.
func (e Entry) Decl() string {
	td := e.TypeDict()
	if td == nil {
		return e.Name()
	}
	decl, _ := td.GetName("decl")
	out := ""
	for i := 0; i < len(decl.S); i++ {
		if decl.S[i] == '%' && i+1 < len(decl.S) && decl.S[i+1] == 's' {
			out += e.Name()
			i++
			continue
		}
		out += string(decl.S[i])
	}
	return out
}

// Uplink returns the preceding entry in the current or enclosing scope.
func (e Entry) Uplink() (Entry, bool) {
	v, ok := e.D.GetName("uplink")
	if !ok || v.Kind == ps.KNull {
		return Entry{}, false
	}
	d, err := e.T.EntryRef(v)
	if err != nil || d == nil {
		return Entry{}, false
	}
	return Entry{D: d, T: e.T}, true
}

// ProcInfo returns the side dictionary holding a procedure's formals,
// loci, and statics.
func (t *Table) ProcInfo(entryName string) (*ps.Dict, error) {
	return t.EntryOf(entryName + ".proc")
}

// Stop describes one stopping point read from a loci array.
type Stop struct {
	Index   int
	Line    int
	Col     int
	Where   ps.Object // the location procedure
	Visible ps.Object // entry reference
}

// Loci returns a procedure's stopping points. Those of a table's own
// (frozen) procedure dictionary are realized and read once per table,
// under the table's lock; callers share the slice and must not modify
// it. The realized /loci array itself is not kept: the stopping points
// hold all of it that ldb uses.
func (t *Table) Loci(procInfo *ps.Dict) ([]Stop, error) {
	if !procInfo.Frozen() {
		return t.readLoci(procInfo)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if stops, ok := t.stops[procInfo]; ok {
		return stops, nil
	}
	stops, err := t.readLoci(procInfo)
	if err != nil {
		return nil, err
	}
	if t.stops == nil {
		t.stops = make(map[*ps.Dict][]Stop)
	}
	t.stops[procInfo] = stops
	return stops, nil
}

// readLoci realizes procInfo's /loci array and reads its stopping
// points.
func (t *Table) readLoci(procInfo *ps.Dict) ([]Stop, error) {
	v, ok := procInfo.GetName("loci")
	if !ok {
		return nil, fmt.Errorf("symtab: no /loci")
	}
	if v.Kind == ps.KString {
		var err error
		if v, err = t.run(v.S); err != nil {
			return nil, err
		}
		if procInfo.Frozen() {
			ps.Freeze(v)
		}
	}
	if v.Kind != ps.KArray {
		return nil, fmt.Errorf("symtab: /loci is %s", v.TypeName())
	}
	var out []Stop
	for _, el := range v.A.E {
		if el.Kind != ps.KDict {
			continue
		}
		var s Stop
		if x, ok := el.D.GetName("index"); ok {
			s.Index = int(x.I)
		}
		if x, ok := el.D.GetName("sourcey"); ok {
			s.Line = int(x.I)
		}
		if x, ok := el.D.GetName("sourcex"); ok {
			s.Col = int(x.I)
		}
		s.Where, _ = el.D.GetName("where")
		s.Visible, _ = el.D.GetName("visible")
		out = append(out, s)
	}
	return out, nil
}

// Externs returns the program's externs dictionary.
func (t *Table) Externs() *ps.Dict {
	if v, ok := t.Top.GetName("externs"); ok && v.Kind == ps.KDict {
		return v.D
	}
	return nil
}

// ExternEntry resolves a global symbol by source name.
func (t *Table) ExternEntry(name string) (Entry, bool) {
	ex := t.Externs()
	if ex == nil {
		return Entry{}, false
	}
	v, ok := ex.GetName(name)
	if !ok {
		return Entry{}, false
	}
	d, err := t.EntryRef(v)
	if err != nil || d == nil {
		return Entry{}, false
	}
	return Entry{D: d, T: t}, true
}

// ProcEntryByName finds a procedure entry via externs, also returning
// the PostScript entry name (needed for ProcInfo).
func (t *Table) ProcEntryByName(name string) (Entry, string, bool) {
	ex := t.Externs()
	if ex == nil {
		return Entry{}, "", false
	}
	v, ok := ex.GetName(name)
	if !ok || (v.Kind != ps.KName && v.Kind != ps.KString) {
		return Entry{}, "", false
	}
	d, err := t.EntryOf(v.S)
	if err != nil {
		return Entry{}, "", false
	}
	return Entry{D: d, T: t}, v.S, true
}

// ResolveAt implements ldb's name resolution (§2): walk up the tree of
// entries for local symbols beginning with the stopping point's visible
// entry; at the root search the statics dictionary of the procedure's
// compilation unit, then the program's externs.
func (t *Table) ResolveAt(procEntryName string, stop *Stop, id string) (Entry, error) {
	if stop != nil && stop.Visible.Kind != ps.KNull {
		d, err := t.EntryRef(stop.Visible)
		if err != nil {
			return Entry{}, err
		}
		for e := (Entry{D: d, T: t}); e.D != nil; {
			if e.Name() == id {
				return e, nil
			}
			up, ok := e.Uplink()
			if !ok {
				break
			}
			e = up
		}
	}
	if procEntryName != "" {
		if info, err := t.ProcInfo(procEntryName); err == nil {
			if sv, ok := info.GetName("statics"); ok && sv.Kind != ps.KNull {
				var sd *ps.Dict
				if sv.Kind == ps.KDict {
					sd = sv.D
				} else if v2, ok := t.Env.GetName(sv.S); ok && v2.Kind == ps.KDict {
					sd = v2.D
				}
				if sd != nil {
					if ref, ok := sd.GetName(id); ok {
						d, err := t.EntryRef(ref)
						if err == nil && d != nil {
							return Entry{D: d, T: t}, nil
						}
					}
				}
			}
		}
	}
	if e, ok := t.ExternEntry(id); ok {
		return e, nil
	}
	return Entry{}, fmt.Errorf("symtab: %q is not visible here", id)
}
