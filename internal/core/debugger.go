package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"ldb/internal/arch"
	"ldb/internal/frame"
	"ldb/internal/nub"
	"ldb/internal/ps"
	"ldb/internal/symtab"
)

// Debugger is an instance of ldb. It embeds one PostScript interpreter
// (one interpreter supports code in symbol-table entries and expression
// evaluation, §3) and can hold connections to several targets on
// different architectures simultaneously.
type Debugger struct {
	In  *ps.Interp
	Out io.Writer

	Targets   []*Target
	cur       *Target
	base      *Base
	archDicts map[string]*ps.Dict // this debugger's copies, made on first use
	baseDepth int
	exprErr   string
}

// Base is the initial PostScript every debugger starts from: the system
// dictionary with the dialect's operators and ldb's debugging
// operators, the shared prelude in the user dictionary, and one
// machine-dependent dictionary per registered architecture. A base is
// frozen once built (see ps.Freeze), so any number of debuggers, on any
// number of goroutines, may share it.
type Base struct {
	in        *ps.Interp
	archDicts map[string]*ps.Dict
}

var shared struct {
	once sync.Once
	base *Base
	err  error
}

// sharedBase builds the process's base on first use.
func sharedBase() (*Base, error) {
	shared.once.Do(func() { shared.base, shared.err = NewBase() })
	return shared.base, shared.err
}

// NewBase reads the initial PostScript: it builds the interpreter,
// registers the debugging operators, runs the shared prelude, and
// builds one machine-dependent dictionary per registered architecture.
// New builds this once per process and shares it; NewBase itself
// always builds afresh, which is what startup measurements time.
func NewBase() (*Base, error) {
	in := ps.New()
	registerOps(in)
	registerExprOps(in)
	if err := in.RunStringNamed(PreludePS, "<prelude>"); err != nil {
		return nil, fmt.Errorf("core: reading initial PostScript: %w", err)
	}
	b := &Base{in: in, archDicts: make(map[string]*ps.Dict, len(archPS))}
	// Sorted order: dictionary construction runs PostScript with shared
	// interpreter state, and a startup failure must name the same arch
	// on every run.
	archNames := make([]string, 0, len(archPS))
	for name := range archPS {
		archNames = append(archNames, name)
	}
	sort.Strings(archNames)
	for _, name := range archNames {
		o, err := in.Eval(archPS[name])
		if err != nil || o.Kind != ps.KDict {
			return nil, fmt.Errorf("core: bad arch dictionary for %s: %v", name, err)
		}
		if a, ok := arch.Lookup(name); ok {
			o.D.PutName("RegNames", regNames(a))
			// Describe the nub's machine-dependent context record in
			// PostScript, so PostScript programs can manipulate it (§7:
			// "we wrote PostScript code that reads the top-level
			// dictionary for the nub and constructs a Modula-3
			// description of one of the nub's machine-dependent data
			// structures").
			o.D.PutName("Context", contextDict(a.Context()))
		}
		ps.Freeze(o)
		b.archDicts[name] = o.D
	}
	ps.Freeze(ps.DictObj(in.SystemDict()))
	ps.Freeze(ps.DictObj(in.UserDict()))
	return b, nil
}

func regNames(a arch.Arch) ps.Object {
	names := make([]ps.Object, a.NumRegs())
	for i := range names {
		names[i] = ps.Str(a.RegName(i))
	}
	return ps.ArrayObj(names...)
}

func contextDict(l arch.ContextLayout) ps.Object {
	ints := func(vs []int) ps.Object {
		objs := make([]ps.Object, len(vs))
		for i, v := range vs {
			objs[i] = ps.Int(int64(v))
		}
		return ps.ArrayObj(objs...)
	}
	ctx := ps.NewDict(8)
	ctx.PutName("size", ps.Int(int64(l.Size)))
	ctx.PutName("pc", ps.Int(int64(l.PCOff)))
	ctx.PutName("flag", ps.Int(int64(l.FlagOff)))
	ctx.PutName("regs", ints(l.RegOffs))
	ctx.PutName("fregs", ints(l.FRegOffs))
	ctx.PutName("fregsize", ps.Int(int64(l.FRegSize)))
	ctx.PutName("floatwordswap", ps.Boolean(l.FloatWordSwap))
	return ps.DictObj(ctx)
}

// New creates a debugger on the process's shared base (see Base): its
// interpreter shares the frozen system dictionary and starts from a
// copy of the prelude's user dictionary.
func New(out io.Writer) (*Debugger, error) {
	b, err := sharedBase()
	if err != nil {
		return nil, err
	}
	d := &Debugger{In: b.in.Fork(), Out: out, base: b}
	d.In.Stdout = out
	d.In.Host = d
	d.baseDepth = len(d.In.DStack)
	return d, nil
}

// debuggerOf returns the debugger that owns in; the debugging
// operators are shared by every debugger and find theirs here. An
// interpreter no debugger owns, such as one reading a symbol table,
// gets a debugger with no targets.
func debuggerOf(in *ps.Interp) *Debugger {
	if d, ok := in.Host.(*Debugger); ok {
		return d
	}
	return &Debugger{In: in}
}

// Current returns the current target, if any.
func (d *Debugger) Current() *Target { return d.cur }

// Switch makes t the current target, rebinding the machine-dependent
// PostScript names by placing t's architecture dictionary (and t's
// symbol environment) on the dictionary stack (§5). The debugger's
// first switch to an architecture copies that architecture's
// dictionary from the base, so its definitions stay its own.
func (d *Debugger) Switch(t *Target) {
	d.cur = t
	d.In.DStack = d.In.DStack[:d.baseDepth]
	if t == nil {
		return
	}
	if t.Table != nil && t.Table.Env != nil {
		d.In.DStack = append(d.In.DStack, t.Table.Env)
	}
	if ad := d.archDict(t.Arch.Name()); ad != nil {
		d.In.DStack = append(d.In.DStack, ad)
	}
}

func (d *Debugger) archDict(name string) *ps.Dict {
	if ad, ok := d.archDicts[name]; ok {
		return ad
	}
	frozen, ok := d.base.archDicts[name]
	if !ok {
		return nil
	}
	if d.archDicts == nil {
		d.archDicts = make(map[string]*ps.Dict)
	}
	ad := frozen.Copy()
	d.archDicts[name] = ad
	return ad
}

// CurrentFrame returns the selected frame of the current target.
func (d *Debugger) CurrentFrame() *frame.Frame {
	t := d.cur
	if t == nil || t.CurFrame >= len(t.Frames) {
		return nil
	}
	return t.Frames[t.CurFrame]
}

// Attach connects to a nub over conn (which may be a network
// connection to another machine) and loads the program's loader-table
// PostScript, sharing the table with every other attach of the same
// text (see sharedTable). The nub tells us the architecture; the symbol
// table must agree (§2: ldb uses the recorded architecture to find its
// machine-dependent code and data).
func (d *Debugger) Attach(name string, conn io.ReadWriter, loaderPS string) (*Target, error) {
	client, err := nub.Connect(conn)
	if err != nil {
		return nil, err
	}
	return d.attach(name, client, loaderPS)
}

// AttachClient wires an already-connected nub client.
func (d *Debugger) AttachClient(name string, client *nub.Client, loaderPS string) (*Target, error) {
	return d.attach(name, client, loaderPS)
}

func (d *Debugger) attach(name string, client *nub.Client, loaderPS string) (*Target, error) {
	if _, err := clientArch(client); err != nil {
		return nil, err
	}
	table, err := sharedTable(loaderPS)
	if err != nil {
		return nil, err
	}
	return d.AttachTable(name, client, table)
}

// AttachTable wires an already-connected nub client to a symbol table
// the caller has read (see LoadTable). The table must match the object
// code the nub runs and be for the nub's architecture.
func (d *Debugger) AttachTable(name string, client *nub.Client, table *symtab.Table) (*Target, error) {
	a, err := clientArch(client)
	if err != nil {
		return nil, err
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	ta, err := table.Architecture()
	if err != nil {
		return nil, err
	}
	if ta != a.Name() {
		return nil, fmt.Errorf("core: symbol table is for %s but the target runs %s", ta, a.Name())
	}
	return d.adoptTarget(name, a, client, table)
}

// clientArch returns the architecture the nub reported.
func clientArch(client *nub.Client) (arch.Arch, error) {
	a, ok := arch.Lookup(client.ArchName)
	if !ok {
		return nil, fmt.Errorf("core: target runs unknown architecture %q", client.ArchName)
	}
	return a, nil
}

// adoptTarget registers a new target (with or without a symbol table)
// and syncs it to the nub's latched event.
func (d *Debugger) adoptTarget(name string, a arch.Arch, client *nub.Client, table *symtab.Table) (*Target, error) {
	t := newTarget(d, name, a, client, table)
	d.Targets = append(d.Targets, t)
	d.Switch(t)
	if client.Last != nil {
		if client.Last.Exited {
			t.Exited, t.ExitStatus = true, client.Last.Status
		} else if err := t.Refresh(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AttachMachineLevel connects to a nub with no symbol table at all: the
// degraded mode. The target supports registers, memory, address
// breakpoints, and single-instruction stepping — everything the nub
// protocol provides without the table — and every source-level
// operation reports that it needs symbols.
func (d *Debugger) AttachMachineLevel(name string, client *nub.Client) (*Target, error) {
	a, err := clientArch(client)
	if err != nil {
		return nil, err
	}
	return d.adoptTarget(name, a, client, nil)
}

// AttachDegraded attaches with the loader table when it is usable and
// falls back to machine-level debugging when it is not: a corrupt,
// missing, or mismatched symbol table costs source-level debugging, not
// the session. The warning (empty on a clean attach) is the one-line
// explanation the caller should show.
func (d *Debugger) AttachDegraded(name string, client *nub.Client, loaderPS string) (t *Target, warning string, err error) {
	if loaderPS != "" {
		t, err = d.attach(name, client, loaderPS)
		if err == nil {
			return t, "", nil
		}
		warning = fmt.Sprintf("symbol table unusable (%v); entering machine-level mode", err)
	} else {
		warning = "no symbol table; entering machine-level mode"
	}
	t, merr := d.AttachMachineLevel(name, client)
	if merr != nil {
		if err != nil {
			return nil, "", err
		}
		return nil, "", merr
	}
	return t, warning, nil
}

// evalWhere executes a where procedure (or accepts an already-realized
// location), yielding the location.
func (d *Debugger) evalWhere(v ps.Object) (loc ps.Object, err error) {
	if v.Kind == ps.KExt {
		return v, nil
	}
	before := len(d.In.Stack)
	if err := d.In.ExecProc(v); err != nil {
		return ps.Object{}, err
	}
	if len(d.In.Stack) != before+1 {
		d.In.Stack = d.In.Stack[:before]
		return ps.Object{}, fmt.Errorf("core: where procedure left no location")
	}
	o, _ := d.In.Pop()
	if o.Kind != ps.KExt || o.X == nil || o.X.ExtType() != "locationtype" {
		return ps.Object{}, fmt.Errorf("core: where procedure yielded %s", o.TypeName())
	}
	return o, nil
}

// frameIndependent reports whether a where procedure's result can be
// memoized (it contains no frame-relative addressing).
func frameIndependent(v ps.Object) bool {
	if v.Kind != ps.KArray {
		return false
	}
	for _, e := range v.A.E {
		if e.Kind == ps.KName && e.S == "FrameOffset" {
			return false
		}
		if e.Kind == ps.KArray && !frameIndependent(e) {
			return false
		}
	}
	return true
}
