package core

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"ldb/internal/amem"
	"ldb/internal/codegen"
	"ldb/internal/expr"
	"ldb/internal/ps"
	"ldb/internal/symtab"
)

// exprSession holds the two pipes to a target's expression server
// (Fig. 3): expressions and lookup replies go down reqW; PostScript
// comes back through psFile, which ldb listens to with "cvx stopped".
type exprSession struct {
	reqW   io.Writer
	psFile ps.Object
	stop   func()
}

// exprSessionFor starts the expression server for a target, unless it
// is already running — a variant of the compiler front end in its own
// goroutine, standing in for the paper's separate address space (§3).
// stopExprServer ends it.
func (t *Target) exprSessionFor() *exprSession {
	if t.exprS != nil {
		return t.exprS
	}
	reqR, reqW := io.Pipe()
	psR, psW := io.Pipe()
	tc := codegen.NewEmitterFor(t.Arch).Conf()
	srv := expr.NewServer(tc, reqR, psW)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve()
	}()
	var down io.Writer = reqW
	var up io.Reader = psR
	if t.exprTrace != nil {
		down = &traceWriter{w: reqW, dir: "ldb → server:", fn: t.exprTrace}
		up = &traceReader{r: psR, dir: "server → ldb:", fn: t.exprTrace}
	}
	t.exprS = &exprSession{
		reqW:   down,
		psFile: ps.FileObj(&ps.File{Name: "exprserver", R: up}),
		// Closing the request pipe ends the server's read loop; closing
		// the reply pipe fails a write it may be blocked in.
		stop: func() {
			_ = reqW.Close()
			_ = psR.Close()
			wg.Wait()
		},
	}
	return t.exprS
}

// stopExprServer stops the target's expression server, if it runs, and
// waits for its goroutine to exit. The next Eval starts a new one.
func (t *Target) stopExprServer() {
	if t.exprS != nil {
		t.exprS.stop()
		t.exprS = nil
	}
}

// TraceExprTraffic installs fn to observe every message on the two
// expression-server pipes of Fig. 3. It must be called before the
// target's first Eval; the returned function uninstalls the trace for
// future sessions (the current session keeps its pipes).
func (t *Target) TraceExprTraffic(fn func(dir, line string)) func() {
	t.exprTrace = fn
	return func() { t.exprTrace = nil }
}

type traceWriter struct {
	w   io.Writer
	dir string
	fn  func(dir, line string)
}

func (tw *traceWriter) Write(p []byte) (int, error) {
	tw.fn(tw.dir, string(p))
	return tw.w.Write(p)
}

type traceReader struct {
	r   io.Reader
	dir string
	fn  func(dir, line string)
}

func (tr *traceReader) Read(p []byte) (int, error) {
	n, err := tr.r.Read(p)
	if n > 0 {
		tr.fn(tr.dir, string(p[:n]))
	}
	return n, err
}

// Eval sends an expression (or assignment) to the expression server,
// then interprets PostScript from the pipe until the server says to
// stop, and finally interprets the resulting procedure, which evaluates
// the expression against the current frame (§3).
func (t *Target) Eval(text string) (ps.Object, error) {
	t.ensureCurrent()
	d := t.D
	if strings.ContainsAny(text, "\n\r") {
		return ps.Object{}, fmt.Errorf("core: expressions must be a single line")
	}
	fresh := t.exprS == nil
	es := t.exprSessionFor()
	d.exprErr = ""
	// Frame-relative bindings in the server's type cache are only valid
	// at the stopping point and frame that produced them: tell the server
	// when the scope has moved so a shadowed local is looked up afresh.
	if scope := t.evalScope(); scope != t.exprScope {
		t.exprScope = scope
		if !fresh {
			if _, err := fmt.Fprintln(es.reqW, "newscope"); err != nil {
				return ps.Object{}, err
			}
		}
	}
	if _, err := fmt.Fprintf(es.reqW, "expr %s\n", text); err != nil {
		return ps.Object{}, err
	}
	// "The operation of interpreting until told to stop is implemented
	// by applying cvx stopped to the open pipe from the server."
	before := len(d.In.Stack)
	d.In.Push(es.psFile)
	if err := d.In.RunString("cvx stopped"); err != nil {
		return ps.Object{}, err
	}
	stopped, err := d.In.PopBool("expression listener")
	if err != nil {
		return ps.Object{}, err
	}
	if d.exprErr != "" {
		d.In.Stack = d.In.Stack[:before]
		return ps.Object{}, fmt.Errorf("core: %s", d.exprErr)
	}
	if !stopped {
		return ps.Object{}, fmt.Errorf("core: expression server closed the pipe")
	}
	proc, err := d.In.Pop()
	if err != nil {
		return ps.Object{}, err
	}
	if err := d.In.ExecProc(proc); err != nil {
		return ps.Object{}, err
	}
	return d.In.Pop()
}

// evalScope identifies the current resolution scope: the pc of the
// selected frame plus its depth. Locals resolve identically for as long
// as this value is unchanged.
func (t *Target) evalScope() uint64 {
	if len(t.Frames) == 0 || t.CurFrame >= len(t.Frames) {
		return 0
	}
	f := t.Frames[t.CurFrame]
	return uint64(f.PC)<<32 | uint64(uint32(t.CurFrame))
}

// EvalInt evaluates an expression expecting an integer result.
func (t *Target) EvalInt(text string) (int64, error) {
	o, err := t.Eval(text)
	if err != nil {
		return 0, err
	}
	if o.Kind == ps.KReal {
		return int64(o.R), nil
	}
	if o.Kind != ps.KInt {
		return 0, fmt.Errorf("core: expression yielded %s", o.TypeName())
	}
	return o.I, nil
}

// EvalFloat evaluates an expression expecting a numeric result.
func (t *Target) EvalFloat(text string) (float64, error) {
	o, err := t.Eval(text)
	if err != nil {
		return 0, err
	}
	if !o.IsNumber() {
		return 0, fmt.Errorf("core: expression yielded %s", o.TypeName())
	}
	return o.Num(), nil
}

// registerExprOps installs the operators the expression-server
// protocol needs on the debugger side.
func registerExprOps(in *ps.Interp) {
	// ExpressionServer.lookup: the server could not find an identifier;
	// find its symbol-table entry and send the information back as a
	// sequence of C tokens plus a location description (§3).
	in.Register("ExpressionServer.lookup", func(in *ps.Interp) error {
		name, err := in.PopName("ExpressionServer.lookup")
		if err != nil {
			return err
		}
		t := debuggerOf(in).cur
		if t == nil || t.exprS == nil {
			return &ps.Error{Name: "notarget", Cmd: "ExpressionServer.lookup"}
		}
		reply := "nosym"
		if e, err := t.Lookup(name); err == nil {
			if desc, derr := t.whereDesc(e); derr == nil {
				decl := t.fullDecl(e)
				reply = fmt.Sprintf("sym %s ; %s", desc, decl)
			}
		}
		_, err = fmt.Fprintf(t.exprS.reqW, "%s\n", reply)
		return err
	})
	// TargetCall: n arg1..argn (name) → result. Runs a procedure in the
	// target process for a call inside an expression (§7.1).
	in.Register("TargetCall", func(in *ps.Interp) error {
		name, err := in.PopString("TargetCall")
		if err != nil {
			return err
		}
		n, err := in.PopInt("TargetCall")
		if err != nil {
			return err
		}
		args := make([]int64, n)
		for i := int(n) - 1; i >= 0; i-- {
			v, err := in.PopInt("TargetCall")
			if err != nil {
				return err
			}
			args[i] = v
		}
		t := debuggerOf(in).cur
		if t == nil {
			return &ps.Error{Name: "notarget", Cmd: "TargetCall"}
		}
		res, err := t.CallProc(name, args...)
		if err != nil {
			return &ps.Error{Name: "targetcall", Cmd: err.Error()}
		}
		in.Push(res)
		return nil
	})
	in.Register("ExpressionServer.failed", func(in *ps.Interp) error {
		msg, err := in.PopString("ExpressionServer.failed")
		if err != nil {
			return err
		}
		debuggerOf(in).exprErr = msg
		return in.RunString("stop")
	})
}

// whereDesc classifies an entry's where procedure for the wire.
func (t *Target) whereDesc(e symtab.Entry) (string, error) {
	w, ok := t.whereOf(e.D)
	if !ok {
		return "", fmt.Errorf("no location")
	}
	if w.Kind == ps.KExt {
		if lx, ok := w.X.(*LocExt); ok {
			loc := lx.Loc
			if loc.Mode == amem.Immediate {
				return fmt.Sprintf("absolute d %d", int64(loc.Imm)), nil
			}
			return fmt.Sprintf("absolute %s %d", loc.Space, loc.Offset), nil
		}
	}
	if w.Kind == ps.KArray {
		el := w.A.E
		switch {
		case len(el) == 2 && isName(el[1], "FrameOffset") && el[0].Kind == ps.KInt:
			return fmt.Sprintf("frame %d", el[0].I), nil
		case len(el) == 3 && isName(el[2], "LazyData") && el[0].Kind == ps.KString && el[1].Kind == ps.KInt:
			return fmt.Sprintf("anchor %s %d", el[0].S, el[1].I), nil
		case len(el) == 2 && isName(el[1], "GlobalData") && el[0].Kind == ps.KString:
			return "global " + el[0].S, nil
		case len(el) == 2 && isName(el[1], "GlobalCode") && el[0].Kind == ps.KString:
			return "code " + el[0].S, nil
		}
	}
	// Fall back: evaluate the where procedure now and send the
	// absolute location.
	o, err := t.D.evalWhere(w)
	if err != nil {
		return "", err
	}
	loc := o.X.(*LocExt).Loc
	return fmt.Sprintf("absolute %s %d", loc.Space, loc.Offset), nil
}

func isName(o ps.Object, s string) bool {
	return o.Kind == ps.KName && o.S == s
}

// fullDecl renders an entry's declaration as parseable C, expanding
// struct bodies from the type dictionaries (the paper's symbol tables
// carry enough information to let the server reconstruct the
// compiler's type information, §7).
func (t *Target) fullDecl(e symtab.Entry) string {
	td := e.TypeDict()
	if td == nil {
		return "int " + e.Name()
	}
	return t.cdecl(td, e.Name(), 0)
}

// tableFields fetches a type's /&fields through the symbol table's
// memoizing accessor, or reports ErrNoSymbols in machine-level mode.
func (t *Target) tableFields(td *ps.Dict) (ps.Object, error) {
	if t.Degraded() {
		return ps.Object{}, ErrNoSymbols
	}
	return t.Table.GetMemo(td, "&fields")
}

func (t *Target) cdecl(td *ps.Dict, inner string, depth int) string {
	kind := ""
	if k, ok := td.GetName("kind"); ok {
		kind = k.S
	}
	declTemplate := func() string {
		if v, ok := td.GetName("decl"); ok {
			return strings.Replace(v.S, "%s", inner, 1)
		}
		return "int " + inner
	}
	if depth > 4 {
		return "void *" + inner
	}
	switch kind {
	case "struct", "union":
		var b strings.Builder
		b.WriteString(kind + " { ")
		if fo, err := t.tableFields(td); err == nil && fo.Kind == ps.KArray {
			for _, f := range fo.A.E {
				if f.Kind != ps.KArray || len(f.A.E) != 3 {
					continue
				}
				fname := f.A.E[0].S
				ftd := f.A.E[2].D
				if ftd == nil {
					continue
				}
				b.WriteString(t.cdecl(ftd, fname, depth+1))
				b.WriteString("; ")
			}
		}
		b.WriteString("} ")
		b.WriteString(inner)
		return b.String()
	case "pointer":
		if bt, ok := td.GetName("&basetype"); ok && bt.Kind == ps.KDict {
			bk, _ := bt.D.GetName("kind")
			in := "*" + inner
			if bk.S == "array" || bk.S == "function" {
				in = "(" + in + ")"
			}
			return t.cdecl(bt.D, in, depth+1)
		}
		return declTemplate()
	case "array":
		if et, ok := td.GetName("&elemtype"); ok && et.Kind == ps.KDict {
			n := int64(0)
			if av, ok := td.GetName("&arraysize"); ok {
				n = av.I
			}
			return t.cdecl(et.D, fmt.Sprintf("%s[%d]", inner, n), depth+1)
		}
		return declTemplate()
	default:
		return declTemplate()
	}
}
