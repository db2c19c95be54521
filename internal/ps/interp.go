package ps

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Error is a PostScript interpreter error. Interpreter errors surface as
// Go errors (the paper's dialect raised Modula-3 exceptions); `stopped`
// catches them.
type Error struct {
	Name string // e.g. "typecheck", "undefined", "stackunderflow"
	Cmd  string // offending command or context
}

func (e *Error) Error() string {
	if e.Cmd == "" {
		return "ps: " + e.Name
	}
	return fmt.Sprintf("ps: %s in %s", e.Name, e.Cmd)
}

func typecheck(cmd string, got Object) error {
	return &Error{Name: "typecheck", Cmd: fmt.Sprintf("%s (got %s)", cmd, got.TypeName())}
}

func undefined(name string) error {
	return &Error{Name: "undefined", Cmd: name}
}

// errStop is raised by the `stop` operator and caught by `stopped`.
var errStop = errors.New("ps: stop")

// errExit is raised by `exit` and caught by the looping operators.
var errExit = errors.New("ps: exit")

// Interp is an instance of the embedded interpreter. One interpreter
// supports code in symbol-table entries and expression evaluation (§3).
type Interp struct {
	// Stack is the operand stack; Stack[len-1] is the top.
	Stack []Object
	// DStack is the dictionary stack; DStack[len-1] is searched first.
	// The dictionary stack is distinct from the call stack and is
	// explicitly controlled by the PostScript program (§5): when ldb
	// changes architectures it rebinds machine-dependent names by
	// pushing a per-architecture dictionary here.
	DStack []*Dict

	// Stdout receives the output of print, =, ==, and pstack.
	Stdout io.Writer

	// Pretty is the prettyprinter driven by Put/Break/Begin/End.
	Pretty *Pretty

	// MaxSteps bounds execution (a defense against runaway symbol-table
	// code); zero means the default.
	MaxSteps int64

	// MaxDepth bounds nested procedure and scanner execution; zero means
	// the default. Like MaxSteps it defends against hostile symbol-table
	// code — here, unbounded recursion.
	MaxDepth int

	// Host is the embedder's own state for this interpreter. Operators
	// shared by several interpreters find their embedder through it.
	Host any

	systemdict *Dict
	userdict   *Dict
	steps      int64
	depth      int
}

const (
	defaultMaxSteps = 200_000_000
	maxExecDepth    = 400
)

// New returns an interpreter with the system and user dictionaries on
// the dictionary stack and all built-in operators defined.
func New() *Interp {
	in := newInterp(NewDict(256), NewDict(64))
	in.systemdict.PutName("true", Boolean(true))
	in.systemdict.PutName("false", Boolean(false))
	in.systemdict.PutName("null", Null())
	registerAll(in)
	return in
}

// Fork returns an interpreter that shares in's system dictionary and
// starts from a writable copy of its user dictionary, with empty
// stacks. Embedders fork many interpreters from one that has read its
// initial PostScript and been frozen (see Freeze): the fork's `def`s
// land in its own user dictionary, and the shared dictionaries and
// procedures stay read-only.
func (in *Interp) Fork() *Interp {
	return newInterp(in.systemdict, in.userdict.Copy())
}

func newInterp(systemdict, userdict *Dict) *Interp {
	in := &Interp{Stdout: io.Discard, systemdict: systemdict, userdict: userdict}
	in.Pretty = NewPretty(&stdoutOf{in})
	in.DStack = []*Dict{systemdict, userdict}
	return in
}

// stdoutOf indirects through in.Stdout so the prettyprinter follows
// later reassignments of Stdout.
type stdoutOf struct{ in *Interp }

func (w *stdoutOf) Write(p []byte) (int, error) { return w.in.Stdout.Write(p) }

// SystemDict returns the system dictionary, where embedders register
// debugging operators.
func (in *Interp) SystemDict() *Dict { return in.systemdict }

// UserDict returns the user dictionary.
func (in *Interp) UserDict() *Dict { return in.userdict }

// Register defines a built-in operator in the system dictionary. The
// system dictionary must not be frozen yet.
func (in *Interp) Register(name string, fn func(*Interp) error) {
	in.systemdict.PutName(name, OpObj(name, fn))
}

// Push pushes objects onto the operand stack.
func (in *Interp) Push(objs ...Object) {
	in.Stack = append(in.Stack, objs...)
}

// Pop removes and returns the top of the operand stack.
func (in *Interp) Pop() (Object, error) {
	if len(in.Stack) == 0 {
		return Object{}, &Error{Name: "stackunderflow"}
	}
	o := in.Stack[len(in.Stack)-1]
	in.Stack = in.Stack[:len(in.Stack)-1]
	return o, nil
}

// Top returns the top of the operand stack without removing it.
func (in *Interp) Top() (Object, error) {
	if len(in.Stack) == 0 {
		return Object{}, &Error{Name: "stackunderflow"}
	}
	return in.Stack[len(in.Stack)-1], nil
}

// PopKind pops an object, requiring the given kind.
func (in *Interp) PopKind(k Kind, cmd string) (Object, error) {
	o, err := in.Pop()
	if err != nil {
		return o, err
	}
	if o.Kind != k {
		return o, typecheck(cmd, o)
	}
	return o, nil
}

// PopInt pops an integer.
func (in *Interp) PopInt(cmd string) (int64, error) {
	o, err := in.PopKind(KInt, cmd)
	return o.I, err
}

// PopNum pops an integer or real as float64.
func (in *Interp) PopNum(cmd string) (float64, error) {
	o, err := in.Pop()
	if err != nil {
		return 0, err
	}
	if !o.IsNumber() {
		return 0, typecheck(cmd, o)
	}
	return o.Num(), nil
}

// PopBool pops a boolean.
func (in *Interp) PopBool(cmd string) (bool, error) {
	o, err := in.PopKind(KBool, cmd)
	return o.B, err
}

// PopString pops a string and returns its text.
func (in *Interp) PopString(cmd string) (string, error) {
	o, err := in.PopKind(KString, cmd)
	return o.S, err
}

// PopName pops a name or string and returns its text.
func (in *Interp) PopName(cmd string) (string, error) {
	o, err := in.Pop()
	if err != nil {
		return "", err
	}
	if o.Kind != KName && o.Kind != KString {
		return "", typecheck(cmd, o)
	}
	return o.S, nil
}

// PopDict pops a dictionary.
func (in *Interp) PopDict(cmd string) (*Dict, error) {
	o, err := in.PopKind(KDict, cmd)
	return o.D, err
}

// PopArray pops an array (literal or executable).
func (in *Interp) PopArray(cmd string) (*Array, error) {
	o, err := in.Pop()
	if err != nil {
		return nil, err
	}
	if o.Kind != KArray {
		return nil, typecheck(cmd, o)
	}
	return o.A, nil
}

// PopProc pops a procedure (executable array) object.
func (in *Interp) PopProc(cmd string) (Object, error) {
	o, err := in.Pop()
	if err != nil {
		return o, err
	}
	if o.Kind != KArray || !o.Exec {
		return o, typecheck(cmd, o)
	}
	return o, nil
}

// PopExt pops an extension object of the given extension type.
func (in *Interp) PopExt(extType, cmd string) (Ext, error) {
	o, err := in.Pop()
	if err != nil {
		return nil, err
	}
	if o.Kind != KExt || o.X == nil || o.X.ExtType() != extType {
		return nil, typecheck(cmd+" expects "+extType, o)
	}
	return o.X, nil
}

// Lookup searches the dictionary stack for name.
func (in *Interp) Lookup(name string) (Object, bool) {
	for i := len(in.DStack) - 1; i >= 0; i-- {
		if v, ok := in.DStack[i].GetName(name); ok {
			return v, true
		}
	}
	return Object{}, false
}

// LookupWhere searches the dictionary stack, also returning the
// dictionary holding the binding.
func (in *Interp) LookupWhere(name string) (Object, *Dict, bool) {
	for i := len(in.DStack) - 1; i >= 0; i-- {
		if v, ok := in.DStack[i].GetName(name); ok {
			return v, in.DStack[i], true
		}
	}
	return Object{}, nil, false
}

// Def defines name in the current (topmost) dictionary.
func (in *Interp) Def(name string, val Object) {
	in.DStack[len(in.DStack)-1].PutName(name, val)
}

func (in *Interp) maxDepth() int {
	if in.MaxDepth > 0 {
		return in.MaxDepth
	}
	return maxExecDepth
}

// WithBudget runs f with execution bounded by a step and depth budget
// relative to the work the interpreter has already done, restoring the
// previous limits afterward. Embedders use it to run untrusted code —
// a loader's symbol table, say — without letting a hostile table spend
// the whole default allowance or recurse to a Go stack overflow. A
// non-positive budget leaves that limit untouched.
func (in *Interp) WithBudget(steps int64, depth int, f func() error) error {
	oldSteps, oldDepth := in.MaxSteps, in.MaxDepth
	if steps > 0 {
		in.MaxSteps = in.steps + steps
	}
	if depth > 0 {
		in.MaxDepth = in.depth + depth
	}
	defer func() { in.MaxSteps, in.MaxDepth = oldSteps, oldDepth }()
	return f()
}

func (in *Interp) tick() error {
	in.steps++
	limit := in.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	if in.steps > limit {
		return &Error{Name: "timeout", Cmd: "step limit exceeded"}
	}
	return nil
}

// Exec executes a single object encountered by the interpreter:
// literal objects push themselves (attempts to execute a literal object
// put that object on the stack, §5); executable names are looked up and
// their values executed; operators run; procedures encountered here are
// pushed (they execute only via names, exec, or control operators).
func (in *Interp) Exec(o Object) error {
	if err := in.tick(); err != nil {
		return err
	}
	if !o.Exec {
		in.Push(o)
		return nil
	}
	switch o.Kind {
	case KName:
		v, ok := in.Lookup(o.S)
		if !ok {
			return undefined(o.S)
		}
		return in.execValue(v)
	case KOperator:
		return o.Op.Fn(in)
	case KArray, KString, KFile:
		// An executable procedure/string/file reached as interpreter
		// input is data: push it. (The body of a procedure token is
		// deferred; see execValue.)
		in.Push(o)
		return nil
	default:
		in.Push(o)
		return nil
	}
}

// execValue executes the value of a name binding or the operand of
// `exec`: procedures run their elements; executable strings are scanned
// and executed (the deferral technique of §5); executable files are read
// and executed until EOF; operators run; anything else is pushed.
func (in *Interp) execValue(v Object) error {
	if err := in.tick(); err != nil {
		return err
	}
	if !v.Exec {
		in.Push(v)
		return nil
	}
	switch v.Kind {
	case KOperator:
		return v.Op.Fn(in)
	case KArray:
		return in.runProc(v)
	case KName:
		vv, ok := in.Lookup(v.S)
		if !ok {
			return undefined(v.S)
		}
		return in.execValue(vv)
	case KString:
		return in.runScanner(NewStringScanner(v.S, "<string>"))
	case KFile:
		if v.F.sc == nil {
			if v.F.R == nil {
				return &Error{Name: "ioerror", Cmd: "execute write-only file " + v.F.Name}
			}
			v.F.sc = NewScanner(v.F.R, v.F.Name)
		}
		return in.runScanner(v.F.sc)
	default:
		in.Push(v)
		return nil
	}
}

func (in *Interp) runProc(p Object) error {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.maxDepth() {
		return &Error{Name: "execstackoverflow"}
	}
	for _, e := range p.A.E {
		if err := in.Exec(e); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) runScanner(sc *Scanner) error {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.maxDepth() {
		return &Error{Name: "execstackoverflow"}
	}
	for {
		tok, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := in.Exec(tok); err != nil {
			return err
		}
	}
}

// ExecProc executes a procedure (or any executable value) the way the
// `exec` operator would.
func (in *Interp) ExecProc(o Object) error { return in.execValue(o) }

// Run scans and executes PostScript source from r; name labels errors.
func (in *Interp) Run(r io.Reader, name string) error {
	return in.runScanner(NewScanner(r, name))
}

// RunString scans and executes the given source text.
func (in *Interp) RunString(src string) error {
	return in.runScanner(NewStringScanner(src, "<string>"))
}

// RunStringNamed scans and executes src, labeling errors with name.
func (in *Interp) RunStringNamed(src, name string) error {
	return in.runScanner(NewStringScanner(src, name))
}

// Eval runs src and returns the object left on top of the stack.
func (in *Interp) Eval(src string) (Object, error) {
	if err := in.RunString(src); err != nil {
		return Object{}, err
	}
	return in.Pop()
}

// Stopped executes proc the way the `stopped` operator does and reports
// whether a stop (or interpreter error) occurred.
func (in *Interp) Stopped(proc Object) (bool, error) {
	err := in.execValue(proc)
	if err == nil {
		return false, nil
	}
	var pe *Error
	if errors.Is(err, errStop) || errors.As(err, &pe) {
		return true, nil
	}
	// errExit outside a loop, or a Go-level failure: propagate.
	return false, err
}

func (in *Interp) printf(format string, args ...any) {
	fmt.Fprintf(in.Stdout, format, args...)
}

// StackDump renders the operand stack, top first, like pstack.
func (in *Interp) StackDump() string {
	var b strings.Builder
	for i := len(in.Stack) - 1; i >= 0; i-- {
		b.WriteString(Format(in.Stack[i]))
		b.WriteByte('\n')
	}
	return b.String()
}
