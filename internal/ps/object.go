// Package ps implements the dialect of PostScript embedded in ldb.
//
// Following the paper (§5), the dialect omits the font and imaging types
// and operators of full PostScript and adds types and operators for
// debugging (abstract memories and locations are registered by higher
// layers as extension objects). Strings are immutable, there are no
// save/restore operators (the Go garbage collector reclaims memory),
// there are no substrings or subarrays, interpreter errors are ordinary
// Go errors, and files are readers or writers.
package ps

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind identifies the type of a PostScript object.
type Kind uint8

// The object kinds of the dialect.
const (
	KNull Kind = iota
	KBool
	KInt
	KReal
	KName
	KString
	KArray
	KDict
	KOperator
	KMark
	KFile
	KExt
)

var kindNames = [...]string{
	KNull:     "nulltype",
	KBool:     "booleantype",
	KInt:      "integertype",
	KReal:     "realtype",
	KName:     "nametype",
	KString:   "stringtype",
	KArray:    "arraytype",
	KDict:     "dicttype",
	KOperator: "operatortype",
	KMark:     "marktype",
	KFile:     "filetype",
	KExt:      "exttype",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Ext is implemented by extension objects (abstract memories, locations,
// target handles) that higher layers embed in the interpreter.
type Ext interface {
	// ExtType names the extension type; the PostScript `type` operator
	// reports it and type checks compare against it.
	ExtType() string
}

// Object is a PostScript object. The zero value is the null object.
type Object struct {
	Kind Kind
	// Exec reports whether the object carries the executable attribute.
	// Every object tells explicitly whether it is literal or executable
	// (§5); the distinction is never inferred from context.
	Exec bool

	B  bool
	I  int64
	R  float64
	S  string // payload of names and strings
	A  *Array
	D  *Dict
	Op *Operator
	F  *File
	X  Ext
}

// Array is the backing store of an array object. Arrays are mutable
// unless frozen (see Freeze); the dialect has no subarrays, so every
// array object owns its storage.
type Array struct {
	E      []Object
	frozen bool
}

// Operator is a built-in operator.
type Operator struct {
	Name string
	Fn   func(*Interp) error
}

// File is a reader or writer usable from PostScript. Executing an
// executable file object reads and executes tokens from it until EOF or
// until a `stop`; this is how ldb applies "cvx stopped" to the open pipe
// from the expression server (§3).
type File struct {
	Name string
	R    io.Reader
	W    io.Writer
	sc   *Scanner
}

// Null returns the null object.
func Null() Object { return Object{Kind: KNull} }

// Boolean returns a boolean object.
func Boolean(b bool) Object { return Object{Kind: KBool, B: b} }

// Int returns an integer object.
func Int(i int64) Object { return Object{Kind: KInt, I: i} }

// Real returns a real object.
func Real(r float64) Object { return Object{Kind: KReal, R: r} }

// Str returns an (immutable) string object.
func Str(s string) Object { return Object{Kind: KString, S: s} }

// LitName returns a literal name, as written /name.
func LitName(s string) Object { return Object{Kind: KName, S: s} }

// ExecName returns an executable name, as written bare.
func ExecName(s string) Object { return Object{Kind: KName, S: s, Exec: true} }

// Mark returns a mark object.
func Mark() Object { return Object{Kind: KMark} }

// ArrayObj returns a literal array object wrapping elems.
func ArrayObj(elems ...Object) Object {
	return Object{Kind: KArray, A: &Array{E: elems}}
}

// Proc returns an executable array (a procedure) wrapping elems.
func Proc(elems ...Object) Object {
	return Object{Kind: KArray, Exec: true, A: &Array{E: elems}}
}

// DictObj returns a dictionary object wrapping d.
func DictObj(d *Dict) Object { return Object{Kind: KDict, D: d} }

// ExtObj wraps an extension value as a literal object.
func ExtObj(x Ext) Object { return Object{Kind: KExt, X: x} }

// FileObj wraps a file as a literal object.
func FileObj(f *File) Object { return Object{Kind: KFile, F: f} }

// OpObj wraps an operator (always executable).
func OpObj(name string, fn func(*Interp) error) Object {
	return Object{Kind: KOperator, Exec: true, Op: &Operator{Name: name, Fn: fn}}
}

// IsNumber reports whether o is an integer or a real.
func (o Object) IsNumber() bool { return o.Kind == KInt || o.Kind == KReal }

// Num returns the numeric value of an integer or real object.
func (o Object) Num() float64 {
	if o.Kind == KInt {
		return float64(o.I)
	}
	return o.R
}

// TypeName returns the name reported by the `type` operator.
func (o Object) TypeName() string {
	if o.Kind == KExt && o.X != nil {
		return o.X.ExtType()
	}
	return o.Kind.String()
}

// Equal reports object equality in the sense of the `eq` operator:
// numbers compare by value across int/real, strings and names compare by
// text (and to each other, as in PostScript), composites by identity.
func Equal(a, b Object) bool {
	textual := func(o Object) (string, bool) {
		if o.Kind == KString || o.Kind == KName {
			return o.S, true
		}
		return "", false
	}
	if sa, ok := textual(a); ok {
		if sb, ok := textual(b); ok {
			return sa == sb
		}
		return false
	}
	if a.IsNumber() && b.IsNumber() {
		return a.Num() == b.Num()
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KNull, KMark:
		return true
	case KBool:
		return a.B == b.B
	case KArray:
		return a.A == b.A
	case KDict:
		return a.D == b.D
	case KOperator:
		return a.Op == b.Op
	case KFile:
		return a.F == b.F
	case KExt:
		return a.X == b.X
	}
	return false
}

// Format renders o the way the `==` operator would.
func Format(o Object) string {
	var b strings.Builder
	formatInto(&b, o, 0)
	return b.String()
}

const maxFormatDepth = 8

func formatInto(b *strings.Builder, o Object, depth int) {
	if depth > maxFormatDepth {
		b.WriteString("...")
		return
	}
	switch o.Kind {
	case KNull:
		b.WriteString("null")
	case KBool:
		b.WriteString(strconv.FormatBool(o.B))
	case KInt:
		b.WriteString(strconv.FormatInt(o.I, 10))
	case KReal:
		s := strconv.FormatFloat(o.R, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		b.WriteString(s)
	case KName:
		if !o.Exec {
			b.WriteByte('/')
		}
		b.WriteString(o.S)
	case KString:
		b.WriteByte('(')
		for _, c := range []byte(o.S) {
			switch c {
			case '(', ')', '\\':
				b.WriteByte('\\')
				b.WriteByte(c)
			case '\n':
				b.WriteString(`\n`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte(')')
	case KArray:
		open, close := "[", "]"
		if o.Exec {
			open, close = "{", "}"
		}
		b.WriteString(open)
		for i, e := range o.A.E {
			if i > 0 || true {
				b.WriteByte(' ')
			}
			formatInto(b, e, depth+1)
			_ = i
		}
		b.WriteByte(' ')
		b.WriteString(close)
	case KDict:
		b.WriteString("<<")
		for _, k := range o.D.Keys() {
			v, _ := o.D.Get(k)
			b.WriteByte(' ')
			formatInto(b, k, depth+1)
			b.WriteByte(' ')
			formatInto(b, v, depth+1)
		}
		b.WriteString(" >>")
	case KOperator:
		fmt.Fprintf(b, "--%s--", o.Op.Name)
	case KMark:
		b.WriteString("-mark-")
	case KFile:
		fmt.Fprintf(b, "-file:%s-", o.F.Name)
	case KExt:
		if s, ok := o.X.(fmt.Stringer); ok {
			fmt.Fprintf(b, "-%s:%s-", o.TypeName(), s)
		} else {
			fmt.Fprintf(b, "-%s-", o.TypeName())
		}
	default:
		b.WriteString("-unknown-")
	}
}

// Cvs renders o the way the `cvs`/`=` operators would: strings are their
// own text, names their text, numbers and booleans their printed form,
// and everything else the `==` form.
func Cvs(o Object) string {
	switch o.Kind {
	case KString, KName:
		return o.S
	case KInt:
		return strconv.FormatInt(o.I, 10)
	case KReal:
		return Format(o)
	case KBool:
		return strconv.FormatBool(o.B)
	default:
		return Format(o)
	}
}
