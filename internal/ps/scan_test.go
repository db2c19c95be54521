package ps

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// scanAll scans every token of sc and renders each as kind:text, with
// string payloads quoted so control bytes stay visible. A scan error
// ends the list and is returned as its message.
func scanAll(sc *Scanner) (toks []string, errText string) {
	for {
		o, err := sc.Next()
		if err == io.EOF {
			return toks, ""
		}
		if err != nil {
			return toks, err.Error()
		}
		text := Format(o)
		if o.Kind == KString {
			text = fmt.Sprintf("%q", o.S)
		}
		toks = append(toks, o.Kind.String()+":"+text)
	}
}

// TestScannerTokens pins the scanner's tokens and its line-numbered
// syntax errors, for string sources and for reader sources delivered a
// byte at a time.
func TestScannerTokens(t *testing.T) {
	cases := []struct {
		name string
		src  string
		toks []string
		err  string
	}{
		{
			name: "crlf",
			src:  "1 2\r\nadd\r\n/x\r\n",
			toks: []string{"integertype:1", "integertype:2", "nametype:add", "nametype:/x"},
		},
		{
			name: "crlf line numbers",
			src:  "1\r\n2\r\n}",
			toks: []string{"integertype:1", "integertype:2"},
			err:  "ps: syntaxerror in t:3: unmatched }",
		},
		{
			name: "comment at eof",
			src:  "1 % trailing comment",
			toks: []string{"integertype:1"},
		},
		{
			name: "comment ends at newline",
			src:  "% lead\n/a%x\n2",
			toks: []string{"nametype:/a", "integertype:2"},
		},
		{
			name: "comment before close brace",
			src:  "{ 1 % c\n} 2",
			toks: []string{"arraytype:{ 1 }", "integertype:2"},
		},
		{
			name: "nested parens",
			src:  "(a(b)c) (\\)\\(\\\\)",
			toks: []string{`stringtype:"a(b)c"`, `stringtype:")(\\"`},
		},
		{
			name: "escapes",
			src:  "(\\n\\t\\r\\b\\f\\q) (a\\\nb)",
			toks: []string{`stringtype:"\n\t\r\b\fq"`, `stringtype:"ab"`},
		},
		{
			name: "octal escapes",
			src:  "(\\101\\0612\\7) (\\1x) (\\777)",
			toks: []string{`stringtype:"A12\a"`, `stringtype:"\x01x"`, `stringtype:"\xff"`},
		},
		{
			name: "radix numbers",
			src:  "16#ffffffff 8#17 2#101 16#7fffffffffffffff 1#0 37#1 16#zz",
			toks: []string{
				"integertype:4294967295", "integertype:15", "integertype:5",
				"integertype:9223372036854775807",
				"nametype:1#0", "nametype:37#1", "nametype:16#zz",
			},
		},
		{
			name: "numbers and names",
			src:  "e10 1e10 -5 +3 .5 -.5e1 5. 0x10 1.2.3 - + . inf NaN -inf 0x1p-2",
			toks: []string{
				"nametype:e10", "realtype:1e+10", "integertype:-5", "integertype:3",
				"realtype:0.5", "realtype:-5.0", "realtype:5.0", "nametype:0x10",
				"nametype:1.2.3", "nametype:-", "nametype:+", "nametype:.",
				"nametype:inf", "nametype:NaN", "realtype:-Inf.0", "realtype:0.25",
			},
		},
		{
			name: "dict and array brackets",
			src:  "<</a 1>>[2]{3}",
			toks: []string{
				"nametype:<<", "nametype:/a", "integertype:1", "nametype:>>",
				"nametype:[", "integertype:2", "nametype:]", "arraytype:{ 3 }",
			},
		},
		{
			name: "names end at delimiters",
			src:  "a/b(c)d{e}f[g]h<<i>>j%k\nl",
			toks: []string{
				"nametype:a", "nametype:/b", `stringtype:"c"`, "nametype:d",
				"arraytype:{ e }", "nametype:f", "nametype:[", "nametype:g",
				"nametype:]", "nametype:h", "nametype:<<", "nametype:i",
				"nametype:>>", "nametype:j", "nametype:l",
			},
		},
		{
			name: "empty literal name",
			src:  "/ 1",
			toks: []string{"nametype:/", "integertype:1"},
		},
		{
			name: "hex string",
			src:  "1\n<ab>",
			toks: []string{"integertype:1"},
			err:  "ps: syntaxerror in t:2: hex strings are not in the dialect",
		},
		{
			name: "stray close angle",
			src:  "> 1",
			err:  "ps: syntaxerror in t:1: unexpected >",
		},
		{
			name: "stray close paren",
			src:  "\n\n)",
			err:  "ps: syntaxerror in t:3: unmatched )",
		},
		{
			name: "unterminated proc",
			src:  "{ 1 2",
			err:  "ps: syntaxerror in t:1: unterminated procedure",
		},
		{
			name: "unterminated proc across lines",
			src:  "{\n1\n",
			err:  "ps: syntaxerror in t:3: unterminated procedure",
		},
		{
			name: "unterminated nested proc",
			src:  "{ { 1 }\n(x)",
			err:  "ps: syntaxerror in t:2: unterminated procedure",
		},
		{
			name: "unterminated string",
			src:  "1 (abc\ndef",
			toks: []string{"integertype:1"},
			err:  "ps: syntaxerror in t:2: unterminated string",
		},
		{
			name: "unterminated escape",
			src:  "(a\\",
			err:  "ps: syntaxerror in t:1: unterminated string escape",
		},
		{
			name: "error inside proc",
			src:  "{ 1\n) }",
			err:  "ps: syntaxerror in t:2: unmatched )",
		},
	}
	for _, tc := range cases {
		sources := map[string]*Scanner{
			"string": NewStringScanner(tc.src, "t"),
			"reader": NewScanner(iotest.OneByteReader(strings.NewReader(tc.src)), "t"),
		}
		for kind, sc := range sources {
			toks, errText := scanAll(sc)
			if strings.Join(toks, " ") != strings.Join(tc.toks, " ") || errText != tc.err {
				t.Errorf("%s (%s source): scanned %q, error %q; want %q, error %q",
					tc.name, kind, toks, errText, tc.toks, tc.err)
			}
		}
	}
}
