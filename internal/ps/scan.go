package ps

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Byte classes for the scanner, one table lookup per byte in the
// manner of a generated lexer's bitmap.
const (
	clSpace    = 1 << iota // separates tokens
	clDelim                // ends a name and starts a token of its own
	clNumStart             // may start a number: digit, sign or dot
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\r\f\x00") {
		t[c] |= clSpace
	}
	for _, c := range []byte("()<>[]{}/%") {
		t[c] |= clDelim
	}
	for _, c := range []byte("0123456789+-.") {
		t[c] |= clNumStart
	}
	return t
}()

// Scanner reads PostScript tokens. `{ ... }` bodies are scanned into
// executable arrays; `[`, `]`, `<<`, and `>>` are returned as executable
// names and interpreted by operators of the same name.
//
// The scanner works on a window of the input. For a string source the
// window is the whole string, so names and strings without escapes are
// substrings of the source. A reader source refills the window as
// tokens need more bytes, never reading ahead of the token it is
// scanning: executing one token from a pipe may be what makes the peer
// write the next.
type Scanner struct {
	src  io.Reader // refills win; nil for a string source
	buf  []byte    // read buffer of a reader source
	win  string    // the input in hand
	pos  int       // next byte of win
	err  error     // why the input ended, once it has
	name string
	line int

	elems []Object // elements of the procedure bodies being scanned
	open  []int    // where each unfinished body's elements start
}

// NewScanner returns a scanner reading from r; name labels errors.
func NewScanner(r io.Reader, name string) *Scanner {
	return &Scanner{src: r, name: name, line: 1}
}

// NewStringScanner scans the given source text.
func NewStringScanner(src, name string) *Scanner {
	return &Scanner{win: src, err: io.EOF, name: name, line: 1}
}

func (s *Scanner) errf(format string, args ...any) error {
	return &Error{Name: "syntaxerror", Cmd: fmt.Sprintf("%s:%d: %s", s.name, s.line, fmt.Sprintf(format, args...))}
}

// fill replaces the exhausted window with the next bytes of a reader
// source. It reports false at the end of input, with the reason in
// s.err.
func (s *Scanner) fill() bool {
	if s.err != nil {
		return false
	}
	if s.buf == nil {
		s.buf = make([]byte, 1024)
	}
	for empty := 0; empty < 100; empty++ {
		n, err := s.src.Read(s.buf)
		if err != nil {
			s.err = err
		}
		if n > 0 {
			s.win, s.pos = string(s.buf[:n]), 0
			return true
		}
		if err != nil {
			return false
		}
	}
	s.err = io.ErrNoProgress
	return false
}

// next consumes and returns the next byte; ok is false at the end of
// input.
func (s *Scanner) next() (c byte, ok bool) {
	if s.pos == len(s.win) && !s.fill() {
		return 0, false
	}
	c = s.win[s.pos]
	s.pos++
	if c == '\n' {
		s.line++
	}
	return c, true
}

// Next returns the next token, or io.EOF when the input is exhausted.
// Procedure bodies nest without recursion: the elements of unfinished
// bodies accumulate on s.elems, and s.open holds where each body's
// elements start, innermost last.
func (s *Scanner) Next() (Object, error) {
	s.elems, s.open = s.elems[:0], s.open[:0]
	for {
		c, ok := s.next()
		if !ok {
			if len(s.open) > 0 {
				return Object{}, s.errf("unterminated procedure")
			}
			return Object{}, s.err
		}
		var tok Object
		switch {
		case byteClass[c]&clSpace != 0:
			continue
		case c == '%':
			for c != '\n' && ok {
				c, ok = s.next()
			}
			continue
		case c == '{':
			s.open = append(s.open, len(s.elems))
			continue
		case c == '}':
			if len(s.open) == 0 {
				return Object{}, s.errf("unmatched }")
			}
			start := s.open[len(s.open)-1]
			s.open = s.open[:len(s.open)-1]
			var body []Object
			if len(s.elems) > start {
				body = slices.Clone(s.elems[start:])
			}
			s.elems = s.elems[:start]
			tok = Proc(body...)
		case c == '(':
			str, err := s.scanString()
			if err != nil {
				return Object{}, err
			}
			tok = Str(str)
		case c == '/':
			name, err := s.scanName(s.pos)
			if err != nil {
				return Object{}, err
			}
			tok = LitName(name)
		case c == '[':
			tok = ExecName("[")
		case c == ']':
			tok = ExecName("]")
		case c == '<' || c == '>':
			if s.pos == len(s.win) {
				s.fill()
			}
			if s.pos == len(s.win) || s.win[s.pos] != c {
				if c == '<' {
					return Object{}, s.errf("hex strings are not in the dialect")
				}
				return Object{}, s.errf("unexpected >")
			}
			s.pos++
			if c == '<' {
				tok = ExecName("<<")
			} else {
				tok = ExecName(">>")
			}
		case c == ')':
			return Object{}, s.errf("unmatched )")
		default:
			word, err := s.scanName(s.pos - 1)
			if err != nil {
				return Object{}, err
			}
			if o, ok := parseNumber(word); ok {
				tok = o
			} else {
				tok = ExecName(word)
			}
		}
		if len(s.open) == 0 {
			return tok, nil
		}
		s.elems = append(s.elems, tok)
	}
}

// scanName returns the name that starts at win[start] and runs to the
// next space or delimiter or the end of input. It is empty after a
// bare `/`.
func (s *Scanner) scanName(start int) (string, error) {
	var acc []byte // the name so far, once it spans windows
	for {
		i := s.pos
		for i < len(s.win) && byteClass[s.win[i]]&(clSpace|clDelim) == 0 {
			i++
		}
		s.pos = i
		if i < len(s.win) || s.err != nil {
			break
		}
		acc = append(acc, s.win[start:]...)
		start = len(s.win)
		if s.fill() {
			start = 0
		}
	}
	if s.pos == len(s.win) && s.err != nil && s.err != io.EOF {
		return "", s.err
	}
	name := s.win[start:s.pos]
	if acc != nil {
		name = string(append(acc, name...))
	}
	return name, nil
}

// scanString returns the text of a string whose `(` has been consumed.
// Without escapes or a window refill, the text is a substring of the
// input.
func (s *Scanner) scanString() (string, error) {
	var acc []byte // the text before win[run:], once it is not a substring
	run := s.pos
	depth := 1
	for {
		if s.pos == len(s.win) {
			acc = append(acc, s.win[run:]...)
			if !s.fill() {
				return "", s.errf("unterminated string")
			}
			run = 0
		}
		c := s.win[s.pos]
		s.pos++
		switch c {
		case '\n':
			s.line++
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				if acc == nil {
					return s.win[run : s.pos-1], nil
				}
				return string(append(acc, s.win[run:s.pos-1]...)), nil
			}
		case '\\':
			acc = append(acc, s.win[run:s.pos-1]...)
			c2, ok := s.next()
			if !ok {
				return "", s.errf("unterminated string escape")
			}
			acc = s.escape(acc, c2)
			run = s.pos
		}
	}
}

// escape appends the byte that the escape `\c` (and, for an octal
// escape, up to two more digits) stands for.
func (s *Scanner) escape(acc []byte, c byte) []byte {
	switch c {
	case 'n':
		return append(acc, '\n')
	case 't':
		return append(acc, '\t')
	case 'r':
		return append(acc, '\r')
	case 'b':
		return append(acc, '\b')
	case 'f':
		return append(acc, '\f')
	case '\n':
		return acc // line continuation
	}
	if c < '0' || c > '7' {
		return append(acc, c)
	}
	v := int(c - '0')
	for i := 0; i < 2; i++ {
		if s.pos == len(s.win) && !s.fill() {
			break
		}
		d := s.win[s.pos]
		if d < '0' || d > '7' {
			break
		}
		s.pos++
		v = v*8 + int(d-'0')
	}
	return append(acc, byte(v))
}

// parseNumber recognizes integers, reals, and radix literals like
// 16#000023d8 (§3 uses radix-16 addresses in loader tables).
func parseNumber(word string) (Object, bool) {
	// A word that cannot start a number is a name; most words are, and
	// rejecting them here spares strconv building an error for each.
	if word == "" || byteClass[word[0]]&clNumStart == 0 {
		return Object{}, false
	}
	if i := strings.IndexByte(word, '#'); i > 0 {
		base, err := strconv.ParseInt(word[:i], 10, 32)
		if err != nil || base < 2 || base > 36 {
			return Object{}, false
		}
		v, err := strconv.ParseInt(word[i+1:], int(base), 64)
		if err != nil {
			// Addresses can fill 32 bits; retry unsigned.
			u, uerr := strconv.ParseUint(word[i+1:], int(base), 64)
			if uerr != nil {
				return Object{}, false
			}
			return Int(int64(u)), true
		}
		return Int(v), true
	}
	if v, err := strconv.ParseInt(word, 10, 64); err == nil {
		return Int(v), true
	}
	if v, err := strconv.ParseFloat(word, 64); err == nil {
		return Real(v), true
	}
	return Object{}, false
}
