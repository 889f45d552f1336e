package cspm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// SyntaxError is a lexical or parse error with source position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("cspm:%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans the source string byte by byte. A rune is decoded only
// at a byte of utf8.RuneSelf or above; every operator and comment
// marker is ASCII, so those are matched on bytes. pos is a byte offset,
// col counts runes.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// Lex tokenises an entire CSPm source, returning the token stream
// terminated by TokEOF. Identifier and integer texts are substrings of
// src.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1, col: 1}
	var out []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// byteAt returns the byte n bytes past pos, or 0 past the end.
func (lx *lexer) byteAt(n int) byte {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

// runeAt decodes the rune at pos (0 at the end).
func (lx *lexer) runeAt() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return r
}

// advance consumes one rune.
func (lx *lexer) advance() {
	c := lx.src[lx.pos]
	if c < utf8.RuneSelf {
		lx.pos++
		if c == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		return
	}
	_, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
	lx.pos += w
	lx.col++
}

// class is a set of runes, its ASCII members in a table and the rest
// decided by a predicate.
type class struct {
	ascii [utf8.RuneSelf]bool
	other func(rune) bool
}

func newClass(in func(rune) bool) *class {
	c := &class{other: in}
	for b := range c.ascii {
		c.ascii[b] = in(rune(b))
	}
	return c
}

var (
	identStart = newClass(func(r rune) bool { return r == '_' || unicode.IsLetter(r) })
	identChars = newClass(func(r rune) bool { return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r) })
	digits     = newClass(unicode.IsDigit)
)

// has reports whether r is in c.
func (c *class) has(r rune) bool {
	if r < utf8.RuneSelf {
		return c.ascii[r]
	}
	return c.other(r)
}

// skipRunes consumes the runes at pos while they are in c. No class
// holds '\n', so an ASCII member only moves the column.
func (lx *lexer) skipRunes(c *class) {
	for lx.pos < len(lx.src) {
		if b := lx.src[lx.pos]; b < utf8.RuneSelf {
			if !c.ascii[b] {
				return
			}
			lx.pos++
			lx.col++
			continue
		}
		r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !c.other(r) {
			return
		}
		lx.pos += w
		lx.col++
	}
}

func (lx *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			lx.advance()
		case c == '-' && lx.byteAt(1) == '-':
			// Line comment. But "->" must not be eaten: '--' is safe.
			end := strings.IndexByte(lx.src[lx.pos:], '\n')
			if end < 0 {
				end = len(lx.src) - lx.pos
			}
			lx.col += utf8.RuneCountInString(lx.src[lx.pos : lx.pos+end])
			lx.pos += end
		case c == '{' && lx.byteAt(1) == '-':
			// Block comment {- ... -}, nesting not supported (as in CSPm).
			startLine, startCol := lx.line, lx.col
			lx.pos += 2
			lx.col += 2
			for {
				if lx.pos >= len(lx.src) {
					return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
				}
				if lx.src[lx.pos] == '-' && lx.byteAt(1) == '}' {
					lx.pos += 2
					lx.col += 2
					break
				}
				lx.advance()
			}
		case c >= utf8.RuneSelf && unicode.IsSpace(lx.runeAt()):
			lx.advance()
		default:
			return nil
		}
	}
	return nil
}

// punct maps each single-byte operator to its token kind.
var punct = [utf8.RuneSelf]TokKind{
	'=': TokEquals, '(': TokLParen, ')': TokRParen, '{': TokLBrace,
	'}': TokRBrace, ',': TokComma, ':': TokColon, ';': TokSemi,
	'|': TokBar, '.': TokDot, '?': TokQuestion, '!': TokBang,
	'\\': TokBackslash, '&': TokAmp, '@': TokAt, '<': TokLt, '>': TokGt,
	'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash,
	'%': TokPercent, ']': TokRBrack,
}

// operator matches the longest operator starting with the ASCII byte c
// at pos, returning its kind (0 when c starts none) and length in bytes.
func (lx *lexer) operator(c byte) (TokKind, int) {
	c1 := lx.byteAt(1)
	switch c {
	case '[':
		switch c1 {
		case 'F':
			if lx.byteAt(2) == 'D' && lx.byteAt(3) == '=' {
				return TokRefFD, 4
			}
			if lx.byteAt(2) == '=' {
				return TokRefF, 3
			}
		case 'T':
			if lx.byteAt(2) == '=' {
				return TokRefT, 3
			}
		case ']':
			return TokBox, 2
		case '|':
			return TokLPar, 2
		case '[':
			return TokLRename, 2
		}
	case '|':
		switch c1 {
		case '~':
			if lx.byteAt(2) == '|' {
				return TokIntCh, 3
			}
		case '|':
			if lx.byteAt(2) == '|' {
				return TokIleave, 3
			}
		case '}':
			return TokRProd, 2
		case ']':
			return TokRPar, 2
		}
	case '{':
		if c1 == '|' {
			return TokLProd, 2
		}
	case '-':
		if c1 == '>' {
			return TokArrow, 2
		}
	case ']':
		if c1 == ']' {
			return TokRRename, 2
		}
	case '<':
		switch c1 {
		case '-':
			return TokLArrow, 2
		case '=':
			return TokLe, 2
		}
	case '=', '!', '>':
		if c1 == '=' {
			return compareOps[c], 2
		}
	case '.':
		if c1 == '.' {
			return TokDotDot, 2
		}
	case ':':
		if c1 == '[' {
			return TokColLBrack, 2
		}
	}
	return punct[c], 1
}

// compareOps maps c to the kind of the operator c=.
var compareOps = [utf8.RuneSelf]TokKind{'=': TokEq, '!': TokNe, '>': TokGe}

func (lx *lexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	r := lx.runeAt()

	switch {
	case identStart.has(r):
		start := lx.pos
		lx.skipRunes(identChars)
		text := lx.src[start:lx.pos]
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
			tok.Text = text
			return tok, nil
		}
		tok.Kind = TokIdent
		tok.Text = text
		return tok, nil

	case digits.has(r):
		start := lx.pos
		lx.skipRunes(digits)
		text := lx.src[start:lx.pos]
		n, err := strconv.Atoi(text)
		if err != nil {
			return Token{}, lx.errf("bad integer literal %q", text)
		}
		tok.Kind = TokInt
		tok.Int = n
		tok.Text = text
		return tok, nil
	}

	if r < utf8.RuneSelf {
		if kind, n := lx.operator(byte(r)); kind != 0 {
			lx.pos += n
			lx.col += n
			tok.Kind = kind
			return tok, nil
		}
	}
	return Token{}, lx.errf("unexpected character %q", string(r))
}
