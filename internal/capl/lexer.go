package capl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error is a lexical or syntax error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("capl:%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans the source string byte by byte. A rune is decoded only
// at a byte of utf8.RuneSelf or above; every operator, delimiter and
// comment marker is ASCII, so those are matched on bytes. pos is a
// byte offset, col counts runes.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// Lex tokenises CAPL source, returning the stream terminated by EOF.
// CANoe's `/*@!Encoding:1310*/` pragma and comments are skipped.
// Identifier and number texts are substrings of src.
func Lex(src string) ([]Token, error) {
	lx := &lexer{src: src, line: 1, col: 1}
	var out []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
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

// runeAt decodes the rune starting n bytes past pos (0 past the end).
func (lx *lexer) runeAt(n int) rune {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	if c := lx.src[lx.pos+n]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos+n:])
	return r
}

// advance consumes one rune.
func (lx *lexer) advance() rune {
	c := lx.src[lx.pos]
	if c < utf8.RuneSelf {
		lx.pos++
		if c == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
	lx.pos += w
	lx.col++
	return r
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
	letters    = newClass(unicode.IsLetter)
	digits     = newClass(unicode.IsDigit)
	identChars = newClass(func(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) })
	hexDigits  = newClass(func(r rune) bool { return unicode.IsDigit(r) || 'a' <= r && r <= 'f' || 'A' <= r && r <= 'F' })
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
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) skip() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			lx.advance()
		case c == '/' && lx.byteAt(1) == '/':
			end := strings.IndexByte(lx.src[lx.pos:], '\n')
			if end < 0 {
				end = len(lx.src) - lx.pos
			}
			lx.col += utf8.RuneCountInString(lx.src[lx.pos : lx.pos+end])
			lx.pos += end
		case c == '/' && lx.byteAt(1) == '*':
			line, col := lx.line, lx.col
			lx.pos += 2
			lx.col += 2
			for {
				if lx.pos >= len(lx.src) {
					return &Error{Line: line, Col: col, Msg: "unterminated block comment"}
				}
				if lx.src[lx.pos] == '*' && lx.byteAt(1) == '/' {
					lx.pos += 2
					lx.col += 2
					break
				}
				lx.advance()
			}
		case c >= utf8.RuneSelf && unicode.IsSpace(lx.runeAt(0)):
			lx.advance()
		default:
			return nil
		}
	}
	return nil
}

// punct maps each single-byte punctuation character to its token kind.
var punct = [utf8.RuneSelf]Kind{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE,
	'[': LBRACKET, ']': RBRACKET, ';': SEMI, ',': COMMA, '.': DOT,
	'=': ASSIGN, '+': PLUS, '-': MINUS, '*': STAR, '/': SLASH,
	'%': PERCENT, '&': AMP, '|': PIPE, '^': CARET, '~': TILDE,
	'!': BANG, '<': LT, '>': GT, '?': QUESTION, ':': COLON,
}

// operator matches the longest operator starting with the ASCII byte c
// at pos, returning its kind (0 when c starts none) and length in bytes.
func (lx *lexer) operator(c byte) (Kind, int) {
	c1 := lx.byteAt(1)
	switch c {
	case '<':
		switch {
		case c1 == '<' && lx.byteAt(2) == '=':
			return SHLEQ, 3
		case c1 == '<':
			return SHL, 2
		case c1 == '=':
			return LE, 2
		}
	case '>':
		switch {
		case c1 == '>' && lx.byteAt(2) == '=':
			return SHREQ, 3
		case c1 == '>':
			return SHR, 2
		case c1 == '=':
			return GE, 2
		}
	case '&', '|', '+', '-':
		if c1 == c {
			return doubled[c], 2
		}
	}
	if c1 == '=' && compoundAssign[c] != 0 {
		return compoundAssign[c], 2
	}
	return punct[c], 1
}

// doubled maps c to the kind of the operator cc.
var doubled = [utf8.RuneSelf]Kind{'&': ANDAND, '|': OROR, '+': INC, '-': DEC}

// compoundAssign maps c to the kind of the operator c=.
var compoundAssign = [utf8.RuneSelf]Kind{
	'=': EQ, '!': NE, '+': PLUSEQ, '-': MINUSEQ, '*': STAREQ, '/': SLASHEQ,
	'%': PERCENTEQ, '&': AMPEQ, '|': PIPEEQ, '^': CARETEQ,
}

func (lx *lexer) next() (Token, error) {
	if err := lx.skip(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = EOF
		return tok, nil
	}
	r := lx.runeAt(0)

	switch {
	case r == '#':
		// #include directive inside an includes section.
		start := lx.pos
		lx.advance()
		lx.skipRunes(letters)
		word := lx.src[start:lx.pos]
		if word != "#include" {
			return Token{}, lx.errf("unknown directive %q", word)
		}
		tok.Kind = KwHashInclude
		tok.Text = word
		return tok, nil

	case r == '_' || letters.has(r):
		start := lx.pos
		lx.skipRunes(identChars)
		text := lx.src[start:lx.pos]
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
			tok.Text = text
			return tok, nil
		}
		tok.Kind = IDENT
		tok.Text = text
		return tok, nil

	case digits.has(r):
		return lx.number()

	case r == '"':
		return lx.str(tok)

	case r == '\'':
		lx.advance()
		if lx.pos >= len(lx.src) {
			return Token{}, lx.errf("unterminated character literal")
		}
		start := lx.pos
		c := lx.advance()
		text := lx.src[start:lx.pos]
		if c == '\\' {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf("unterminated escape")
			}
			e := lx.advance()
			switch e {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '0':
				c = 0
			case '\\', '\'', '"':
				c = e
			default:
				return Token{}, lx.errf("unknown escape \\%c", e)
			}
			text = string(c)
		} else if c == utf8.RuneError {
			// An invalid byte reads as U+FFFD, as string([]rune(src)) has it.
			text = string(c)
		}
		if lx.pos >= len(lx.src) || lx.advance() != '\'' {
			return Token{}, lx.errf("unterminated character literal")
		}
		tok.Kind = CHAR
		tok.Text = text
		tok.Int = int64(c)
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

// str scans a string literal. A literal without escapes whose bytes are
// valid UTF-8 is a substring of the source; any other is rebuilt rune by
// rune, with invalid bytes read as U+FFFD.
func (lx *lexer) str(tok Token) (Token, error) {
	lx.advance()
	start, line, col := lx.pos, lx.line, lx.col
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' && lx.src[lx.pos] != '\\' {
		lx.advance()
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '"' && utf8.ValidString(lx.src[start:lx.pos]) {
		tok.Kind = STRING
		tok.Text = lx.src[start:lx.pos]
		lx.advance()
		return tok, nil
	}
	lx.pos, lx.line, lx.col = start, line, col
	var sb strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return Token{}, lx.errf("unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf("unterminated escape")
			}
			e := lx.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '"', '\'':
				sb.WriteRune(e)
			case '0':
				sb.WriteByte(0)
			default:
				return Token{}, lx.errf("unknown escape \\%c", e)
			}
			continue
		}
		sb.WriteRune(c)
	}
	tok.Kind = STRING
	tok.Text = sb.String()
	return tok, nil
}

func (lx *lexer) number() (Token, error) {
	tok := Token{Line: lx.line, Col: lx.col}
	start := lx.pos
	if lx.byteAt(0) == '0' && (lx.byteAt(1) == 'x' || lx.byteAt(1) == 'X') {
		lx.pos += 2
		lx.col += 2
		hexStart := lx.pos
		lx.skipRunes(hexDigits)
		if lx.pos == hexStart {
			return Token{}, lx.errf("malformed hex literal")
		}
		text := lx.src[hexStart:lx.pos]
		n, err := strconv.ParseInt(text, 16, 64)
		if err != nil {
			return Token{}, lx.errf("bad hex literal 0x%s", text)
		}
		tok.Kind = INT
		tok.Int = n
		tok.Text = lx.src[start:lx.pos]
		if lx.src[start+1] == 'X' {
			tok.Text = "0x" + text
		}
		return tok, nil
	}
	lx.skipRunes(digits)
	isFloat := false
	if lx.byteAt(0) == '.' && digits.has(lx.runeAt(1)) {
		isFloat = true
		lx.advance()
		lx.skipRunes(digits)
	}
	text := lx.src[start:lx.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, lx.errf("bad float literal %q", text)
		}
		tok.Kind = FLOAT
		tok.Flt = f
		tok.Text = text
		return tok, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, lx.errf("bad integer literal %q", text)
	}
	tok.Kind = INT
	tok.Int = n
	tok.Text = text
	return tok, nil
}
