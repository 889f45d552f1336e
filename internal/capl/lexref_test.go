package capl

// The rune lexer that Lex replaced, kept as the reference that
// FuzzLexDiff compares the byte lexer against: same tokens, same
// positions, same error strings, on any input.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

type refLexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

// refLex tokenises CAPL source, returning the stream terminated by EOF.
// CANoe's `/*@!Encoding:1310*/` pragma and comments are skipped.
func refLex(src string) ([]Token, error) {
	lx := &refLexer{src: []rune(src), line: 1, col: 1}
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

func (lx *refLexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *refLexer) peekAt(n int) rune {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *refLexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *refLexer) errf(format string, args ...any) error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *refLexer) skip() error {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '*':
			line, col := lx.line, lx.col
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return &Error{Line: line, Col: col, Msg: "unterminated block comment"}
				}
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *refLexer) next() (Token, error) {
	if err := lx.skip(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = EOF
		return tok, nil
	}
	r := lx.peek()

	switch {
	case r == '#':
		// #include directive inside an includes section.
		start := lx.pos
		lx.advance()
		for lx.pos < len(lx.src) && unicode.IsLetter(lx.peek()) {
			lx.advance()
		}
		word := string(lx.src[start:lx.pos])
		if word != "#include" {
			return Token{}, lx.errf("unknown directive %q", word)
		}
		tok.Kind = KwHashInclude
		tok.Text = word
		return tok, nil

	case r == '_' || unicode.IsLetter(r):
		start := lx.pos
		for lx.pos < len(lx.src) && (lx.peek() == '_' || unicode.IsLetter(lx.peek()) || unicode.IsDigit(lx.peek())) {
			lx.advance()
		}
		text := string(lx.src[start:lx.pos])
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
			tok.Text = text
			return tok, nil
		}
		tok.Kind = IDENT
		tok.Text = text
		return tok, nil

	case unicode.IsDigit(r):
		return lx.number()

	case r == '"':
		lx.advance()
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

	case r == '\'':
		lx.advance()
		if lx.pos >= len(lx.src) {
			return Token{}, lx.errf("unterminated character literal")
		}
		c := lx.advance()
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
		}
		if lx.pos >= len(lx.src) || lx.advance() != '\'' {
			return Token{}, lx.errf("unterminated character literal")
		}
		tok.Kind = CHAR
		tok.Text = string(c)
		tok.Int = int64(c)
		return tok, nil
	}

	three := string(r) + string(lx.peekAt(1)) + string(lx.peekAt(2))
	two := string(r) + string(lx.peekAt(1))

	consume := func(kind Kind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			lx.advance()
		}
		tok.Kind = kind
		return tok, nil
	}

	switch three {
	case "<<=":
		return consume(SHLEQ, 3)
	case ">>=":
		return consume(SHREQ, 3)
	}
	switch two {
	case "<=":
		return consume(LE, 2)
	case ">=":
		return consume(GE, 2)
	case "==":
		return consume(EQ, 2)
	case "!=":
		return consume(NE, 2)
	case "&&":
		return consume(ANDAND, 2)
	case "||":
		return consume(OROR, 2)
	case "<<":
		return consume(SHL, 2)
	case ">>":
		return consume(SHR, 2)
	case "++":
		return consume(INC, 2)
	case "--":
		return consume(DEC, 2)
	case "+=":
		return consume(PLUSEQ, 2)
	case "-=":
		return consume(MINUSEQ, 2)
	case "*=":
		return consume(STAREQ, 2)
	case "/=":
		return consume(SLASHEQ, 2)
	case "%=":
		return consume(PERCENTEQ, 2)
	case "&=":
		return consume(AMPEQ, 2)
	case "|=":
		return consume(PIPEEQ, 2)
	case "^=":
		return consume(CARETEQ, 2)
	}
	single := map[rune]Kind{
		'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE,
		'[': LBRACKET, ']': RBRACKET, ';': SEMI, ',': COMMA, '.': DOT,
		'=': ASSIGN, '+': PLUS, '-': MINUS, '*': STAR, '/': SLASH,
		'%': PERCENT, '&': AMP, '|': PIPE, '^': CARET, '~': TILDE,
		'!': BANG, '<': LT, '>': GT, '?': QUESTION, ':': COLON,
	}
	if k, ok := single[r]; ok {
		return consume(k, 1)
	}
	return Token{}, lx.errf("unexpected character %q", string(r))
}

func (lx *refLexer) number() (Token, error) {
	tok := Token{Line: lx.line, Col: lx.col}
	start := lx.pos
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		hexStart := lx.pos
		for lx.pos < len(lx.src) && refIsHexDigit(lx.peek()) {
			lx.advance()
		}
		if lx.pos == hexStart {
			return Token{}, lx.errf("malformed hex literal")
		}
		text := string(lx.src[hexStart:lx.pos])
		n, err := strconv.ParseInt(text, 16, 64)
		if err != nil {
			return Token{}, lx.errf("bad hex literal 0x%s", text)
		}
		tok.Kind = INT
		tok.Int = n
		tok.Text = "0x" + text
		return tok, nil
	}
	for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
		lx.advance()
	}
	isFloat := false
	if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
		isFloat = true
		lx.advance()
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
	}
	text := string(lx.src[start:lx.pos])
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

func refIsHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// FuzzLexDiff requires Lex to agree with the rune reference on every
// input: the same tokens (kinds, texts, values, positions) and the same
// error text.
func FuzzLexDiff(f *testing.F) {
	seedCorpus(f)
	extra, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.can"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range extra {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range lexDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexDiff(t, src)
	})
}

// lexDiffSeeds covers what the byte lexer treats apart from ASCII:
// invalid UTF-8, NUL bytes, non-ASCII digits, letters and spaces, every
// escape and literal error, and every operator.
var lexDiffSeeds = []string{
	"",
	"\x00",
	"a\x00b",
	"\xff",
	"x = \xc3;",
	"\"\xff\"",
	"'\xff'",
	"'\xef\xbf\xbd'",
	"// \xe2\x82\nx",
	"/* \xf0\x9f\x98 */ y",
	"0.\u0662",
	"1.\u0662",
	"\u0662",
	"0x\u0662",
	"0X1f 0x 0xZ 0x8000000000000000 99999999999999999999 1.5 1. .5",
	"'\\",
	"'\\q'",
	"'a",
	"'\\n' '\\t' '\\0' '\\\\' '\\'' '\\\"' 'é' '€'",
	"\"a\\n\\t\\r\\\\\\\"\\'\\0b\" \"\\q\" \"abc",
	"\"é\u00a0\" \"x\\",
	"on message über { grüße_1 = straße2; }",
	"x\u00a0=\u20281;\u0085y",
	"#include \"a.can\" #inc #",
	"/* open",
	"a // tail",
	"@ ` $ \\ \u00ab",
	"<<= >>= <= >= == != && || << >> ++ -- += -= *= /= %= &= |= ^= " +
		"( ) { } [ ] ; , . = + - * / % & | ^ ~ ! < > ? :",
	"a<<b>>c<d>e<<=f>>=g",
}

func checkLexDiff(t *testing.T, src string) {
	t.Helper()
	got, gotErr := Lex(src)
	want, wantErr := refLex(src)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Lex(%q) error = %v, reference %v", src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lex(%q) =\n%v\nreference\n%v", src, got, want)
	}
}
