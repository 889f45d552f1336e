package cspm

// The rune lexer that Lex replaced, kept as the reference that
// FuzzLexDiff compares the byte lexer against: same tokens, same
// positions, same error strings, on any input.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"unicode"
)

type refLexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

// refLex tokenises an entire CSPm source, returning the token stream
// terminated by TokEOF.
func refLex(src string) ([]Token, error) {
	lx := newRefLexer(src)
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
	return &SyntaxError{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *refLexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '-' && lx.peekAt(1) == '-':
			// Line comment. But "->" must not be eaten: '--' is safe.
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '{' && lx.peekAt(1) == '-':
			// Block comment {- ... -}, nesting not supported (as in CSPm).
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
				}
				if lx.peek() == '-' && lx.peekAt(1) == '}' {
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

func refIsIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func refIsIdentCont(r rune) bool {
	return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (lx *refLexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	r := lx.peek()

	switch {
	case refIsIdentStart(r):
		start := lx.pos
		for lx.pos < len(lx.src) && refIsIdentCont(lx.peek()) {
			lx.advance()
		}
		text := string(lx.src[start:lx.pos])
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
			tok.Text = text
			return tok, nil
		}
		tok.Kind = TokIdent
		tok.Text = text
		return tok, nil

	case unicode.IsDigit(r):
		start := lx.pos
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
		text := string(lx.src[start:lx.pos])
		n, err := strconv.Atoi(text)
		if err != nil {
			return Token{}, lx.errf("bad integer literal %q", text)
		}
		tok.Kind = TokInt
		tok.Int = n
		tok.Text = text
		return tok, nil
	}

	two := string(r) + string(lx.peekAt(1))
	three := two + string(lx.peekAt(2))
	four := three + string(lx.peekAt(3))

	consume := func(kind TokKind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			lx.advance()
		}
		tok.Kind = kind
		return tok, nil
	}

	if four == "[FD=" {
		return consume(TokRefFD, 4)
	}
	switch three {
	case "|~|":
		return consume(TokIntCh, 3)
	case "|||":
		return consume(TokIleave, 3)
	case "[T=":
		return consume(TokRefT, 3)
	case "[F=":
		return consume(TokRefF, 3)
	}
	switch two {
	case "->":
		return consume(TokArrow, 2)
	case "{|":
		return consume(TokLProd, 2)
	case "|}":
		return consume(TokRProd, 2)
	case "[]":
		return consume(TokBox, 2)
	case "[|":
		return consume(TokLPar, 2)
	case "|]":
		return consume(TokRPar, 2)
	case "[[":
		return consume(TokLRename, 2)
	case "]]":
		return consume(TokRRename, 2)
	case "<-":
		return consume(TokLArrow, 2)
	case "==":
		return consume(TokEq, 2)
	case "!=":
		return consume(TokNe, 2)
	case "<=":
		return consume(TokLe, 2)
	case ">=":
		return consume(TokGe, 2)
	case "..":
		return consume(TokDotDot, 2)
	case ":[":
		return consume(TokColLBrack, 2)
	}
	switch r {
	case '=':
		return consume(TokEquals, 1)
	case '(':
		return consume(TokLParen, 1)
	case ')':
		return consume(TokRParen, 1)
	case '{':
		return consume(TokLBrace, 1)
	case '}':
		return consume(TokRBrace, 1)
	case ',':
		return consume(TokComma, 1)
	case ':':
		return consume(TokColon, 1)
	case ';':
		return consume(TokSemi, 1)
	case '|':
		return consume(TokBar, 1)
	case '.':
		return consume(TokDot, 1)
	case '?':
		return consume(TokQuestion, 1)
	case '!':
		return consume(TokBang, 1)
	case '\\':
		return consume(TokBackslash, 1)
	case '&':
		return consume(TokAmp, 1)
	case '@':
		return consume(TokAt, 1)
	case '<':
		return consume(TokLt, 1)
	case '>':
		return consume(TokGt, 1)
	case '+':
		return consume(TokPlus, 1)
	case '-':
		return consume(TokMinus, 1)
	case '*':
		return consume(TokStar, 1)
	case '/':
		return consume(TokSlash, 1)
	case '%':
		return consume(TokPercent, 1)
	case ']':
		return consume(TokRBrack, 1)
	}
	return Token{}, lx.errf("unexpected character %q", string(r))
}

// FuzzLexDiff requires Lex to agree with the rune reference on every
// input: the same tokens (kinds, texts, values, positions) and the same
// error text.
func FuzzLexDiff(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "ota.csp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
	for _, s := range lexDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexDiff(t, src)
	})
}

// lexDiffSeeds covers what the byte lexer treats apart from ASCII:
// invalid UTF-8, NUL bytes, non-ASCII digits, letters and spaces,
// comments, and every operator and its near misses.
var lexDiffSeeds = []string{
	"",
	"\x00",
	"P\x00Q",
	"\xff",
	"P = a \xc3 -> STOP",
	"-- \xe2\x82\nP",
	"{- \xf0\x9f\x98 -} Q",
	"0.٢",
	"٢ 12 99999999999999999999",
	"channel über, straße : Msgs\nP' = über.x' -> STOP",
	"P = STOP\u0085",
	"{- open",
	"P -- tail",
	"{-} -}",
	"$ # ` ~ ^ \"",
	"[FD= [F= [T= |~| ||| -> {| |} [] [| |] [[ ]] <- == != <= >= .. :[ " +
		"= ( ) { } , : ; | . ? ! \\ & @ < > + - * / % ]",
	"[FD [F [T [ |~ || [FDx",
	"P[[a<-b]]|||Q[|{|c|}|]R|~|S[]T",
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
