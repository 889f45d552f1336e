// Package cspm implements a front-end for CSPm, the machine-readable
// dialect of CSP accepted by FDR (Scattergood & Armstrong, "CSPm: A
// Reference Manual"). It covers the subset used by the paper: channel,
// datatype and nametype declarations, process equations over the
// operators of Table I, and refinement/deadlock/divergence assertions.
// Scripts are evaluated to csp.Process values plus a csp.Context and
// csp.Env, ready for the refine package.
package cspm

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota + 1
	TokIdent
	TokInt
	TokEquals    // =
	TokLParen    // (
	TokRParen    // )
	TokLBrace    // {
	TokRBrace    // }
	TokLProd     // {|
	TokRProd     // |}
	TokComma     // ,
	TokColon     // :
	TokSemi      // ;
	TokBar       // |
	TokDot       // .
	TokQuestion  // ?
	TokBang      // !
	TokArrow     // ->
	TokBox       // []
	TokIntCh     // |~|
	TokIleave    // |||
	TokLPar      // [|
	TokRPar      // |]
	TokBackslash // \
	TokAmp       // &
	TokLRename   // [[
	TokRRename   // ]]
	TokLArrow    // <-
	TokAt        // @
	TokEq        // ==
	TokNe        // !=
	TokLe        // <=
	TokGe        // >=
	TokLt        // <
	TokGt        // >
	TokPlus      // +
	TokMinus     // -
	TokStar      // *
	TokSlash     // /
	TokPercent   // %
	TokDotDot    // ..
	TokRefT      // [T=
	TokRefF      // [F=
	TokRefFD     // [FD=
	TokColLBrack // :[
	TokRBrack    // ]
	TokAnd       // keyword and
	TokOr        // keyword or
	TokNot       // keyword not
	TokIf
	TokThen
	TokElse
	TokChannel
	TokDatatype
	TokNametype
	TokAssert
	TokStop  // STOP
	TokSkip  // SKIP
	TokTrue  // true
	TokFalse // false
	TokUnion // union
	TokMember
	TokLet
	TokWithin
)

var tokNames = map[TokKind]string{
	TokEOF: "end of input", TokIdent: "identifier", TokInt: "integer",
	TokEquals: "=", TokLParen: "(", TokRParen: ")", TokLBrace: "{",
	TokRBrace: "}", TokLProd: "{|", TokRProd: "|}", TokComma: ",",
	TokColon: ":", TokSemi: ";", TokBar: "|", TokDot: ".",
	TokQuestion: "?", TokBang: "!", TokArrow: "->", TokBox: "[]",
	TokIntCh: "|~|", TokIleave: "|||", TokLPar: "[|", TokRPar: "|]",
	TokBackslash: "\\", TokAmp: "&", TokLRename: "[[", TokRRename: "]]",
	TokLArrow: "<-", TokAt: "@", TokEq: "==", TokNe: "!=", TokLe: "<=",
	TokGe: ">=", TokLt: "<", TokGt: ">", TokPlus: "+", TokMinus: "-",
	TokStar: "*", TokSlash: "/", TokPercent: "%", TokDotDot: "..",
	TokRefT: "[T=", TokRefF: "[F=", TokRefFD: "[FD=", TokColLBrack: ":[", TokRBrack: "]",
	TokAnd: "and", TokOr: "or", TokNot: "not", TokIf: "if",
	TokThen: "then", TokElse: "else", TokChannel: "channel",
	TokDatatype: "datatype", TokNametype: "nametype", TokAssert: "assert",
	TokStop: "STOP", TokSkip: "SKIP", TokTrue: "true", TokFalse: "false",
	TokUnion: "union", TokMember: "member", TokLet: "let", TokWithin: "within",
}

// String returns the token kind's display name.
func (k TokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokInt:
		return fmt.Sprintf("integer %d", t.Int)
	}
	return t.Kind.String()
}

var keywords = map[string]TokKind{
	"and": TokAnd, "or": TokOr, "not": TokNot,
	"if": TokIf, "then": TokThen, "else": TokElse,
	"channel": TokChannel, "datatype": TokDatatype,
	"nametype": TokNametype, "assert": TokAssert,
	"STOP": TokStop, "SKIP": TokSkip,
	"true": TokTrue, "false": TokFalse,
	"union": TokUnion, "member": TokMember,
	"let": TokLet, "within": TokWithin,
}

// IsIdent reports whether s lexes to exactly one identifier token, so
// that a printed script reads it back as the same name. Keywords are
// not identifiers.
func IsIdent(s string) bool {
	toks, err := Lex(s)
	return err == nil && len(toks) == 2 && toks[0].Kind == TokIdent && toks[0].Text == s
}

// IsKeyword reports whether s is a reserved CSPm word.
func IsKeyword(s string) bool {
	_, ok := keywords[s]
	return ok
}
