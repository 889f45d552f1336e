package caplint

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Severity ranks diagnostics. The caplcheck CLI gates its exit status
// on a minimum severity, and strict translation refuses extraction on
// SevError findings.
type Severity int

// Severity levels, weakest first.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevError
)

var severityNames = map[Severity]string{
	SevInfo: "info", SevWarning: "warning", SevError: "error",
}

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// ParseSeverity converts a severity name to its value.
func ParseSeverity(name string) (Severity, error) {
	for s, n := range severityNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown severity %q (want info, warning or error)", name)
}

// Diagnostic is one analyzer finding: a stable code, a severity, a
// source position and a human-readable message.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"`
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic in the conventional
// file:line:col: severity: message [CODE] form.
func (d Diagnostic) String() string {
	pos := d.File
	if d.Line > 0 {
		pos = fmt.Sprintf("%s:%d", pos, d.Line)
		if d.Col > 0 {
			pos = fmt.Sprintf("%s:%d", pos, d.Col)
		}
	}
	if pos != "" {
		pos += ": "
	}
	return fmt.Sprintf("%s%s: %s [%s]", pos, d.Severity, d.Msg, d.Code)
}

// Sort orders diagnostics by position, then code, then message, giving
// deterministic (golden-testable) output.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// Filter returns the diagnostics at or above the given severity.
func Filter(diags []Diagnostic, min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// ErrorCount returns the number of SevError diagnostics.
func ErrorCount(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Stable diagnostic codes. Codes are append-only: a released code keeps
// its meaning forever so CI gates and suppressions stay valid.
const (
	CodeParse           = "CAPL0000" // source does not parse
	CodeDuplicateDecl   = "CAPL0001" // duplicate declaration
	CodeUndeclared      = "CAPL0002" // reference to undeclared identifier
	CodeUseBeforeDecl   = "CAPL0003" // local used before its declaration
	CodeUnreachable     = "CAPL0004" // statement can never execute
	CodeDeadStore       = "CAPL0005" // value stored is never read
	CodeUninitRead      = "CAPL0006" // local read before any assignment
	CodeUnknownFunc     = "CAPL0007" // call to unknown function (abstracted)
	CodeOrphanTimer     = "CAPL0008" // timer set but no `on timer` handler
	CodeUnfiredTimer    = "CAPL0009" // `on timer` handler for timer never set
	CodeBadTimerArg     = "CAPL0010" // timer argument/target not a declared timer
	CodeBadOutputArg    = "CAPL0011" // output() argument not a declared message
	CodeUnknownMsgVar   = "CAPL0012" // `on message` target not declared
	CodeDBUnknownMsg    = "CAPL0013" // message not found in CAN database
	CodeDBSignalWidth   = "CAPL0014" // signal write exceeds declared bit width
	CodeDBUnknownSignal = "CAPL0015" // signal not declared for the message
	CodeAbstractedCond  = "CAPL0016" // data-dependent branching abstracted
	CodeAbstractedLoop  = "CAPL0017" // loop over-approximated
	CodeDroppedHandler  = "CAPL0018" // handler outside the network model
	CodeInexactDuration = "CAPL0019" // non-constant timer duration
	CodeRecursiveFunc   = "CAPL0020" // recursive function cannot be inlined
	CodeBadOutputArity  = "CAPL0021" // output() takes exactly one argument
	CodeThisOutsideMsg  = "CAPL0022" // `this` outside an `on message` handler
	CodeEmptyNode       = "CAPL0023" // node has no handlers; model is STOP

	// Typechecker codes (the CAPL0100+ range). CAPL has no declared type
	// system of its own; these diagnostics come from the typecheck pass
	// (typecheck.go) that closes ROADMAP item 5.
	CodeTypeMismatch  = "CAPL0100" // operand/assignment type class mismatch
	CodeNarrowing     = "CAPL0101" // implicit lossy narrowing conversion
	CodeConstOverflow = "CAPL0102" // constant does not fit the target type
	CodeCallArity     = "CAPL0103" // wrong argument count in function call
	CodeCallArgType   = "CAPL0104" // argument type incompatible with parameter
	CodeBadReturn     = "CAPL0105" // return disagrees with declared return type
	CodeArrayMisuse   = "CAPL0106" // bad indexing, bounds or array-as-scalar use
	CodeBadCondition  = "CAPL0107" // condition or switch tag is not numeric
	CodeSignalNarrow  = "CAPL0108" // expression type wider than the signal bit width
	CodeBadBuiltinArg = "CAPL0109" // builtin called with a wrongly typed argument
)

// CatalogEntry documents one lint code.
type CatalogEntry struct {
	Code     string
	Severity Severity
	Title    string
}

// Catalog lists every diagnostic the analyzer can emit, in code order.
// EXPERIMENTS.md renders this table; the severity column is the default
// severity the analyzer assigns.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{CodeParse, SevError, "source does not parse"},
		{CodeDuplicateDecl, SevError, "duplicate declaration"},
		{CodeUndeclared, SevError, "reference to undeclared identifier"},
		{CodeUseBeforeDecl, SevError, "local variable used before its declaration"},
		{CodeUnreachable, SevWarning, "statement can never execute"},
		{CodeDeadStore, SevWarning, "stored value is never read"},
		{CodeUninitRead, SevWarning, "local read before any assignment (implicitly zero)"},
		{CodeUnknownFunc, SevError, "call to unknown function would be abstracted away"},
		{CodeOrphanTimer, SevWarning, "timer is set but has no `on timer` handler"},
		{CodeUnfiredTimer, SevWarning, "`on timer` handler for a timer that is never set"},
		{CodeBadTimerArg, SevError, "timer argument is not a declared timer"},
		{CodeBadOutputArg, SevError, "output() argument is not a declared message variable"},
		{CodeUnknownMsgVar, SevError, "`on message` target is not declared"},
		{CodeDBUnknownMsg, SevWarning, "message is not declared in the CAN database"},
		{CodeDBSignalWidth, SevError, "signal write exceeds the declared bit width"},
		{CodeDBUnknownSignal, SevWarning, "signal is not declared for the message"},
		{CodeAbstractedCond, SevInfo, "data-dependent branching abstracted to internal choice"},
		{CodeAbstractedLoop, SevInfo, "loop over-approximated as zero-or-more iterations"},
		{CodeDroppedHandler, SevInfo, "handler is outside the extracted network model"},
		{CodeInexactDuration, SevInfo, "non-constant timer duration approximated"},
		{CodeRecursiveFunc, SevError, "recursive function cannot be inlined"},
		{CodeBadOutputArity, SevError, "output() takes exactly one message argument"},
		{CodeThisOutsideMsg, SevError, "`this` used outside an `on message` handler"},
		{CodeEmptyNode, SevWarning, "node has no message or timer handlers; model is STOP"},
		{CodeTypeMismatch, SevError, "operand or assignment type mismatch"},
		{CodeNarrowing, SevWarning, "implicit conversion may lose value range or sign"},
		{CodeConstOverflow, SevError, "constant value does not fit the target type"},
		{CodeCallArity, SevError, "wrong number of arguments in function call"},
		{CodeCallArgType, SevError, "argument type is incompatible with the parameter"},
		{CodeBadReturn, SevError, "return statement disagrees with the declared return type"},
		{CodeArrayMisuse, SevError, "array indexed, bounded or used incorrectly"},
		{CodeBadCondition, SevError, "condition or switch tag is not a numeric value"},
		{CodeSignalNarrow, SevWarning, "expression range exceeds the declared signal bit width"},
		{CodeBadBuiltinArg, SevError, "built-in function called with a wrongly typed argument"},
	}
}

// SeverityOf returns the catalog's default severity for a code
// (SevWarning for unknown codes).
func SeverityOf(code string) Severity {
	for _, e := range Catalog() {
		if e.Code == code {
			return e.Severity
		}
	}
	return SevWarning
}
