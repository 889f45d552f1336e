// Package translate is the model extractor at the centre of Figure 1 of
// the paper: it walks a parsed CAPL program (the implementation of an
// ECU node) and produces a CSPm implementation model — both as a
// cspm.Script AST and as rendered CSPm text — ready for the FDR-style
// refinement checker.
//
// The extraction rules follow section VI and the §VIII-A future-work
// extensions:
//
//   - message declarations become a CSPm datatype plus typed channel
//     declarations;
//   - `on message X` event procedures become external-choice branches of
//     a recursive node process, prefixed by the receive event;
//   - output() statements become send events;
//   - `on timer` procedures and setTimer()/cancelTimer() calls become
//     events on dedicated timer channels (the untimed abstraction of
//     section VII-B);
//   - user-defined functions are inlined;
//   - data-dependent control flow that the model cannot represent is
//     soundly over-approximated by internal choice, and each such
//     abstraction is reported as a warning.
package translate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/cspm"
	"repro/internal/st"
)

// Options configures a translation.
type Options struct {
	// NodeName is the name of the generated node process (e.g. "ECU").
	NodeName string
	// InChannel carries messages the node receives; OutChannel carries
	// messages the node outputs. For the paper's case study the ECU
	// receives on "send" (the VMG's sends) and replies on "rec".
	InChannel  string
	OutChannel string
	// MsgDatatype names the generated message datatype (default "Msgs").
	MsgDatatype string
	// MessageRename maps CAPL message variable names to CSPm constructor
	// names (e.g. swInventoryReq -> reqSw). Unmapped names are used
	// verbatim.
	MessageRename map[string]string
	// ExtraMessages lists constructor names that must be part of the
	// message datatype even if this node never declares them (so that
	// two independently translated nodes share one datatype).
	ExtraMessages []string
	// ExtraTimers likewise forces timer constructors into the Timers
	// datatype for multi-node composition.
	ExtraTimers []string
	// OmitDecls suppresses datatype and channel declarations in the
	// output, emitting process definitions only. Used when composing a
	// second node into a script that already declares the shared
	// alphabet.
	OmitDecls bool
	// IncludeTimers translates timer interactions into setTimer/
	// cancelTimer/timeout events; when false, timer code is dropped.
	IncludeTimers bool
	// GenerateTimerProcess emits a TIMER(t) process modelling the timer
	// lifecycle, for composition with the node.
	GenerateTimerProcess bool
	// TockTime selects the tock-CSP timed abstraction of section VII-B:
	// a `tock` event marks time passage, setTimer carries a duration in
	// tocks, and the generated TIMER counts down. Implies timer events.
	TockTime bool
	// TockMs is the CAPL-millisecond length of one tock (default 100).
	TockMs int
	// SourceFile labels diagnostics with the CAPL filename.
	SourceFile string
	// Strict runs the caplint static analyzer before extraction and
	// refuses to translate when it reports any error-severity finding
	// (returning a *LintError). The extracted text is byte-identical to
	// a non-strict run on clean input: the analyzer only gates, it
	// never rewrites.
	Strict bool
	// DB is the optional CAN database for the strict pre-translation
	// cross-check (messages and signal widths).
	DB *candb.Database
}

// DefaultOptions returns the configuration used for the paper's ECU
// node.
func DefaultOptions(node string) Options {
	return Options{
		NodeName:      node,
		InChannel:     "send",
		OutChannel:    "rec",
		MsgDatatype:   "Msgs",
		IncludeTimers: true,
	}
}

// Result is the outcome of a translation.
type Result struct {
	// Script is the extracted model as a CSPm syntax tree.
	Script *cspm.Script
	// Text is the rendered CSPm source.
	Text string
	// Diags lists the abstractions applied (state dropped, conditions
	// over-approximated, loops approximated) with stable codes,
	// severities and positions.
	Diags []caplint.Diagnostic
}

// Translate extracts a CSPm implementation model from a CAPL program.
func Translate(prog *capl.Program, opts Options) (*Result, error) {
	if opts.NodeName == "" {
		return nil, fmt.Errorf("translate: NodeName must be set")
	}
	if opts.InChannel == "" || opts.OutChannel == "" {
		return nil, fmt.Errorf("translate: InChannel and OutChannel must be set")
	}
	if opts.MsgDatatype == "" {
		opts.MsgDatatype = "Msgs"
	}
	if opts.TockTime {
		opts.IncludeTimers = true
		if opts.TockMs <= 0 {
			opts.TockMs = 100
		}
	}
	if opts.Strict {
		findings := caplint.Analyze(prog, caplint.Options{File: opts.SourceFile, DB: opts.DB})
		if errs := caplint.Filter(findings, caplint.SevError); len(errs) > 0 {
			return nil, &LintError{Diags: errs}
		}
	}
	tr := &translator{prog: prog, opts: opts, msgCtor: map[string]string{}, msgByID: map[int64]string{}}
	if err := tr.collectDecls(); err != nil {
		return nil, err
	}
	if opts.TockTime {
		tr.maxDur = tr.maxTockDuration()
	}
	if err := tr.buildProcesses(); err != nil {
		return nil, err
	}
	script := tr.script()
	text, err := render(script, opts)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	// Self-check: the rendered text must parse back.
	if _, err := cspm.Parse(text); err != nil {
		return nil, fmt.Errorf("generated CSPm does not parse (translator bug): %w\n%s", err, text)
	}
	return &Result{Script: script, Text: text, Diags: tr.diags}, nil
}

// LintError is returned by strict translation when the pre-extraction
// static analysis finds error-severity defects. Callers can print the
// individual findings.
type LintError struct {
	Diags []caplint.Diagnostic
}

func (e *LintError) Error() string {
	lines := make([]string, 0, len(e.Diags)+1)
	lines = append(lines, fmt.Sprintf("strict mode: %d error(s) found by static analysis; refusing extraction", len(e.Diags)))
	for _, d := range e.Diags {
		lines = append(lines, "  "+d.String())
	}
	return strings.Join(lines, "\n")
}

// Timer channel names used by the untimed timer abstraction.
const (
	SetTimerChan    = "setTimer"
	CancelTimerChan = "cancelTimer"
	TimeoutChan     = "timeout"
	timerType       = "Timers"
)

type translator struct {
	prog *capl.Program
	opts Options

	msgCtors []string          // datatype constructors, declaration order
	msgCtor  map[string]string // CAPL var name -> constructor
	msgByID  map[int64]string  // CAN id -> constructor
	timers   []string          // timer variable names
	timerSet map[string]bool

	defs     []cspm.ProcDef
	diags    []caplint.Diagnostic
	auxCount int
	maxDur   int // largest setTimer duration in tocks (TockTime)
}

// diag records one abstraction as a structured diagnostic (stable
// code, severity from the lint catalog, position).
func (t *translator) diag(code string, line int, format string, args ...any) {
	t.diags = append(t.diags, caplint.Diagnostic{
		Code:     code,
		Severity: caplint.SeverityOf(code),
		File:     t.opts.SourceFile,
		Line:     line,
		Msg:      fmt.Sprintf(format, args...),
	})
}

func (t *translator) ctorFor(varName string) string {
	if renamed, ok := t.opts.MessageRename[varName]; ok {
		return renamed
	}
	return varName
}

func (t *translator) collectDecls() error {
	seen := map[string]bool{}
	for _, d := range t.prog.MessageDecls() {
		ctor := t.ctorFor(d.Name)
		if seen[ctor] {
			return fmt.Errorf("message constructor %q generated twice", ctor)
		}
		seen[ctor] = true
		t.msgCtors = append(t.msgCtors, ctor)
		t.msgCtor[d.Name] = ctor
		if d.MsgID >= 0 {
			t.msgByID[d.MsgID] = ctor
		}
	}
	for _, extra := range t.opts.ExtraMessages {
		if !seen[extra] {
			seen[extra] = true
			t.msgCtors = append(t.msgCtors, extra)
		}
	}
	if len(t.msgCtors) == 0 {
		return fmt.Errorf("no message declarations found in variables section")
	}
	t.timerSet = map[string]bool{}
	for _, v := range t.prog.Variables {
		if v.Type.Base == capl.TypeMsTimer || v.Type.Base == capl.TypeTimer {
			t.timers = append(t.timers, v.Name)
			t.timerSet[v.Name] = true
		}
	}
	for _, extra := range t.opts.ExtraTimers {
		if !t.timerSet[extra] {
			t.timers = append(t.timers, extra)
			t.timerSet[extra] = true
		}
	}
	return nil
}

// mainName returns the name of the node's recurring main process.
func (t *translator) mainName() string {
	if len(t.prog.HandlersOf(capl.OnStart)) > 0 {
		return t.opts.NodeName + "_RUN"
	}
	return t.opts.NodeName
}

func (t *translator) buildProcesses() error {
	main := t.mainName()
	recurse := cspm.CallE{Name: main}

	var branches []cspm.ProcExpr
	for _, h := range t.prog.Handlers {
		switch h.Kind {
		case capl.OnMessage:
			branch, err := t.messageBranch(h, recurse)
			if err != nil {
				return err
			}
			branches = append(branches, branch)
		case capl.OnTimer:
			if !t.opts.IncludeTimers {
				t.diag(caplint.CodeDroppedHandler, h.Line, "on timer %s dropped (timers disabled)", h.Target)
				continue
			}
			if !t.timerSet[h.Target] {
				return fmt.Errorf("on timer %s: timer not declared in variables section", h.Target)
			}
			body, err := t.stmts(h.Body.Stmts, recurse, nil)
			if err != nil {
				return err
			}
			branches = append(branches, cspm.PrefixE{
				Chan:   TimeoutChan,
				Fields: []cspm.FieldE{{Kind: cspm.FieldDot, Expr: cspm.IdentE{Name: h.Target}}},
				Cont:   body,
			})
		case capl.OnKey, capl.OnStopMeasurement:
			t.diag(caplint.CodeDroppedHandler, h.Line, "on %s handler dropped (not part of the network model)", h.Kind)
		case capl.OnStart:
			// Handled below.
		}
	}

	var mainBody cspm.ProcExpr
	switch len(branches) {
	case 0:
		mainBody = cspm.StopE{}
		t.diag(caplint.CodeEmptyNode, 0, "node has no message or timer handlers; main process is STOP")
	case 1:
		mainBody = branches[0]
	default:
		mainBody = branches[0]
		for _, b := range branches[1:] {
			mainBody = cspm.BinProcE{Op: cspm.OpExtChoice, L: mainBody, R: b}
		}
	}

	if t.opts.TockTime {
		// Time may pass while the node is quiescent in its main state;
		// handler bodies run under the synchrony hypothesis.
		mainBody = allowTock(mainBody, cspm.CallE{Name: main})
	}

	starts := t.prog.HandlersOf(capl.OnStart)
	if len(starts) > 0 {
		// NODE = <start body> ; NODE_RUN, expressed by prefixing.
		init := cspm.ProcExpr(cspm.CallE{Name: main})
		for i := len(starts) - 1; i >= 0; i-- {
			var err error
			init, err = t.stmts(starts[i].Body.Stmts, init, nil)
			if err != nil {
				return err
			}
		}
		if t.opts.TockTime {
			init = allowTock(init, cspm.CallE{Name: t.opts.NodeName})
		}
		t.defs = append(t.defs, cspm.ProcDef{Name: t.opts.NodeName, Body: init})
	}
	t.defs = append(t.defs, cspm.ProcDef{Name: main, Body: mainBody})

	if t.opts.GenerateTimerProcess && t.opts.IncludeTimers && len(t.timers) > 0 {
		if t.opts.TockTime {
			t.defs = append(t.defs, tockTimerProcess()...)
		} else {
			t.defs = append(t.defs, timerProcess())
		}
	}
	return nil
}

// messageBranch renders one `on message` handler as a receive-prefixed
// branch of the node's main choice.
func (t *translator) messageBranch(h *capl.Handler, recurse cspm.ProcExpr) (cspm.ProcExpr, error) {
	body, err := t.stmts(h.Body.Stmts, recurse, nil)
	if err != nil {
		return nil, err
	}
	var field cspm.FieldE
	switch {
	case h.Target == "*":
		field = cspm.FieldE{Kind: cspm.FieldIn, Var: "anyMsg"}
	case h.TargetID >= 0:
		ctor, ok := t.msgByID[h.TargetID]
		if !ok {
			return nil, fmt.Errorf("on message 0x%x: no message with that identifier declared", h.TargetID)
		}
		field = cspm.FieldE{Kind: cspm.FieldDot, Expr: cspm.IdentE{Name: ctor}}
	default:
		ctor, ok := t.msgCtor[h.Target]
		if !ok {
			return nil, fmt.Errorf("on message %s: message variable not declared", h.Target)
		}
		field = cspm.FieldE{Kind: cspm.FieldDot, Expr: cspm.IdentE{Name: ctor}}
	}
	return cspm.PrefixE{Chan: t.opts.InChannel, Fields: []cspm.FieldE{field}, Cont: body}, nil
}

// timerProcess builds TIMER(t) = setTimer.t -> ARMED(t) with expiry and
// cancellation, the standard untimed timer lifecycle.
func timerProcess() cspm.ProcDef {
	tVar := cspm.IdentE{Name: "t"}
	armed := cspm.BinProcE{
		Op: cspm.OpExtChoice,
		L: cspm.PrefixE{
			Chan:   TimeoutChan,
			Fields: []cspm.FieldE{{Kind: cspm.FieldOut, Expr: tVar}},
			Cont:   cspm.CallE{Name: "TIMER", Args: []cspm.ExprE{tVar}},
		},
		R: cspm.PrefixE{
			Chan:   CancelTimerChan,
			Fields: []cspm.FieldE{{Kind: cspm.FieldOut, Expr: tVar}},
			Cont:   cspm.CallE{Name: "TIMER", Args: []cspm.ExprE{tVar}},
		},
	}
	return cspm.ProcDef{
		Name:   "TIMER",
		Params: []string{"t"},
		Body: cspm.PrefixE{
			Chan:   SetTimerChan,
			Fields: []cspm.FieldE{{Kind: cspm.FieldOut, Expr: tVar}},
			Cont:   armed,
		},
	}
}

// script assembles the declarations and definitions into a cspm.Script.
func (t *translator) script() *cspm.Script {
	s := &cspm.Script{}
	if t.opts.OmitDecls {
		for _, d := range t.defs {
			s.Decls = append(s.Decls, d)
		}
		return s
	}
	ctors := make([]cspm.CtorDecl, len(t.msgCtors))
	for i, c := range t.msgCtors {
		ctors[i] = cspm.CtorDecl{Name: c}
	}
	s.Decls = append(s.Decls, cspm.DatatypeDecl{Name: t.opts.MsgDatatype, Ctors: ctors})
	s.Decls = append(s.Decls, cspm.ChannelDecl{
		Names:  []string{t.opts.InChannel, t.opts.OutChannel},
		Fields: []cspm.TypeExpr{cspm.TypeRef{Name: t.opts.MsgDatatype}},
	})
	if t.opts.IncludeTimers && len(t.timers) > 0 {
		timerCtors := make([]cspm.CtorDecl, len(t.timers))
		for i, name := range t.timers {
			timerCtors[i] = cspm.CtorDecl{Name: name}
		}
		s.Decls = append(s.Decls, cspm.DatatypeDecl{Name: timerType, Ctors: timerCtors})
		if t.opts.TockTime {
			s.Decls = append(s.Decls, cspm.ChannelDecl{Names: []string{TockChan}})
			s.Decls = append(s.Decls, cspm.ChannelDecl{
				Names: []string{SetTimerChan},
				Fields: []cspm.TypeExpr{
					cspm.TypeRef{Name: timerType},
					cspm.TypeRange{Lo: 0, Hi: t.maxDur},
				},
			})
			s.Decls = append(s.Decls, cspm.ChannelDecl{
				Names:  []string{CancelTimerChan, TimeoutChan},
				Fields: []cspm.TypeExpr{cspm.TypeRef{Name: timerType}},
			})
		} else {
			s.Decls = append(s.Decls, cspm.ChannelDecl{
				Names:  []string{SetTimerChan, CancelTimerChan, TimeoutChan},
				Fields: []cspm.TypeExpr{cspm.TypeRef{Name: timerType}},
			})
		}
	}
	for _, d := range t.defs {
		s.Decls = append(s.Decls, d)
	}
	return s
}

// render produces the final CSPm text through the template group,
// preserving the paper's AST -> templates -> text pipeline.
func render(s *cspm.Script, opts Options) (string, error) {
	g := DefaultTemplates()
	var datatypes, channels []string
	var defs []st.Attrs
	for _, d := range s.Decls {
		switch x := d.(type) {
		case cspm.DatatypeDecl:
			ctors := make([]string, len(x.Ctors))
			for i, c := range x.Ctors {
				ctors[i] = c.Name
			}
			line, err := g.Render("datatype", st.Attrs{"name": x.Name, "ctors": ctors})
			if err != nil {
				return "", err
			}
			datatypes = append(datatypes, line)
		case cspm.ChannelDecl:
			typeName := channelTypeString(x.Fields)
			line, err := g.Render("channel", st.Attrs{"names": x.Names, "type": typeName})
			if err != nil {
				return "", err
			}
			channels = append(channels, line)
		case cspm.ProcDef:
			name := x.Name
			if len(x.Params) > 0 {
				name += "(" + joinComma(x.Params) + ")"
			}
			defs = append(defs, st.Attrs{"name": name, "body": cspm.PrintProc(x.Body)})
		}
	}
	var asserts []string
	for _, a := range s.Asserts {
		asserts = append(asserts, printAssertion(a))
	}
	return g.Render("script", st.Attrs{
		"node":      opts.NodeName,
		"datatypes": datatypes,
		"channels":  channels,
		"defs":      defs,
		"asserts":   asserts,
	})
}

func printAssertion(a cspm.Assertion) string {
	switch a.Kind {
	case cspm.AssertTraceRef:
		return "assert " + cspm.PrintProc(a.Spec) + " [T= " + cspm.PrintProc(a.Impl)
	case cspm.AssertFailRef:
		return "assert " + cspm.PrintProc(a.Spec) + " [F= " + cspm.PrintProc(a.Impl)
	case cspm.AssertDeadlockFree:
		return "assert " + cspm.PrintProc(a.Impl) + " :[deadlock free]"
	case cspm.AssertDivergenceFree:
		return "assert " + cspm.PrintProc(a.Impl) + " :[divergence free]"
	}
	return ""
}

// channelTypeString renders a channel's dotted field signature.
func channelTypeString(fields []cspm.TypeExpr) string {
	parts := make([]string, 0, len(fields))
	for _, f := range fields {
		switch ft := f.(type) {
		case cspm.TypeRef:
			parts = append(parts, ft.Name)
		case cspm.TypeRange:
			parts = append(parts, fmt.Sprintf("{%d..%d}", ft.Lo, ft.Hi))
		}
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out
}

func joinComma(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

// MessageConstructors returns the datatype constructors a program's
// message declarations map to under the options, sorted. Used by system
// composition to check two nodes agree on the message universe.
func MessageConstructors(prog *capl.Program, opts Options) []string {
	var out []string
	for _, d := range prog.MessageDecls() {
		name := d.Name
		if renamed, ok := opts.MessageRename[d.Name]; ok {
			name = renamed
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
