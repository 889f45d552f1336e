// Package translate is the model extractor at the centre of Figure 1 of
// the paper: it walks a parsed CAPL program (the implementation of an
// ECU node) and produces a CSPm implementation model — both as a
// cspm.Script AST and as CSPm text printed from it — ready for the
// FDR-style refinement checker.
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
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/cspm"
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
	// message datatype even if this node never declares them, so that
	// nodes translated one at a time share one datatype
	// (TranslateNetwork works the shared alphabet out itself).
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
	// Text is Script printed as a CSPm file.
	Text string
	// Diags lists the abstractions applied (state dropped, conditions
	// over-approximated, loops approximated) with stable codes,
	// severities and positions.
	Diags []caplint.Diagnostic
}

// ErrBadName reports an outside name (a CAPL message or timer, a
// rename or an option) that is not a CSPm identifier, so the extracted
// model could not name it.
var ErrBadName = errors.New("translate: bad name")

// ErrDuplicateNode reports two nodes of a network with one name: their
// processes would be defined twice.
var ErrDuplicateNode = errors.New("translate: duplicate node")

// checkName returns an ErrBadName naming role and name unless name is a
// CSPm identifier.
func checkName(role, name string) error {
	if cspm.IsIdent(name) {
		return nil
	}
	why := "is not a CSPm identifier"
	if cspm.IsKeyword(name) {
		why = "is a CSPm keyword"
	}
	return fmt.Errorf("%w: %s %q %s", ErrBadName, role, name, why)
}

// Translate extracts a CSPm implementation model from a CAPL program.
// The declarations cover the program's own messages, timers and
// channels plus opts.ExtraMessages and opts.ExtraTimers.
func Translate(prog *capl.Program, opts Options) (*Result, error) {
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
	tr, err := newTranslator(prog, opts)
	if err != nil {
		return nil, err
	}
	var u universe
	u.add(tr)
	for _, extra := range opts.ExtraMessages {
		if err := checkName("extra message", extra); err != nil {
			return nil, err
		}
		u.msgs.add(extra)
	}
	for _, extra := range opts.ExtraTimers {
		if err := checkName("extra timer", extra); err != nil {
			return nil, err
		}
		u.timers.add(extra)
	}
	return tr.extract(u)
}

// Node is one CAPL node of a network.
type Node struct {
	// Prog is the node's parsed CAPL program.
	Prog *capl.Program
	// Name is the node's process name.
	Name string
	// In and Out are the channels the node receives and emits on.
	In, Out string
	// Rename maps CAPL message variable names to constructors.
	Rename map[string]string
	// TimerProcess asks for the network's TIMER(t) process.
	TimerProcess bool
}

// TranslateNetwork extracts one model per node over the alphabet the
// nodes share: every node's message constructors and timers and the
// union of their channels, declared once, in node order, at the head
// of node 0's text. TIMER(t) is defined at most once, in the first
// node that asks for it. Every node's names are checked before any
// node's processes are built; an error names its node, and two nodes
// with one name fail with ErrDuplicateNode. It returns the combined
// script and each node's Result.
func TranslateNetwork(nodes []Node) (*cspm.Script, []*Result, error) {
	for i, n := range nodes {
		if slices.ContainsFunc(nodes[:i], func(m Node) bool { return m.Name == n.Name }) {
			return nil, nil, fmt.Errorf("%w %q", ErrDuplicateNode, n.Name)
		}
	}
	trs := make([]*translator, len(nodes))
	var u universe
	timerNode := slices.IndexFunc(nodes, func(n Node) bool { return n.TimerProcess })
	for i, n := range nodes {
		opts := DefaultOptions(n.Name)
		opts.InChannel, opts.OutChannel, opts.MessageRename, opts.OmitDecls = n.In, n.Out, n.Rename, i > 0
		opts.GenerateTimerProcess = i == timerNode
		var err error
		if trs[i], err = newTranslator(n.Prog, opts); err != nil {
			return nil, nil, fmt.Errorf("node %s: %w", n.Name, err)
		}
		u.add(trs[i])
	}
	script := &cspm.Script{}
	results := make([]*Result, len(nodes))
	for i, tr := range trs {
		res, err := tr.extract(u)
		if err != nil {
			return nil, nil, fmt.Errorf("node %s: %w", nodes[i].Name, err)
		}
		script.Decls = append(script.Decls, res.Script.Decls...)
		results[i] = res
	}
	return script, results, nil
}

// universe is the alphabet a model's nodes share: message constructors,
// timers and channels, each once, in the order first added.
type universe struct {
	msgs, timers, chans names
}

// add adds a node's own constructors, timers and channels.
func (u *universe) add(tr *translator) {
	u.msgs.add(tr.msgCtors...)
	u.timers.add(tr.timers...)
	u.chans.add(tr.opts.InChannel, tr.opts.OutChannel)
}

// names is a set of names that keeps the order they were added in.
type names struct {
	list []string
	has  map[string]bool
}

func (n *names) add(xs ...string) {
	n.list = slices.Grow(n.list, len(xs))
	for _, x := range xs {
		if !n.has[x] {
			if n.has == nil {
				n.has = make(map[string]bool, len(xs))
			}
			n.has[x] = true
			n.list = append(n.list, x)
		}
	}
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

	msgCtors []string          // own constructors, declaration order
	msgCtor  map[string]string // CAPL var name -> constructor
	msgByID  map[int64]string  // CAN id -> constructor
	timers   []string          // own timer variable names
	u        universe          // the shared alphabet (set by extract)

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

// ctorFor returns the constructor of a CAPL message variable, checked
// as a CSPm name (a rename's role is spelled out only for a bad one).
func (t *translator) ctorFor(varName string) (string, error) {
	ctor, ok := t.opts.MessageRename[varName]
	switch {
	case !ok:
		return varName, checkName("message constructor", varName)
	case !cspm.IsIdent(ctor):
		return ctor, checkName("rename of message "+varName, ctor)
	}
	return ctor, nil
}

// newTranslator checks the node's outside names and collects its own
// message constructors and timers.
func newTranslator(prog *capl.Program, opts Options) (*translator, error) {
	if opts.MsgDatatype == "" {
		opts.MsgDatatype = "Msgs"
	}
	for _, n := range [][2]string{
		{"node name", opts.NodeName},
		{"in channel", opts.InChannel},
		{"out channel", opts.OutChannel},
		{"message datatype", opts.MsgDatatype},
	} {
		if err := checkName(n[0], n[1]); err != nil {
			return nil, err
		}
	}
	t := &translator{prog: prog, opts: opts, msgCtor: map[string]string{}, msgByID: map[int64]string{}}
	decls := prog.MessageDecls()
	t.msgCtors = make([]string, 0, len(decls))
	seen := map[string]bool{}
	for _, d := range decls {
		ctor, err := t.ctorFor(d.Name)
		if err != nil {
			return nil, err
		}
		if seen[ctor] {
			return nil, fmt.Errorf("message constructor %q generated twice", ctor)
		}
		seen[ctor] = true
		t.msgCtors = append(t.msgCtors, ctor)
		t.msgCtor[d.Name] = ctor
		if d.MsgID >= 0 {
			t.msgByID[d.MsgID] = ctor
		}
	}
	for _, v := range prog.Variables {
		if v.Type.Base == capl.TypeMsTimer || v.Type.Base == capl.TypeTimer {
			if err := checkName("timer", v.Name); err != nil {
				return nil, err
			}
			t.timers = append(t.timers, v.Name)
		}
	}
	return t, nil
}

// extract builds the node's processes over the universe u and prints
// its model, declaring u unless OmitDecls is set.
func (t *translator) extract(u universe) (*Result, error) {
	if len(u.msgs.list) == 0 {
		return nil, fmt.Errorf("no message declarations found in variables section")
	}
	t.u = u
	if t.opts.TockTime {
		t.maxDur = t.maxTockDuration()
	}
	if err := t.buildProcesses(); err != nil {
		return nil, err
	}
	script := t.script()
	return &Result{Script: script, Text: render(script, t.opts.NodeName), Diags: t.diags}, nil
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
			if !t.u.timers.has[h.Target] {
				return fmt.Errorf("on timer %s: timer not declared in variables section", h.Target)
			}
			body, err := t.stmts(h.Body.Stmts, recurse, nil)
			if err != nil {
				return err
			}
			branches = append(branches, prefix(TimeoutChan, cspm.FieldDot, cspm.IdentE{Name: h.Target}, body))
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

	if t.opts.GenerateTimerProcess && t.opts.IncludeTimers && len(t.u.timers.list) > 0 {
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

// timerProcess builds the standard untimed timer lifecycle:
//
//	TIMER(t) = setTimer!t -> (timeout!t -> TIMER(t) [] cancelTimer!t -> TIMER(t))
func timerProcess() cspm.ProcDef {
	tVar := cspm.IdentE{Name: "t"}
	timer := cspm.CallE{Name: "TIMER", Args: []cspm.ExprE{tVar}}
	armed := cspm.BinProcE{Op: cspm.OpExtChoice,
		L: prefix(TimeoutChan, cspm.FieldOut, tVar, timer),
		R: prefix(CancelTimerChan, cspm.FieldOut, tVar, timer)}
	return cspm.ProcDef{Name: "TIMER", Params: []string{"t"}, Body: prefix(SetTimerChan, cspm.FieldOut, tVar, armed)}
}

// prefix builds ch.e -> cont (kind FieldDot) or ch!e -> cont (FieldOut).
func prefix(ch string, kind cspm.FieldKind, e cspm.ExprE, cont cspm.ProcExpr) cspm.PrefixE {
	return cspm.PrefixE{Chan: ch, Fields: []cspm.FieldE{{Kind: kind, Expr: e}}, Cont: cont}
}

// script assembles the declarations and definitions into a cspm.Script:
// the datatypes, then the channels, then the process definitions, the
// order render lays them out in.
func (t *translator) script() *cspm.Script {
	s := &cspm.Script{}
	if !t.opts.OmitDecls {
		s.Decls = t.decls()
	}
	for _, d := range t.defs {
		s.Decls = append(s.Decls, d)
	}
	return s
}

// decls declares the message and timer datatypes and the channels over
// them.
func (t *translator) decls() []cspm.Decl {
	msgs := cspm.TypeRef{Name: t.opts.MsgDatatype}
	datatypes := []cspm.Decl{cspm.DatatypeDecl{Name: t.opts.MsgDatatype, Ctors: ctorDecls(t.u.msgs.list)}}
	channels := []cspm.Decl{cspm.ChannelDecl{Names: t.u.chans.list, Fields: []cspm.TypeExpr{msgs}}}
	if t.opts.IncludeTimers && len(t.u.timers.list) > 0 {
		timers := cspm.TypeRef{Name: timerType}
		datatypes = append(datatypes, cspm.DatatypeDecl{Name: timerType, Ctors: ctorDecls(t.u.timers.list)})
		if t.opts.TockTime {
			channels = append(channels,
				cspm.ChannelDecl{Names: []string{TockChan}},
				cspm.ChannelDecl{Names: []string{SetTimerChan}, Fields: []cspm.TypeExpr{timers, cspm.TypeRange{Lo: 0, Hi: t.maxDur}}},
				cspm.ChannelDecl{Names: []string{CancelTimerChan, TimeoutChan}, Fields: []cspm.TypeExpr{timers}})
		} else {
			channels = append(channels,
				cspm.ChannelDecl{Names: []string{SetTimerChan, CancelTimerChan, TimeoutChan}, Fields: []cspm.TypeExpr{timers}})
		}
	}
	return append(datatypes, channels...)
}

func ctorDecls(names []string) []cspm.CtorDecl {
	ctors := make([]cspm.CtorDecl, len(names))
	for i, n := range names {
		ctors[i] = cspm.CtorDecl{Name: n}
	}
	return ctors
}

// render prints the script as the extractor's CSPm file: a header
// naming the node, then the datatypes, the channels and the process
// definitions, one declaration a line. A blank line follows the
// datatypes when there are any, and the channels even when there are
// none (OmitDecls); the OTA pins hold this layout byte for byte.
func render(s *cspm.Script, node string) string {
	var groups [3][]string // datatypes, channels, definitions
	for _, d := range s.Decls {
		g := 2
		switch d.(type) {
		case cspm.DatatypeDecl:
			g = 0
		case cspm.ChannelDecl:
			g = 1
		}
		groups[g] = append(groups[g], cspm.PrintDecl(d))
	}
	var b strings.Builder
	b.WriteString("-- CSPm implementation model extracted from CAPL node \"" + node + "\"\n" +
		"-- Generated by capl2cspm; do not edit.\n\n")
	if len(groups[0]) > 0 {
		b.WriteString(strings.Join(groups[0], "\n") + "\n\n")
	}
	b.WriteString(strings.Join(groups[1], "\n") + "\n\n")
	b.WriteString(strings.Join(groups[2], "\n") + "\n")
	return b.String()
}
