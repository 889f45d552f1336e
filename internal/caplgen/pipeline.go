package caplgen

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/lts"
	"repro/internal/refine"
	"repro/internal/translate"
)

// Verdict classes of one generated program, ordered from benign to
// fatal. Anything other than VerdictOK on a generated (well-typed)
// program is a pipeline bug: the soak's acceptance bar is all-OK.
const (
	VerdictOK         = "ok"
	VerdictLintReject = "lint-reject"     // generator emitted a program the linter flags
	VerdictParse      = "parse-error"     // generator emitted unparseable CAPL
	VerdictTranslate  = "translate-error" // extraction refused a lint-clean program
	VerdictCSPm       = "cspm-error"      // rendered model does not load
	VerdictExplore    = "explore-error"   // model exploration failed or blew its budget
	VerdictSim        = "sim-error"       // bus simulation failed
	VerdictSimBudget  = "sim-budget"      // simulation event budget exhausted
	VerdictProjection = "projection-error"
	VerdictCheck      = "check-error"  // trace membership errored
	VerdictBudget     = "check-budget" // trace membership blew its budget
	VerdictDiverges   = "diverges"     // observed trace is not a model trace
	VerdictPanic      = "panic"        // contained panic anywhere in the pipeline
)

// Config parameterises a soak run. The zero value is not runnable; use
// DefaultConfig.
type Config struct {
	// Seed feeds the master rng; every per-program seed derives from it.
	Seed int64
	// Programs is the number of generated programs.
	Programs int
	// MaxStates bounds both model exploration and trace membership.
	MaxStates int
	// MaxSimEvents bounds bus-simulation events per program.
	MaxSimEvents int
	// Shrink enables structural minimisation of failing programs.
	Shrink bool
}

// DefaultConfig is the baseline soak configuration; the committed
// regression report in testdata/caplgen_baseline.json uses it.
func DefaultConfig() Config {
	return Config{Seed: 1, Programs: 200, MaxStates: 50_000, MaxSimEvents: 100_000, Shrink: true}
}

// ProgramResult records the pipeline outcome of one generated program.
// Every field is deterministic in (Config.Seed, index) — wall-clock
// never influences a verdict — so whole reports are byte-comparable.
type ProgramResult struct {
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
	// Stims/Resps/Handlers summarise the generated program shape.
	Stims    int `json:"stims"`
	Resps    int `json:"resps"`
	Handlers int `json:"handlers"`
	// Infos counts info-level lint findings (applied abstractions).
	Infos int `json:"infos"`
	// ModelStates is the explored size of the hidden extracted model.
	ModelStates int `json:"modelStates"`
	// Frames is the delivered-frame count of the simulation.
	Frames int `json:"frames"`
	// TraceStates is the membership check's visited-term count.
	TraceStates int `json:"traceStates"`
	// Shrunk carries the minimised reproducer for failing programs.
	Shrunk *ShrunkCase `json:"shrunk,omitempty"`
}

// ShrunkCase is a minimised failing program, committed into the report
// so the bug reproduces without re-running the generator.
type ShrunkCase struct {
	Verdict      string `json:"verdict"`
	NodeSource   string `json:"nodeSource"`
	DriverSource string `json:"driverSource"`
	DBC          string `json:"dbc"`
}

// hiddenTimerEvents is the event set abstracted away before comparing
// bus traces against the model: timer bookkeeping is internal to the
// node and invisible on the wire.
func hiddenTimerEvents() *csp.EventSet {
	return csp.EventsOf(translate.SetTimerChan, translate.CancelTimerChan, translate.TimeoutChan)
}

// projectTrace maps delivered frames onto model events through the
// generated database's table.
func projectTrace(table *candb.Table, frames []canoe.TimedFrame) (csp.Trace, error) {
	out := make(csp.Trace, 0, len(frames))
	for i, tf := range frames {
		ev, ok := table.Event(tf.Frame.ID)
		if !ok {
			return nil, fmt.Errorf("frame %d at t=%dus: identifier 0x%03X not generated", i, int64(tf.At), tf.Frame.ID)
		}
		out = append(out, ev)
	}
	return out, nil
}

// frameTable is the generated database's frame ↔ event table: the
// driver's stimuli appear on stim, the node's responses on resp.
func frameTable(db *candb.Database) (*candb.Table, error) {
	return candb.NewTable(db, nil, map[string]string{"DRV": "stim", "NODE": "resp"})
}

// lintGate runs the full analyzer and returns the first warning-or-
// worse finding, plus the info count. Generated programs must be
// completely warning-free: a warning here is a generator bug (or a
// typechecker false positive, which is exactly what the soak hunts).
func lintGate(file, src string, db *candb.Database) (string, int) {
	diags := caplint.AnalyzeSource(file, src, caplint.Options{File: file, DB: db})
	infos := 0
	for _, d := range diags {
		if d.Severity >= caplint.SevWarning {
			return d.String(), infos
		}
		infos++
	}
	return "", infos
}

// RunOne pushes one generated program through the whole pipeline.
// Panics anywhere are contained into a VerdictPanic result, so one bad
// program cannot kill a soak.
func RunOne(spec *Spec, cfg Config) (res ProgramResult) {
	res = ProgramResult{
		Index: spec.Index, Seed: spec.ProgSeed, Verdict: VerdictOK,
		Stims: spec.NStim, Resps: spec.NResp, Handlers: len(spec.Handlers),
	}
	defer func() {
		if p := recover(); p != nil {
			res.Verdict = VerdictPanic
			res.Detail = fmt.Sprintf("panic: %v", p)
		}
	}()

	nodeSrc := spec.NodeSource()
	db, err := candb.Parse(spec.DBC())
	if err != nil {
		res.Verdict = VerdictCSPm
		res.Detail = "generated dbc: " + err.Error()
		return res
	}

	// Phase 1: the program must be lint- and typecheck-clean.
	if bad, infos := lintGate("gen.can", nodeSrc, db); bad != "" {
		res.Verdict = VerdictLintReject
		res.Detail = bad
		return res
	} else {
		res.Infos = infos
	}
	drvSrc := spec.DriverSource()
	if bad, _ := lintGate("drv.can", drvSrc, db); bad != "" {
		res.Verdict = VerdictLintReject
		res.Detail = bad
		return res
	}

	// Phase 2: extraction. Strict mode re-runs the analyzer, so a
	// refusal here on a clean program is an extraction bug.
	prog, err := capl.Parse(nodeSrc)
	if err != nil {
		res.Verdict = VerdictParse
		res.Detail = err.Error()
		return res
	}
	tr, err := translate.Translate(prog, translate.Options{
		NodeName:      "NODE",
		InChannel:     "stim",
		OutChannel:    "resp",
		IncludeTimers: true,
		Strict:        true,
		DB:            db,
		SourceFile:    "gen.can",
	})
	if err != nil {
		res.Verdict = VerdictTranslate
		res.Detail = err.Error()
		return res
	}
	model, err := cspm.Load(tr.Text)
	if err != nil {
		res.Verdict = VerdictCSPm
		res.Detail = err.Error()
		return res
	}

	// Phase 3: the hidden model must be finitely explorable.
	hidden := csp.Hide(csp.Call("NODE"), hiddenTimerEvents())
	sem := csp.NewSemantics(model.Env, model.Ctx)
	l, err := lts.Explore(sem, hidden, lts.Options{MaxStates: cfg.MaxStates})
	if err != nil {
		res.Verdict = VerdictExplore
		res.Detail = err.Error()
		return res
	}
	res.ModelStates = l.NumStates()

	// Phase 4: simulate node + driver on the bus.
	sim := canoe.NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("NODE", nodeSrc); err == nil {
		_, err = sim.AddNode("DRV", drvSrc)
	}
	if err != nil {
		res.Verdict = VerdictSim
		res.Detail = err.Error()
		return res
	}
	if err := sim.Start(); err != nil {
		res.Verdict = VerdictSim
		res.Detail = err.Error()
		return res
	}
	const chunk = 10_000
	for events := 0; ; events += chunk {
		if events >= cfg.MaxSimEvents {
			res.Verdict = VerdictSimBudget
			res.Detail = fmt.Sprintf("sim exceeded %d events", cfg.MaxSimEvents)
			return res
		}
		done, err := sim.RunLimited(canbus.Time(spec.HorizonUs()), chunk)
		if err != nil {
			res.Verdict = VerdictSim
			res.Detail = err.Error()
			return res
		}
		if done {
			break
		}
	}
	frames := sim.Trace()
	res.Frames = len(frames)

	// Phase 5: conformance — the observed trace must be a model trace.
	table, err := frameTable(db)
	var trace csp.Trace
	if err == nil {
		trace, err = projectTrace(table, frames)
	}
	if err != nil {
		res.Verdict = VerdictProjection
		res.Detail = err.Error()
		return res
	}
	checker := refine.NewChecker(model.Env, model.Ctx)
	checker.MaxStates = cfg.MaxStates
	tc, err := checker.AcceptsTrace(hidden, trace)
	if err != nil {
		var be *refine.BudgetError
		if errors.As(err, &be) {
			res.Verdict = VerdictBudget
			res.Detail = be.Phase
			return res
		}
		res.Verdict = VerdictCheck
		res.Detail = err.Error()
		return res
	}
	res.TraceStates = tc.States
	if !tc.Accepted {
		res.Verdict = VerdictDiverges
		var allowed []string
		for _, ev := range tc.Allowed {
			allowed = append(allowed, ev.String())
		}
		res.Detail = fmt.Sprintf("event %d (%s) rejected; model offered [%s]",
			tc.FailedAt, tc.BadEvent.String(), strings.Join(allowed, " "))
	}
	return res
}
