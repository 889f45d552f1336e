package experiments

import (
	"fmt"

	"repro/internal/capl"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/translate"
)

// ExtensionRow is one future-work extension's verification outcome.
type ExtensionRow struct {
	Name    string
	Detail  string
	Asserts int
	Passed  int
}

// Extensions runs the paper's section VIII-A / VII-B future-work items
// that this reproduction implements: the timer-driven VMG with the
// TIMER(t) lifecycle, the full X.1373 message set with an update
// server, and the tock-CSP timed abstraction.
func Extensions() ([]ExtensionRow, error) {
	var out []ExtensionRow

	// 1. Timer-driven VMG.
	timerSys, err := ota.BuildWithTimers()
	if err != nil {
		return nil, fmt.Errorf("timer variant: %w", err)
	}
	timerRes, err := fdr.RunAll(timerSys.Model, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, countRow("timer-driven VMG",
		"setTimer/timeout abstraction + TIMER(t) lifecycle", timerRes))

	// 2. Full X.1373 stack with update server.
	fullSys, err := ota.BuildFullX1373()
	if err != nil {
		return nil, fmt.Errorf("full X.1373: %w", err)
	}
	fullRes, err := fdr.RunAll(fullSys.Model, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, countRow("update server (full X.1373)",
		"diagnose/update_check/update/update_report end-to-end", fullRes))

	// 3. Tock-CSP timing: a 200 ms timer must take two 100 ms tocks.
	tockRow, err := tockExtension()
	if err != nil {
		return nil, fmt.Errorf("tock time: %w", err)
	}
	out = append(out, tockRow)
	return out, nil
}

func countRow(name, detail string, results []fdr.AssertResult) ExtensionRow {
	row := ExtensionRow{Name: name, Detail: detail, Asserts: len(results)}
	for _, r := range results {
		if r.Result.Holds {
			row.Passed++
		}
	}
	return row
}

func tockExtension() (ExtensionRow, error) {
	const src = `
variables
{
  message 0x1 ping;
  msTimer cycle;
}
on start { setTimer(cycle, 200); }
on timer cycle { output(ping); setTimer(cycle, 100); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		return ExtensionRow{}, err
	}
	opts := translate.DefaultOptions("NODE")
	opts.TockTime = true
	opts.TockMs = 100
	opts.GenerateTimerProcess = true
	res, err := translate.Translate(prog, opts)
	if err != nil {
		return ExtensionRow{}, err
	}
	model, err := cspm.Load(res.Text + `
SYS = NODE [| {| setTimer, cancelTimer, timeout, tock |} |] TIMER(cycle)
`)
	if err != nil {
		return ExtensionRow{}, err
	}
	checker := refine.NewChecker(model.Env, model.Ctx)
	set2 := csp.Ev("setTimer", csp.Sym("cycle"), csp.Int(2))
	tock := csp.Ev("tock")
	fire := csp.Ev("timeout", csp.Sym("cycle"))

	row := ExtensionRow{
		Name:    "tock-CSP timing",
		Detail:  "200 ms timer fires after exactly two 100 ms tocks",
		Asserts: 2,
	}
	early, err := checker.AcceptsTrace(csp.Call("SYS"), csp.Trace{set2, tock, fire})
	if err != nil {
		return ExtensionRow{}, err
	}
	if !early.Accepted {
		row.Passed++
	}
	onTime, err := checker.AcceptsTrace(csp.Call("SYS"), csp.Trace{set2, tock, tock, fire})
	if err != nil {
		return ExtensionRow{}, err
	}
	if onTime.Accepted {
		row.Passed++
	}
	return row, nil
}

// ExtensionsTable renders the future-work outcomes.
func ExtensionsTable(rows []ExtensionRow) *Table {
	t := &Table{
		Title:  "Future-work extensions implemented (paper sections VII-B and VIII-A)",
		Header: []string{"extension", "checks", "passed", "detail"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.Asserts),
			fmt.Sprintf("%d", r.Passed),
			r.Detail,
		})
	}
	return t
}
