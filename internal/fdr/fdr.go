// Package fdr runs the assertions of an evaluated CSPm script through
// the refinement checker — the "FDR" step of the paper's workflow
// (Figure 1). It is the library behind the fdrlite command.
package fdr

import (
	"fmt"

	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/refine"
)

// AssertResult pairs an assertion with its check outcome.
type AssertResult struct {
	Assert cspm.ResolvedAssert
	Result refine.Result
}

// String renders the result in FDR-like pass/fail form.
func (r AssertResult) String() string {
	status := "✔ passed"
	if !r.Result.Holds {
		status = "✘ FAILED"
		if len(r.Result.Counterexample) > 0 || r.Result.Reason != "" {
			status += fmt.Sprintf(" — %s %s", r.Result.Counterexample, r.Result.Reason)
		}
	}
	return fmt.Sprintf("%s: %s", r.Assert.Text, status)
}

// Budget is refine.Budget, the one definition of a check's limits. Zero
// fields mean the package defaults (MaxStates) or unbounded. Its Obs
// also receives a span per assertion (fdr.assert, carrying the
// assertion text and verdict), and RunAllBudget gives a budget with no
// Cache a fresh one for the run.
type Budget = refine.Budget

// RunAssert checks a single resolved assertion.
func RunAssert(m *cspm.Model, a cspm.ResolvedAssert, maxStates int) (refine.Result, error) {
	return RunAssertBudget(m, a, Budget{MaxStates: maxStates})
}

// RunAssertBudget checks a single resolved assertion under explicit
// resource budgets. Exhausting a budget returns a *refine.BudgetError
// (via errors.As) carrying the partial exploration size.
func RunAssertBudget(m *cspm.Model, a cspm.ResolvedAssert, bgt Budget) (res refine.Result, err error) {
	span := bgt.Obs.StartSpan("fdr.assert", obs.String("assert", a.Text))
	defer func() {
		bgt.Obs.Counter("fdr.asserts").Inc()
		verdict := "passed"
		switch {
		case err != nil:
			verdict = "error"
		case !res.Holds:
			verdict = "failed"
		}
		span.End(obs.String("verdict", verdict))
	}()
	c := refine.Checker{Sem: csp.NewSemantics(m.Env, m.Ctx), Budget: bgt}
	switch a.Kind {
	case cspm.AssertTraceRef:
		return c.RefinesTraces(a.Spec, a.Impl)
	case cspm.AssertFailRef:
		return c.RefinesFailures(a.Spec, a.Impl)
	case cspm.AssertFDRef:
		return c.RefinesFD(a.Spec, a.Impl)
	case cspm.AssertDeadlockFree:
		return c.DeadlockFree(a.Impl)
	case cspm.AssertDivergenceFree:
		return c.DivergenceFree(a.Impl)
	}
	return refine.Result{}, fmt.Errorf("unknown assertion kind %v", a.Kind)
}

// RunAll checks every assertion of the model in order. The assertions
// share one LTS cache, so a process term referenced by several
// assertions (the usual shape: one SYSTEM against many specs) is
// explored once.
func RunAll(m *cspm.Model, maxStates int) ([]AssertResult, error) {
	return RunAllBudget(m, Budget{MaxStates: maxStates})
}

// RunAllBudget checks every assertion of the model in order under the
// given budgets. When the budget carries no cache, a fresh one is
// created for the run so assertions still share explorations.
func RunAllBudget(m *cspm.Model, bgt Budget) ([]AssertResult, error) {
	if bgt.Cache == nil {
		bgt.Cache = lts.NewCache()
		bgt.Cache.Obs = bgt.Obs
	}
	out := make([]AssertResult, 0, len(m.Asserts))
	for _, a := range m.Asserts {
		res, err := RunAssertBudget(m, a, bgt)
		if err != nil {
			return nil, fmt.Errorf("assertion %q: %w", a.Text, err)
		}
		out = append(out, AssertResult{Assert: a, Result: res})
	}
	return out, nil
}
