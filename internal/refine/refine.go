// Package refine is an FDR-style refinement checker for the CSP core:
// trace refinement, stable-failures refinement, deadlock freedom and
// divergence freedom, each producing counterexample traces on failure.
// It plays the role FDR plays in Figure 1 of Heneghan et al. (DSN-W
// 2019): the automation-ready back end that checks implementation models
// against specification models.
package refine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/obs"
)

// Model selects the semantic model a refinement check runs in.
type Model int

// Semantic models.
const (
	// Traces is the finite-trace model (the model used in the paper).
	Traces Model = iota + 1
	// Failures is the stable-failures model.
	Failures
	// FailuresDivergences is FDR's flagship model: the implementation
	// must additionally be divergence-free.
	FailuresDivergences
)

// String names the model like FDR's assertion syntax ([T= / [F=).
func (m Model) String() string {
	switch m {
	case Traces:
		return "[T="
	case Failures:
		return "[F="
	case FailuresDivergences:
		return "[FD="
	}
	return "?"
}

// Result reports the outcome of a check.
type Result struct {
	// Holds is true when the property holds.
	Holds bool
	// Counterexample is a witness trace when the property fails: for
	// refinement, the shortest trace after which the implementation
	// behaves outside the specification; for deadlock/divergence, the
	// trace leading to the offending state.
	Counterexample csp.Trace
	// BadEvent is the event the implementation performed that the
	// specification could not (trace refinement), if any.
	BadEvent *csp.Event
	// Reason is a human-readable explanation of a failure.
	Reason string
	// ImplStates and SpecNodes report the sizes explored, for the
	// scalability experiments.
	ImplStates int
	SpecNodes  int
	// ProductStates is the number of (impl, spec) pairs visited.
	ProductStates int
}

// Checker runs refinement checks within one semantics (definition
// environment + channel context).
type Checker struct {
	Sem *csp.Semantics
	// MaxStates bounds each LTS exploration; 0 uses the lts default.
	MaxStates int
	// MaxProductStates bounds the number of (impl, spec) product pairs
	// a refinement check may visit; 0 means unbounded. Exhausting it
	// returns a *BudgetError carrying the partial exploration size, so
	// campaign-scale checking degrades gracefully instead of hanging.
	MaxProductStates int
	// MaxSteps bounds the number of transitions examined during the
	// product search; 0 means unbounded.
	MaxSteps int
	// MaxDuration bounds the wall-clock time of a whole check (all
	// explorations plus the product search); 0 means unbounded.
	// Exceeding it yields a *BudgetError with a "-deadline" phase, so a
	// pathological check degrades into a typed verdict instead of a
	// hang.
	MaxDuration time.Duration
	// Cache, when non-nil, memoizes explorations and normalisations
	// across checks. Checkers sharing one cache (and one Env/Ctx) reuse
	// each other's spec and impl LTSs — the campaign-scale win: a spec
	// explored for one assertion is free for every later assertion. The
	// cache is safe for concurrent use, so checkers running in parallel
	// may share it. AcceptsTrace does not use it: each trace check
	// compiles the terms its trace reaches into a memo of its own.
	Cache *lts.Cache
	// Obs receives per-check spans (one per assertion, with phase child
	// spans) and metrics, and is threaded into the underlying
	// explorations. nil disables instrumentation; measurements never
	// influence verdicts.
	Obs *obs.Observer
	// Ctx, when non-nil, cooperatively cancels the whole check: the
	// explorations and the product search all poll it, so a cancelled
	// request (disconnected client, fired per-request deadline) aborts
	// mid-BFS-level with an error matching context.Canceled /
	// context.DeadlineExceeded under errors.Is. nil means no
	// cancellation, the batch-CLI default. Cancellation never yields a
	// verdict — like a budget exhaustion, the outcome is unknown.
	Ctx context.Context
	// CheckpointDir, when non-empty, makes the check crash-safe: each
	// exploration writes atomic level-granular snapshots into a
	// per-phase subdirectory ("spec", "impl"), and a re-run of the same
	// check over the same directory resumes from them instead of
	// starting over. Normalisation and the product search are
	// recomputed deterministically from the restored LTSs, so the
	// resumed verdict is byte-identical to an uninterrupted one.
	CheckpointDir string
	// CheckpointEveryLevels is the snapshot cadence in completed BFS
	// levels; <= 0 means every level.
	CheckpointEveryLevels int
	// MaxMemBytes is a hard per-exploration watermark on estimated
	// resident bytes; exceeding it yields a *BudgetError with phase
	// "memory" — a structured budget-exhausted verdict instead of an
	// OOM kill. 0 means unbounded.
	MaxMemBytes int64
}

// BudgetError reports that a check ran out of its resource budget. The
// verdict is unknown; Explored records how much of the state space was
// covered before the budget was exhausted (a partial result, usable for
// sizing retries). For the product-search phases ("product" and
// "product-deadline") Explored counts fully-visited (dequeued) product
// pairs — discovered-but-unexamined frontier states are excluded — so
// the number means the same thing regardless of which budget fired.
type BudgetError struct {
	// Phase names the stage that ran dry: "explore", "product",
	// "product-steps", "trace", "memory" (hard resident-memory
	// watermark), or a wall-clock phase "explore-deadline" /
	// "product-deadline" / "trace-deadline".
	Phase string
	// Explored is the number of states (or steps, for "product-steps")
	// completed before exhaustion.
	Explored int
	// Limit is the configured budget. For wall-clock phases it is the
	// deadline in milliseconds.
	Limit int
}

// Error describes the exhausted budget.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("refine: %s budget exhausted after %d (limit %d); verdict unknown",
		e.Phase, e.Explored, e.Limit)
}

// deadlineCheckInterval is how many loop iterations pass between
// wall-clock probes in the exploration loops.
const deadlineCheckInterval = 1024

// NewChecker builds a Checker over the given environment and context.
func NewChecker(env *csp.Env, ctx *csp.Context) *Checker {
	return &Checker{Sem: csp.NewSemantics(env, ctx)}
}

// canceled returns the checker context's cancellation error wrapped
// with the phase that observed it, or nil. The wrapped error matches
// context.Canceled / context.DeadlineExceeded under errors.Is.
func (c *Checker) canceled(phase string) error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("refine: %s canceled: %w", phase, err)
	}
	return nil
}

// deadline returns the absolute wall-clock deadline of a check starting
// now, or the zero time when the checker is unbounded.
func (c *Checker) deadline() time.Time {
	if c.MaxDuration <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.MaxDuration)
}

func (c *Checker) explore(p csp.Process) (*lts.LTS, error) {
	return c.exploreWithin(p, c.deadline(), "impl")
}

// exploreWithin explores under the state budget and an absolute
// wall-clock deadline (zero time means unbounded), consulting the
// shared cache when one is configured. role ("spec", "impl") selects
// the checkpoint subdirectory when checkpointing is on, so the two
// explorations of a refinement check never clobber each other's
// snapshots.
func (c *Checker) exploreWithin(p csp.Process, deadline time.Time, role string) (*lts.LTS, error) {
	opts := lts.Options{
		MaxStates:   c.MaxStates,
		Obs:         c.Obs,
		Ctx:         c.Ctx,
		MaxMemBytes: c.MaxMemBytes,
	}
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Nanosecond
		}
		opts.MaxDuration = remaining
	}
	if c.CheckpointDir != "" {
		opts.Checkpoint = &lts.CheckpointOptions{
			Dir:         filepath.Join(c.CheckpointDir, role),
			EveryLevels: c.CheckpointEveryLevels,
		}
	}
	var l *lts.LTS
	var err error
	if c.Cache != nil {
		l, err = c.Cache.Explore(c.Sem, p, opts)
	} else {
		l, err = lts.Explore(c.Sem, p, opts)
	}
	if err != nil {
		var le *lts.LimitError
		if errors.As(err, &le) {
			return nil, &BudgetError{Phase: "explore", Explored: le.Explored, Limit: le.Limit}
		}
		var de *lts.DeadlineError
		if errors.As(err, &de) {
			return nil, &BudgetError{Phase: "explore-deadline", Explored: de.Explored,
				Limit: int(c.MaxDuration / time.Millisecond)}
		}
		var me *lts.MemoryError
		if errors.As(err, &me) {
			return nil, &BudgetError{Phase: "memory", Explored: me.Explored, Limit: int(me.Limit)}
		}
		return nil, err
	}
	return l, nil
}

// Refines checks spec ⊑ impl in the given model, i.e. FDR's
// `assert SPEC [T= IMPL`, `assert SPEC [F= IMPL` or
// `assert SPEC [FD= IMPL`.
func (c *Checker) Refines(spec, impl csp.Process, model Model) (res Result, err error) {
	deadline := c.deadline()
	span := c.Obs.StartSpan("refine.refines", obs.String("model", model.String()))
	checkStart := time.Now()
	defer func() {
		c.Obs.Counter("refine.checks").Inc()
		c.Obs.Counter("refine.product.pairs").Add(int64(res.ProductStates))
		c.Obs.Histogram("refine.check.ns").ObserveSince(checkStart)
		span.End(obs.String("verdict", verdictOf(res, err)),
			obs.Int("implStates", int64(res.ImplStates)),
			obs.Int("productStates", int64(res.ProductStates)))
	}()
	phase := span.Child("refine.explore-spec")
	specLTS, err := c.exploreWithin(spec, deadline, "spec")
	phase.End()
	if err != nil {
		return Result{}, fmt.Errorf("explore specification: %w", err)
	}
	phase = span.Child("refine.explore-impl")
	implLTS, err := c.exploreWithin(impl, deadline, "impl")
	phase.End()
	if err != nil {
		return Result{}, fmt.Errorf("explore implementation: %w", err)
	}
	if model == FailuresDivergences {
		// The implementation must be divergence-free; the failures
		// product is then decisive.
		if diverges, witness := implLTS.HasTauCycle(); diverges {
			return Result{
				Holds:          false,
				Counterexample: shortestTraceTo(implLTS, witness),
				Reason:         "implementation diverges: tau cycle at " + implLTS.Key(witness),
				ImplStates:     implLTS.NumStates(),
			}, nil
		}
		model = Failures
	}
	if model == Failures {
		// Normalisation computes acceptance sets from stable states, so
		// a divergent specification (a node with no stable member) has
		// no meaningful refusals. FDR imposes the same restriction.
		if diverges, witness := specLTS.HasTauCycle(); diverges {
			return Result{}, fmt.Errorf(
				"specification diverges (tau cycle at %s); stable-failures refinement requires a divergence-free specification",
				specLTS.Key(witness))
		}
	}
	phase = span.Child("refine.normalize")
	norm := c.normalize(specLTS)
	phase.End(obs.Int("specNodes", int64(norm.NumNodes())))
	phase = span.Child("refine.product")
	res, err = c.productCheck(specLTS, norm, implLTS, model, deadline)
	phase.End(obs.Int("productStates", int64(res.ProductStates)))
	if err != nil {
		return Result{}, err
	}
	res.ImplStates = implLTS.NumStates()
	res.SpecNodes = norm.NumNodes()
	return res, nil
}

// verdictOf renders a check outcome for span attributes: "holds",
// "fails", or the error class for indeterminate checks.
func verdictOf(res Result, err error) string {
	switch {
	case err == nil && res.Holds:
		return "holds"
	case err == nil:
		return "fails"
	default:
		var be *BudgetError
		if errors.As(err, &be) {
			return "budget:" + be.Phase
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return "canceled"
		}
		return "error"
	}
}

// normalize runs (or, with a cache, reuses) the subset construction.
func (c *Checker) normalize(l *lts.LTS) *lts.Normalized {
	if c.Cache != nil {
		return c.Cache.Normalize(l)
	}
	return lts.Normalize(l)
}

// RefinesFD checks failures-divergences refinement spec ⊑FD impl.
func (c *Checker) RefinesFD(spec, impl csp.Process) (Result, error) {
	return c.Refines(spec, impl, FailuresDivergences)
}

// RefinesTraces checks trace refinement spec ⊑T impl.
func (c *Checker) RefinesTraces(spec, impl csp.Process) (Result, error) {
	return c.Refines(spec, impl, Traces)
}

// RefinesFailures checks stable-failures refinement spec ⊑F impl.
func (c *Checker) RefinesFailures(spec, impl csp.Process) (Result, error) {
	return c.Refines(spec, impl, Failures)
}

// productState pairs an implementation state with a normalised
// specification node.
type productState struct {
	impl int
	spec int
}

type parentEdge struct {
	from productState
	ev   int // implementation label ID; -1 for the root
}

func (c *Checker) productCheck(specLTS *lts.LTS, norm *lts.Normalized, implLTS *lts.LTS, model Model, deadline time.Time) (Result, error) {
	// Map implementation label IDs to specification label IDs. Labels the
	// spec has never heard of map to -1 and immediately fail refinement
	// when performed.
	implToSpec := make([]int, len(implLTS.Events))
	for i, ev := range implLTS.Events {
		switch i {
		case lts.TauID:
			implToSpec[i] = lts.TauID
		case lts.TickID:
			implToSpec[i] = lts.TickID
		default:
			if id, ok := specLTS.EventID(ev); ok {
				implToSpec[i] = id
			} else {
				implToSpec[i] = -1
			}
		}
	}

	start := productState{impl: implLTS.Init, spec: norm.Init}
	visited := map[productState]parentEdge{start: {ev: -1}}
	queue := []productState{start}

	rebuild := func(ps productState, extra *csp.Event) csp.Trace {
		var rev []csp.Event
		cur := ps
		for {
			pe := visited[cur]
			if pe.ev == -1 {
				break
			}
			if pe.ev != lts.TauID {
				rev = append(rev, implLTS.EventByID(pe.ev))
			}
			cur = pe.from
		}
		trace := make(csp.Trace, 0, len(rev)+1)
		for i := len(rev) - 1; i >= 0; i-- {
			trace = append(trace, rev[i])
		}
		if extra != nil {
			trace = append(trace, *extra)
		}
		return trace
	}

	steps := 0
	visitedProduct := 0
	for len(queue) > 0 {
		ps := queue[0]
		queue = queue[1:]
		visitedProduct++
		if visitedProduct%deadlineCheckInterval == 0 {
			if err := c.canceled("product search"); err != nil {
				return Result{}, err
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return Result{}, &BudgetError{Phase: "product-deadline", Explored: visitedProduct,
					Limit: int(c.MaxDuration / time.Millisecond)}
			}
		}

		if model == Failures && implLTS.IsStable(ps.impl) {
			offered := implLTS.Initials(ps.impl)
			mapped := make([]int, 0, len(offered))
			for _, o := range offered {
				mapped = append(mapped, implToSpec[o])
			}
			if !norm.RefusalPossible(ps.spec, mapped) {
				return Result{
					Holds:          false,
					Counterexample: rebuild(ps, nil),
					Reason: fmt.Sprintf(
						"implementation stable state refuses more than the specification allows (offers %s)",
						labelNames(implLTS, offered)),
					ProductStates: len(visited),
				}, nil
			}
		}

		for _, e := range implLTS.Edges[ps.impl] {
			steps++
			if c.MaxSteps > 0 && steps > c.MaxSteps {
				return Result{}, &BudgetError{Phase: "product-steps", Explored: steps - 1, Limit: c.MaxSteps}
			}
			if e.Ev == lts.TauID {
				next := productState{impl: e.To, spec: ps.spec}
				if _, seen := visited[next]; !seen {
					if c.MaxProductStates > 0 && len(visited) >= c.MaxProductStates {
						return Result{}, &BudgetError{Phase: "product", Explored: visitedProduct, Limit: c.MaxProductStates}
					}
					visited[next] = parentEdge{from: ps, ev: lts.TauID}
					queue = append(queue, next)
				}
				continue
			}
			specLabel := implToSpec[e.Ev]
			var specTo int
			ok := specLabel >= 0
			if ok {
				specTo, ok = norm.Accepts(ps.spec, specLabel)
			}
			if !ok {
				bad := implLTS.EventByID(e.Ev)
				return Result{
					Holds:          false,
					Counterexample: rebuild(ps, &bad),
					BadEvent:       &bad,
					Reason:         fmt.Sprintf("implementation performs %s, which the specification cannot", bad),
					ProductStates:  len(visited),
				}, nil
			}
			next := productState{impl: e.To, spec: specTo}
			if _, seen := visited[next]; !seen {
				if c.MaxProductStates > 0 && len(visited) >= c.MaxProductStates {
					return Result{}, &BudgetError{Phase: "product", Explored: visitedProduct, Limit: c.MaxProductStates}
				}
				visited[next] = parentEdge{from: ps, ev: e.Ev}
				queue = append(queue, next)
			}
		}
	}
	return Result{Holds: true, ProductStates: len(visited)}, nil
}

func labelNames(l *lts.LTS, labels []int) string {
	out := "{"
	for i, id := range labels {
		if i > 0 {
			out += ", "
		}
		out += l.EventByID(id).String()
	}
	return out + "}"
}

// DeadlockFree checks that no reachable state of p is a deadlock: a
// state with no transitions at all that is not the terminated process.
func (c *Checker) DeadlockFree(p csp.Process) (res Result, err error) {
	span := c.Obs.StartSpan("refine.deadlockfree")
	checkStart := time.Now()
	defer func() {
		c.Obs.Counter("refine.checks").Inc()
		c.Obs.Histogram("refine.check.ns").ObserveSince(checkStart)
		span.End(obs.String("verdict", verdictOf(res, err)),
			obs.Int("implStates", int64(res.ImplStates)))
	}()
	l, err := c.explore(p)
	if err != nil {
		return Result{}, err
	}
	// BFS with parent tracking for counterexample reconstruction.
	parents := make([]parentEdge, l.NumStates())
	seen := make([]bool, l.NumStates())
	seen[l.Init] = true
	parents[l.Init] = parentEdge{ev: -1}
	queue := []int{l.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if len(l.Edges[s]) == 0 && !l.IsOmega(s) {
			return Result{
				Holds:          false,
				Counterexample: rebuildLinear(l, parents, s),
				Reason:         "deadlocked state reached: " + l.Key(s),
				ImplStates:     l.NumStates(),
			}, nil
		}
		for _, e := range l.Edges[s] {
			if !seen[e.To] {
				seen[e.To] = true
				parents[e.To] = parentEdge{from: productState{impl: s}, ev: e.Ev}
				queue = append(queue, e.To)
			}
		}
	}
	return Result{Holds: true, ImplStates: l.NumStates()}, nil
}

// DivergenceFree checks that p has no reachable tau cycle (livelock).
// A failed check carries the shortest trace leading to the divergent
// state as its counterexample.
func (c *Checker) DivergenceFree(p csp.Process) (res Result, err error) {
	span := c.Obs.StartSpan("refine.divergencefree")
	checkStart := time.Now()
	defer func() {
		c.Obs.Counter("refine.checks").Inc()
		c.Obs.Histogram("refine.check.ns").ObserveSince(checkStart)
		span.End(obs.String("verdict", verdictOf(res, err)),
			obs.Int("implStates", int64(res.ImplStates)))
	}()
	l, err := c.explore(p)
	if err != nil {
		return Result{}, err
	}
	if diverges, witness := l.HasTauCycle(); diverges {
		return Result{
			Holds:          false,
			Counterexample: shortestTraceTo(l, witness),
			Reason:         "divergent state (tau cycle) reachable: " + l.Key(witness),
			ImplStates:     l.NumStates(),
		}, nil
	}
	return Result{Holds: true, ImplStates: l.NumStates()}, nil
}

// shortestTraceTo reconstructs the visible-event trace of a shortest
// path from the initial state to the target — the witness trace for
// divergence counterexamples. Every state of an explored LTS is
// reachable from its initial state by construction.
func shortestTraceTo(l *lts.LTS, target int) csp.Trace {
	parents := make([]parentEdge, l.NumStates())
	seen := make([]bool, l.NumStates())
	seen[l.Init] = true
	parents[l.Init] = parentEdge{ev: -1}
	queue := []int{l.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == target {
			break
		}
		for _, e := range l.Edges[s] {
			if !seen[e.To] {
				seen[e.To] = true
				parents[e.To] = parentEdge{from: productState{impl: s}, ev: e.Ev}
				queue = append(queue, e.To)
			}
		}
	}
	return rebuildLinear(l, parents, target)
}

func rebuildLinear(l *lts.LTS, parents []parentEdge, state int) csp.Trace {
	var rev []csp.Event
	cur := state
	for {
		pe := parents[cur]
		if pe.ev == -1 {
			break
		}
		if pe.ev != lts.TauID {
			rev = append(rev, l.EventByID(pe.ev))
		}
		cur = pe.from.impl
	}
	trace := make(csp.Trace, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		trace = append(trace, rev[i])
	}
	return trace
}
