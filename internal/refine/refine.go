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
	// ProductStates is the number of distinct (impl state, normalised
	// spec node) pairs the product search discovered, the root included:
	// every pair of a check that holds, and on a failure the pairs found
	// by the time the search stopped. It does not depend on the search's
	// table layout.
	ProductStates int
}

// Budget is the one definition of a check's limits: Checker embeds
// it, fdr.Budget is an alias of it and serve builds it from a request.
// Zero fields mean the lts default (MaxStates) or unbounded.
type Budget struct {
	// MaxStates bounds each LTS exploration; 0 uses the lts default.
	MaxStates int
	// MaxProductStates bounds the number of distinct (impl, spec)
	// product pairs a refinement check may discover (Result's
	// ProductStates); 0 means unbounded, up to the search table's
	// 2^31-1 records. Discovering one more pair returns a *BudgetError
	// with phase "product" whose Explored counts the pairs dequeued so
	// far, so campaign-scale checking degrades gracefully instead of
	// hanging.
	MaxProductStates int
	// MaxSteps bounds the number of transitions examined during the
	// product search; 0 means unbounded.
	MaxSteps int
	// MaxDuration bounds the wall-clock time of a whole check (all
	// explorations plus the product search, or the whole trace walk); 0
	// means unbounded. It is a deadline on the check's context with
	// cause lts.ErrDeadline, and exceeding it yields a *BudgetError with
	// a "-deadline" phase, so a pathological check degrades into a typed
	// verdict instead of a hang.
	MaxDuration time.Duration
	// MaxMemBytes is a hard per-exploration watermark on estimated
	// resident bytes; exceeding it yields a *BudgetError with phase
	// "memory" — a structured budget-exhausted verdict instead of an
	// OOM kill. 0 means unbounded.
	MaxMemBytes int64
	// CheckpointDir, when non-empty, makes the check crash-safe: each
	// exploration writes atomic level-granular snapshots into a
	// per-phase subdirectory ("spec", "impl"), and a re-run of the same
	// check over the same directory resumes from them instead of
	// starting over. Normalisation and the product search are
	// recomputed deterministically from the restored LTSs, so the
	// resumed verdict is byte-identical to an uninterrupted one. A
	// resumed exploration counts the wall-clock time its snapshot
	// already spent against the check's deadline, so a crash loop cannot
	// extend it. Callers checking several assertions should pass a
	// distinct directory per assertion.
	CheckpointDir string
	// CheckpointEveryLevels is the snapshot cadence in completed BFS
	// levels; <= 0 means every level.
	CheckpointEveryLevels int
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
	// explorations, the product search and the trace walk all poll it,
	// so a cancelled request (disconnected client, fired per-request
	// deadline) aborts mid-BFS-level with an error matching
	// context.Canceled / context.DeadlineExceeded under errors.Is. nil
	// means no cancellation, the batch-CLI default. Cancellation never
	// yields a verdict — like a budget exhaustion, the outcome is
	// unknown.
	Ctx context.Context
}

// Checker runs refinement checks within one semantics (definition
// environment + channel context) under one budget.
type Checker struct {
	Sem *csp.Semantics
	Budget
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
	// Limit is the configured budget. For wall-clock phases it is
	// MaxDuration in milliseconds (0 when the deadline was Ctx's, carried
	// over a resume).
	Limit int
}

// Error describes the exhausted budget.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("refine: %s budget exhausted after %d (limit %d); verdict unknown",
		e.Phase, e.Explored, e.Limit)
}

// stopCheckInterval is how many loop iterations pass between probes of
// the stop signal in the product search and the trace walk.
const stopCheckInterval = 1024

// NewChecker builds a Checker over the given environment and context.
func NewChecker(env *csp.Env, ctx *csp.Context) *Checker {
	return &Checker{Sem: csp.NewSemantics(env, ctx)}
}

// stopSignal derives the one stop signal of a check starting now: Ctx,
// bounded by MaxDuration with cause lts.ErrDeadline. A check with
// neither gets a nil context and polls nothing.
func (c *Checker) stopSignal() (context.Context, context.CancelFunc) {
	if c.MaxDuration <= 0 {
		return c.Ctx, func() {}
	}
	parent := c.Ctx
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeoutCause(parent, c.MaxDuration, lts.ErrDeadline)
}

// stopErr classifies a fired stop signal observed in phase after
// explored units. Cause lts.ErrDeadline — the budget's own clock, or the
// carried-over time of a resumed exploration — is a "<phase>-deadline"
// *BudgetError; any other stop is err, which matches context.Canceled /
// context.DeadlineExceeded under errors.Is.
func (c *Checker) stopErr(phase string, explored int, cause, err error) error {
	if errors.Is(cause, lts.ErrDeadline) {
		return &BudgetError{Phase: phase + "-deadline", Explored: explored,
			Limit: int(c.MaxDuration / time.Millisecond)}
	}
	return err
}

// stopped is stopErr for a loop of this package that found ctx done.
func (c *Checker) stopped(ctx context.Context, phase string, explored int) error {
	return c.stopErr(phase, explored, context.Cause(ctx),
		fmt.Errorf("refine: %s search canceled: %w", phase, ctx.Err()))
}

// explore explores p under the state budget and the check's stop
// signal, consulting the shared cache when one is configured. role
// ("spec", "impl") selects the checkpoint subdirectory when
// checkpointing is on, so the two explorations of a refinement check
// never clobber each other's snapshots.
func (c *Checker) explore(ctx context.Context, p csp.Process, role string) (*lts.LTS, error) {
	opts := lts.Options{
		MaxStates:   c.MaxStates,
		Obs:         c.Obs,
		Ctx:         ctx,
		MaxMemBytes: c.MaxMemBytes,
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
		var ce *lts.CanceledError
		if errors.As(err, &ce) {
			return nil, c.stopErr("explore", ce.Explored, ce.Cause, err)
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
func (c *Checker) Refines(spec, impl csp.Process, model Model) (Result, error) {
	res, _, err := c.refines(spec, impl, model, (*Checker).productCheck)
	return res, err
}

// productSearch is the product search Refines runs once both terms are
// explored and the specification normalised: productCheck, or in tests
// the reference it is checked against.
type productSearch func(c *Checker, ctx context.Context, specLTS *lts.LTS, norm *lts.Normalized, implLTS *lts.LTS, model Model) (Result, searchStats, error)

// refines is Refines with the product search given by search; it also
// returns the search's measurements.
func (c *Checker) refines(spec, impl csp.Process, model Model, search productSearch) (res Result, st searchStats, err error) {
	ctx, cancel := c.stopSignal()
	defer cancel()
	span := c.Obs.StartSpan("refine.refines", obs.String("model", model.String()))
	checkStart := time.Now()
	defer func() {
		c.Obs.Counter("refine.checks").Inc()
		c.Obs.Counter("refine.product.pairs").Add(int64(res.ProductStates))
		c.Obs.Counter("refine.product.steps").Add(int64(st.steps))
		c.Obs.Histogram("refine.check.ns").ObserveSince(checkStart)
		span.End(obs.String("verdict", verdictOf(res, err)),
			obs.Int("implStates", int64(res.ImplStates)),
			obs.Int("productStates", int64(res.ProductStates)))
	}()
	phase := span.Child("refine.explore-spec")
	specLTS, err := c.explore(ctx, spec, "spec")
	phase.End()
	if err != nil {
		return Result{}, st, fmt.Errorf("explore specification: %w", err)
	}
	phase = span.Child("refine.explore-impl")
	implLTS, err := c.explore(ctx, impl, "impl")
	phase.End()
	if err != nil {
		return Result{}, st, fmt.Errorf("explore implementation: %w", err)
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
			}, st, nil
		}
		model = Failures
	}
	if model == Failures {
		// Normalisation computes acceptance sets from stable states, so
		// a divergent specification (a node with no stable member) has
		// no meaningful refusals. FDR imposes the same restriction.
		if diverges, witness := specLTS.HasTauCycle(); diverges {
			return Result{}, st, fmt.Errorf(
				"specification diverges (tau cycle at %s); stable-failures refinement requires a divergence-free specification",
				specLTS.Key(witness))
		}
	}
	phase = span.Child("refine.normalize")
	norm := c.normalize(specLTS)
	phase.End(obs.Int("specNodes", int64(norm.NumNodes())))
	phase = span.Child("refine.product")
	res, st, err = search(c, ctx, specLTS, norm, implLTS, model)
	phase.End(obs.Int("productStates", int64(res.ProductStates)),
		obs.Int("steps", int64(st.steps)), obs.Int("slots", int64(st.slots)))
	if err != nil {
		return Result{}, st, err
	}
	res.ImplStates = implLTS.NumStates()
	res.SpecNodes = norm.NumNodes()
	return res, st, nil
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

// parentEdge is a BFS parent link over the states of one LTS: the
// state the search came from and the label of the edge it took, -1 for
// the initial state.
type parentEdge struct {
	from int
	ev   int
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
	ctx, cancel := c.stopSignal()
	defer cancel()
	l, err := c.explore(ctx, p, "impl")
	if err != nil {
		return Result{}, err
	}
	// BFS with parent tracking for counterexample reconstruction.
	parents := make([]parentEdge, l.NumStates())
	seen := make([]bool, l.NumStates())
	seen[l.Init] = true
	parents[l.Init] = parentEdge{ev: -1}
	queue := []int{l.Init}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
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
				parents[e.To] = parentEdge{from: s, ev: e.Ev}
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
	ctx, cancel := c.stopSignal()
	defer cancel()
	l, err := c.explore(ctx, p, "impl")
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
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if s == target {
			break
		}
		for _, e := range l.Edges[s] {
			if !seen[e.To] {
				seen[e.To] = true
				parents[e.To] = parentEdge{from: s, ev: e.Ev}
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
		cur = pe.from
	}
	trace := make(csp.Trace, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		trace = append(trace, rev[i])
	}
	return trace
}
