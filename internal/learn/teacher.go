package learn

import (
	"fmt"
	"sync"

	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/refine"
)

// Teacher answers the membership side of an active-learning dialogue:
// is a word over the model-event alphabet a trace of the system under
// learning? Implementations must be deterministic (the same word always
// gets the same answer) and safe for concurrent queries — equivalence
// sweeps fan membership queries out over a worker pool.
type Teacher interface {
	// Alphabet is the event vocabulary of the language, in a fixed
	// deterministic order.
	Alphabet() []csp.Event
	// Membership reports whether w is a trace of the system under
	// learning.
	Membership(w csp.Trace) (bool, error)
}

// QueryBudgetError reports that the membership-query budget ran out
// before the learner converged. The message carries no query-specific
// detail on purpose: under a concurrent equivalence sweep the exact
// query that trips the budget depends on scheduling, and reports must
// stay byte-identical at any worker count.
type QueryBudgetError struct {
	Limit int
}

func (e *QueryBudgetError) Error() string {
	return fmt.Sprintf("learn: membership query budget exhausted (limit %d)", e.Limit)
}

// queryCache wraps a teacher with a concurrency-safe memo and a query
// budget. Observation-table refills re-ask the same words once per new
// suffix column and equivalence suites overlap across rounds, so the
// memo turns the quadratic re-asking into map hits; the underlying
// teacher (a full simulator run per query) is only consulted once per
// distinct word.
type queryCache struct {
	t     Teacher
	alpha []csp.Event
	limit int
	o     *obs.Observer

	mu      sync.Mutex
	memo    map[string]bool
	queries int64
	hits    int64
}

func newQueryCache(t Teacher, alpha []csp.Event, limit int, o *obs.Observer) *queryCache {
	return &queryCache{t: t, alpha: alpha, limit: limit, o: o, memo: map[string]bool{}}
}

// membership answers w from the memo, which is keyed by wordKey, or
// asks the teacher.
func (c *queryCache) membership(w csp.Trace) (bool, error) {
	key, ok := wordKey(c.alpha, w)
	if !ok {
		return false, fmt.Errorf("learn: membership %s: event not in the learned alphabet", w)
	}
	c.mu.Lock()
	if v, ok := c.memo[key]; ok {
		c.hits++
		c.mu.Unlock()
		c.o.Counter("learn.cache.hits").Inc()
		return v, nil
	}
	if c.limit > 0 && c.queries >= int64(c.limit) {
		limit := c.limit
		c.mu.Unlock()
		return false, &QueryBudgetError{Limit: limit}
	}
	c.queries++
	c.mu.Unlock()

	v, err := c.t.Membership(w)
	if err != nil {
		return false, fmt.Errorf("learn: membership %s: %w", w, err)
	}
	c.mu.Lock()
	c.memo[key] = v
	c.mu.Unlock()
	c.o.Counter("learn.queries.membership").Inc()
	c.o.Counter("learn.cache.misses").Inc()
	return v, nil
}

func (c *queryCache) stats() (queries, hits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries, c.hits
}

// ModelTeacher answers membership against a CSP process term via
// refine.AcceptsTrace — the simulator-free teacher used to
// differentially test the learner itself: learning a known model and
// checking the result is trace-equivalent to it exercises every part of
// the learner except the simulator harness.
type ModelTeacher struct {
	Checker *refine.Checker
	Proc    csp.Process
	Events  []csp.Event
}

// Alphabet returns the configured event vocabulary.
func (t *ModelTeacher) Alphabet() []csp.Event { return t.Events }

// Membership runs the on-the-fly trace-membership check.
func (t *ModelTeacher) Membership(w csp.Trace) (bool, error) {
	res, err := t.Checker.AcceptsTrace(t.Proc, w)
	if err != nil {
		return false, err
	}
	return res.Accepted, nil
}
