package learn

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/csp"
)

// equivSuite generates the bounded equivalence-query suite for one
// round: a W-method-style sweep (every hypothesis state's access word ×
// all middles up to length 2 × the table's distinguishing suffixes and
// single events) plus seeded random walks. The suite is a deterministic
// function of (hypothesis, suffixes, seed, round); workers only decide
// who evaluates which word, never which words exist.
func equivSuite(hyp *DFA, suffixes []csp.Trace, seed int64, round, depth, walks int) []csp.Trace {
	var words []csp.Trace
	seen := map[string]bool{}
	add := func(w csp.Trace) {
		k, _ := wordKey(hyp.Alpha, w) // every suite word is over the alphabet
		if !seen[k] {
			seen[k] = true
			words = append(words, w)
		}
	}

	middles := []csp.Trace{{}}
	for _, a := range hyp.Alpha {
		middles = append(middles, csp.Trace{a})
	}
	for _, a := range hyp.Alpha {
		for _, b := range hyp.Alpha {
			middles = append(middles, csp.Trace{a, b})
		}
	}
	var suff []csp.Trace
	suff = append(suff, suffixes...)
	for _, a := range hyp.Alpha {
		suff = append(suff, csp.Trace{a})
	}
	for st := 0; st < hyp.States; st++ {
		for _, m := range middles {
			for _, e := range suff {
				add(concat(concat(hyp.Access[st], m), e))
			}
		}
	}

	rng := rand.New(rand.NewSource(campaign.Seed(seed, round)))
	for i := 0; i < walks; i++ {
		n := 1 + rng.Intn(depth)
		w := make(csp.Trace, n)
		for j := range w {
			w[j] = hyp.Alpha[rng.Intn(len(hyp.Alpha))]
		}
		add(w)
	}
	return words
}

// findCounterexample evaluates the whole suite on a worker pool and
// returns the lowest-indexed word the teacher and the hypothesis
// disagree on. Every word is always evaluated (no early exit): the
// per-round query counts and therefore the report are byte-identical at
// any worker count, and the returned counterexample is the suite-order
// minimum regardless of which worker found it first.
func findCounterexample(hyp *DFA, c *queryCache, words []csp.Trace, workers int) (csp.Trace, bool, error) {
	type outcome struct {
		disagree bool
		err      error
	}
	results := campaign.Map(words, workers, nil, "",
		func(_ int, w csp.Trace) outcome {
			got, err := c.membership(w)
			return outcome{disagree: err == nil && got != hyp.Accepts(w), err: err}
		},
		func(_ int, w csp.Trace, r any) outcome {
			return outcome{err: fmt.Errorf("learn: equivalence query %s panicked: %v", w, r)}
		})

	// A tripped query budget masks later outcomes nondeterministically
	// (which in-flight query hit the limit depends on scheduling), so it
	// wins over everything; otherwise the first disagreement or error in
	// suite order decides.
	for _, r := range results {
		var qe *QueryBudgetError
		if errors.As(r.err, &qe) {
			return nil, false, qe
		}
	}
	for i, r := range results {
		if r.err != nil {
			return nil, false, r.err
		}
		if r.disagree {
			return words[i], true, nil
		}
	}
	return nil, false, nil
}
