// Package learn closes the paper's pipeline into a Learn–Check–Test
// loop (ROADMAP item 3, after Marksteiner et al.): an L*-style active
// learner drives the canoe interpreter + simulated CAN bus as the
// system under learning, producing an automaton of the *actual* ECU
// behaviour, which is then lowered to a CSP process and
// refinement-checked against the CAPL-extracted model and the paper's
// security specs. Divergence between the learned and extracted models
// is exactly a translation-soundness bug, delta-shrunk to a replayable
// witness.
//
// Membership queries are seeded deterministic simulator runs;
// equivalence queries are bounded (seeded random walks plus a
// W-method-style sweep) and fan out over a scenario worker pool with
// seed-ordered results, so a learning campaign is byte-identical at any
// worker count.
package learn

import (
	"fmt"

	"repro/internal/csp"
	"repro/internal/obs"
)

// Config drives one Learn call.
type Config struct {
	// Teacher answers membership queries; its alphabet fixes the
	// hypothesis vocabulary.
	Teacher Teacher
	// Seed feeds the equivalence random walks.
	Seed int64
	// Depth bounds random-walk length (default 6).
	Depth int
	// Walks is the number of random equivalence words per round
	// (default 64).
	Walks int
	// Workers is the equivalence-pool size (0: all cores). Results are
	// byte-identical at any worker count.
	Workers int
	// MaxQueries bounds teacher-level membership queries (default
	// 50_000); exhausting it aborts with a *QueryBudgetError.
	MaxQueries int
	// MaxRounds bounds equivalence rounds (default 32).
	MaxRounds int
	// Obs receives learn.* metrics and spans; nil disables.
	Obs *obs.Observer
}

// Stats summarizes the query workload of one Learn call. All fields are
// deterministic for a given (teacher, seed, depth, walks) regardless of
// worker count.
type Stats struct {
	// MembershipQueries counts teacher-level (cache-miss) queries.
	MembershipQueries int64 `json:"membershipQueries"`
	// CacheHits counts queries answered from the memo.
	CacheHits int64 `json:"cacheHits"`
	// EquivalenceWords counts words evaluated across all equivalence
	// rounds (including cache hits).
	EquivalenceWords int64 `json:"equivalenceWords"`
	// EquivalenceRounds is the number of equivalence queries asked.
	EquivalenceRounds int `json:"equivalenceRounds"`
	// TableRows and TableSuffixes are the final observation-table size
	// (|S| and |E|).
	TableRows     int `json:"tableRows"`
	TableSuffixes int `json:"tableSuffixes"`
}

// Learn runs L* against the teacher until a bounded equivalence round
// finds no counterexample, returning the canonical learned automaton.
// The stats describe the run on every return, an error's included.
func Learn(cfg Config) (_ *DFA, stats Stats, _ error) {
	depth := cfg.Depth
	if depth <= 0 {
		depth = 6
	}
	walks := cfg.Walks
	if walks <= 0 {
		walks = 64
	}
	maxQueries := cfg.MaxQueries
	if maxQueries <= 0 {
		maxQueries = 50_000
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 32
	}

	alpha := append([]csp.Event(nil), cfg.Teacher.Alphabet()...)
	if len(alpha) == 0 {
		return nil, stats, fmt.Errorf("learn: teacher has an empty alphabet")
	}
	cache := newQueryCache(cfg.Teacher, alpha, maxQueries, cfg.Obs)
	tbl := newObsTable(cache, alpha)

	span := cfg.Obs.StartSpan("learn.run", obs.Int("alphabet", int64(len(alpha))))
	defer span.End()

	// Deferred, this writes the named result after a return statement
	// has set it, so an error return keeps its query and table figures.
	defer func() {
		stats.MembershipQueries, stats.CacheHits = cache.stats()
		stats.TableRows = len(tbl.prefixes)
		stats.TableSuffixes = len(tbl.suffixes)
		cfg.Obs.Gauge("learn.table.rows").Set(int64(len(tbl.prefixes)))
		cfg.Obs.Gauge("learn.table.suffixes").Set(int64(len(tbl.suffixes)))
	}()

	for round := 0; round < maxRounds; round++ {
		if err := tbl.repair(); err != nil {
			return nil, stats, err
		}
		hyp, err := tbl.hypothesis()
		if err != nil {
			return nil, stats, err
		}
		words := equivSuite(hyp, tbl.suffixes, cfg.Seed, round, depth, walks)
		stats.EquivalenceWords += int64(len(words))
		stats.EquivalenceRounds = round + 1
		cfg.Obs.Counter("learn.queries.equivalence").Add(int64(len(words)))
		rspan := span.Child("learn.round",
			obs.Int("round", int64(round)), obs.Int("states", int64(hyp.States)), obs.Int("suite", int64(len(words))))
		cex, found, err := findCounterexample(hyp, cache, words, cfg.Workers)
		rspan.End(obs.Bool("counterexample", found))
		if err != nil {
			return nil, stats, err
		}
		if !found {
			return hyp.Canonical(), stats, nil
		}
		if err := tbl.processCounterexample(hyp, cex); err != nil {
			return nil, stats, err
		}
	}
	return nil, stats, fmt.Errorf("learn: no convergence after %d equivalence rounds", maxRounds)
}
