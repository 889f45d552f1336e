package learn

import (
	"fmt"

	"repro/internal/csp"
)

// obsTable is the L* observation table: access prefixes S (rows),
// distinguishing suffixes E (columns) and the membership function
// T(u·e) consulted through the query cache. suffixes[0] is always the
// empty word, so the first character of a row key is the row's own
// membership bit.
type obsTable struct {
	c        *queryCache
	alpha    []csp.Event
	prefixes []csp.Trace // S, discovery order; prefixes[0] = ε
	suffixes []csp.Trace // E, discovery order; suffixes[0] = ε
}

func newObsTable(c *queryCache, alpha []csp.Event) *obsTable {
	return &obsTable{c: c, alpha: alpha, prefixes: []csp.Trace{{}}, suffixes: []csp.Trace{{}}}
}

func concat(u, v csp.Trace) csp.Trace {
	out := make(csp.Trace, 0, len(u)+len(v))
	out = append(out, u...)
	return append(out, v...)
}

// rowKey renders the membership vector of u over the current suffix
// set. Queries go through the cache, so re-deriving a row after the
// table grows costs map lookups plus one real query per new column.
func (t *obsTable) rowKey(u csp.Trace) (string, error) {
	b := make([]byte, len(t.suffixes))
	for i, e := range t.suffixes {
		v, err := t.c.membership(concat(u, e))
		if err != nil {
			return "", err
		}
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b), nil
}

// repair drives the table to a closed and consistent fixed point:
// unclosed boundary rows are promoted into S, inconsistencies add the
// separating suffix a·e to E. Iteration is index-ordered throughout,
// so repair is deterministic.
func (t *obsTable) repair() error {
	for {
		moved, err := t.closeOnce()
		if err != nil {
			return err
		}
		if moved {
			continue
		}
		fixed, err := t.consistentOnce()
		if err != nil {
			return err
		}
		if fixed {
			continue
		}
		return nil
	}
}

func (t *obsTable) closeOnce() (bool, error) {
	rows := make(map[string]bool, len(t.prefixes))
	for _, u := range t.prefixes {
		k, err := t.rowKey(u)
		if err != nil {
			return false, err
		}
		rows[k] = true
	}
	moved := false
	// S grows while we scan it; the index loop visits promoted rows'
	// boundaries too, so one call reaches a closed table.
	for i := 0; i < len(t.prefixes); i++ {
		for _, a := range t.alpha {
			ua := concat(t.prefixes[i], csp.Trace{a})
			k, err := t.rowKey(ua)
			if err != nil {
				return false, err
			}
			if !rows[k] {
				rows[k] = true
				t.prefixes = append(t.prefixes, ua)
				moved = true
			}
		}
	}
	return moved, nil
}

func (t *obsTable) consistentOnce() (bool, error) {
	keys := make([]string, len(t.prefixes))
	for i, u := range t.prefixes {
		k, err := t.rowKey(u)
		if err != nil {
			return false, err
		}
		keys[i] = k
	}
	for i := 0; i < len(t.prefixes); i++ {
		for j := i + 1; j < len(t.prefixes); j++ {
			if keys[i] != keys[j] {
				continue
			}
			for _, a := range t.alpha {
				ki, err := t.rowKey(concat(t.prefixes[i], csp.Trace{a}))
				if err != nil {
					return false, err
				}
				kj, err := t.rowKey(concat(t.prefixes[j], csp.Trace{a}))
				if err != nil {
					return false, err
				}
				if ki == kj {
					continue
				}
				for d := range ki {
					if ki[d] != kj[d] {
						t.addSuffix(concat(csp.Trace{a}, t.suffixes[d]))
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}

func (t *obsTable) addSuffix(e csp.Trace) bool {
	for _, have := range t.suffixes {
		if have.Equal(e) {
			return false
		}
	}
	t.suffixes = append(t.suffixes, e)
	return true
}

// hypothesis builds the table automaton: one state per distinct row of
// S in first-occurrence order, transitions by row lookup (total, since
// the table is closed), acceptance from the ε column.
func (t *obsTable) hypothesis() (*DFA, error) {
	keyOf := map[string]int{}
	var access []csp.Trace
	var accepting []bool
	for _, u := range t.prefixes {
		k, err := t.rowKey(u)
		if err != nil {
			return nil, err
		}
		if _, ok := keyOf[k]; !ok {
			keyOf[k] = len(access)
			access = append(access, u)
			accepting = append(accepting, k[0] == '1')
		}
	}
	d := &DFA{
		Alpha:     t.alpha,
		States:    len(access),
		Accepting: accepting,
		Access:    access,
		Delta:     make([][]int, len(access)),
	}
	rootKey, err := t.rowKey(csp.Trace{})
	if err != nil {
		return nil, err
	}
	d.Initial = keyOf[rootKey]
	for i, u := range access {
		row := make([]int, len(t.alpha))
		for ai, a := range t.alpha {
			k, err := t.rowKey(concat(u, csp.Trace{a}))
			if err != nil {
				return nil, err
			}
			to, ok := keyOf[k]
			if !ok {
				return nil, fmt.Errorf("learn: table not closed at row %s · %s", u, a)
			}
			row[ai] = to
		}
		d.Delta[i] = row
	}
	return d, nil
}

// processCounterexample refines the table from a word the hypothesis
// misclassifies, using Rivest–Schapire binary search: find the index i
// where replacing the already-processed prefix by its hypothesis
// state's access word flips the teacher's answer, and add the suffix
// w[i+1:] as a new distinguishing column. Falls back to adding
// progressively longer suffixes of w if the extracted one is already a
// column (guaranteeing progress regardless of hypothesis conventions).
func (t *obsTable) processCounterexample(hyp *DFA, w csp.Trace) error {
	member := func(i int) (bool, error) {
		st, err := hyp.Walk(w[:i])
		if err != nil {
			return false, err
		}
		return t.c.membership(concat(hyp.Access[st], w[i:]))
	}
	lo, hi := 0, len(w)
	fLo, err := member(lo)
	if err != nil {
		return err
	}
	fHi, err := member(hi)
	if err != nil {
		return err
	}
	if fLo == fHi {
		// Not actually a counterexample under the access-word reading;
		// add all suffixes of w as a (rare) fallback.
		for i := len(w) - 1; i >= 0; i-- {
			if t.addSuffix(w[i:]) {
				return nil
			}
		}
		return fmt.Errorf("learn: counterexample %s produced no new suffix", w)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v, err := member(mid)
		if err != nil {
			return err
		}
		if v == fLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	if t.addSuffix(w[hi:]) {
		return nil
	}
	for i := hi - 1; i >= 0; i-- {
		if t.addSuffix(w[i:]) {
			return nil
		}
	}
	return fmt.Errorf("learn: counterexample %s produced no new suffix", w)
}
