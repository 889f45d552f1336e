package refine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/csp"
	"repro/internal/lts"
)

// eventInterners holds reset interners for mapEvents, so a check over
// cached LTSs builds no interner of its own.
var eventInterners = sync.Pool{New: func() any { return csp.NewInterner() }}

// mapEvents maps each impl label ID to the spec label ID of the same
// event, or -1. Identity is csp.Event.Equal: both tables, tau and tick
// placeholders included, are interned through one interner, so events
// that merely render alike (pun.Int(5), pun.Sym("5")) stay apart.
func mapEvents(spec, impl []csp.Event) []int {
	in := eventInterners.Get().(*csp.Interner)
	defer eventInterners.Put(in)
	in.Reset()
	specTIDs := make([]csp.TermID, len(spec))
	for id, ev := range spec {
		specTIDs[id] = in.Event(ev)
	}
	// specOf[tid] is the spec label ID + 1 of the event interned as tid,
	// 0 for any other node. An impl event no spec event equals interns
	// to a new TermID, past the end.
	specOf := make([]int, in.Len())
	for id, tid := range specTIDs {
		specOf[tid] = id + 1
	}
	out := make([]int, len(impl))
	for i, ev := range impl {
		out[i] = -1
		if tid := int(in.Event(ev)); tid < len(specOf) {
			out[i] = specOf[tid] - 1
		}
	}
	return out
}

// pairRec is one visited (implementation state, normalised spec node)
// pair of the product search. from is the index of the record whose
// expansion discovered the pair and ev the implementation label of that
// edge (lts.TauID for a tau step); the root has from and ev -1.
type pairRec struct {
	impl, spec int32
	from, ev   int32
}

// maxPairs is the most records a pairTable holds, so a record index
// fits pairRec.from and an index slot without wrapping.
const maxPairs = math.MaxInt32

// pairTable is the product search's visited set. recs holds one record
// per visited pair in discovery order, which makes it the BFS queue as
// well; slots is an open-addressing index over recs keyed by
// (impl, spec): a power-of-two table of record index + 1 (0 for an
// empty slot), probed linearly from a multiplicative hash of the packed
// key and doubled when more than 3/4 full. Neither slice holds a
// pointer, so the garbage collector never scans them.
type pairTable struct {
	recs  []pairRec
	slots []uint32
	shift uint // 64 - log2(len(slots)): hash keeps the product's top bits
}

// pairSlots0 is the smallest index a pairTable starts with.
const pairSlots0 = 16

// newPairTable returns a table with room for n records before its first
// regrowth.
func newPairTable(n int) *pairTable {
	size := pairSlots0
	for 3*size < 4*n {
		size *= 2
	}
	return &pairTable{recs: make([]pairRec, 0, n), slots: make([]uint32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// slot is the index slot the probe for (impl, spec) starts at.
func (t *pairTable) slot(impl, spec int32) int {
	k := uint64(uint32(impl))<<32 | uint64(uint32(spec))
	return int(k * 0x9e3779b97f4a7c15 >> t.shift)
}

// find looks (impl, spec) up. It returns the pair's record index and
// true, or the empty slot where add must insert it and false.
func (t *pairTable) find(impl, spec int32) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.slot(impl, spec); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if r := &t.recs[s-1]; r.impl == impl && r.spec == spec {
			return int(s - 1), true
		}
	}
}

// add appends r, the pair find reported missing at slot, and regrows
// the index past 3/4 load.
func (t *pairTable) add(slot int, r pairRec) {
	t.recs = append(t.recs, r)
	t.slots[slot] = uint32(len(t.recs))
	if 4*len(t.recs) > 3*len(t.slots) {
		t.grow()
	}
}

// grow doubles the index and re-inserts every record.
func (t *pairTable) grow() {
	t.slots = make([]uint32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for r := range t.recs {
		i := t.slot(t.recs[r].impl, t.recs[r].spec)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(r + 1)
	}
}

// searchStats measures one product search for the refine.product span.
type searchStats struct {
	steps int // implementation transitions examined
	slots int // the final index size
}

// productCheck is the breadth-first search of the product of the
// implementation LTS with the normalised specification, from the pair
// of their initial states. It walks the pairTable's records by index,
// so the first parent of each pair — and so the counterexample — is
// the one BFS order gives.
func (c *Checker) productCheck(ctx context.Context, specLTS *lts.LTS, norm *lts.Normalized, implLTS *lts.LTS, model Model) (Result, searchStats, error) {
	// Records hold state and node IDs as int32.
	if implLTS.NumStates() > maxPairs || norm.NumNodes() > maxPairs {
		return Result{}, searchStats{}, &BudgetError{Phase: "product", Limit: maxPairs}
	}
	limit := c.MaxProductStates
	if limit <= 0 || limit > maxPairs {
		limit = maxPairs
	}
	// Labels the spec has never heard of map to -1 and immediately fail
	// refinement when performed.
	implToSpec := mapEvents(specLTS.Events, implLTS.Events)

	t := newPairTable(implLTS.NumStates())
	root := pairRec{impl: int32(implLTS.Init), spec: int32(norm.Init), from: -1, ev: -1}
	slot, _ := t.find(root.impl, root.spec)
	t.add(slot, root)
	steps := 0
	stats := func() searchStats { return searchStats{steps: steps, slots: len(t.slots)} }

	rebuild := func(r int32, extra *csp.Event) csp.Trace {
		var rev []csp.Event
		for ; t.recs[r].from >= 0; r = t.recs[r].from {
			if ev := int(t.recs[r].ev); ev != lts.TauID {
				rev = append(rev, implLTS.EventByID(ev))
			}
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

	var offers []int // the spec labels a stable implementation state offers
	for head := 0; head < len(t.recs); head++ {
		ps := t.recs[head]
		visited := head + 1
		if ctx != nil && visited%stopCheckInterval == 0 && ctx.Err() != nil {
			return Result{}, stats(), c.stopped(ctx, "product", visited)
		}
		edges := implLTS.Edges[ps.impl]

		if model == Failures {
			offers = offers[:0]
			stable := true
			for _, e := range edges {
				if e.Ev == lts.TauID {
					stable = false
					break
				}
				offers = append(offers, implToSpec[e.Ev])
			}
			if stable {
				// Unmapped labels (-1) sort first and match no acceptance.
				slices.Sort(offers)
				if !norm.RefusalPossible(int(ps.spec), offers) {
					return Result{
						Holds:          false,
						Counterexample: rebuild(int32(head), nil),
						Reason: fmt.Sprintf(
							"implementation stable state refuses more than the specification allows (offers %s)",
							labelNames(implLTS, implLTS.Initials(int(ps.impl)))),
						ProductStates: len(t.recs),
					}, stats(), nil
				}
			}
		}

		for _, e := range edges {
			steps++
			if c.MaxSteps > 0 && steps > c.MaxSteps {
				return Result{}, stats(), &BudgetError{Phase: "product-steps", Explored: steps - 1, Limit: c.MaxSteps}
			}
			specTo := ps.spec
			if e.Ev != lts.TauID {
				specLabel := implToSpec[e.Ev]
				to, ok := 0, specLabel >= 0
				if ok {
					to, ok = norm.Accepts(int(ps.spec), specLabel)
				}
				if !ok {
					bad := implLTS.EventByID(e.Ev)
					return Result{
						Holds:          false,
						Counterexample: rebuild(int32(head), &bad),
						BadEvent:       &bad,
						Reason:         fmt.Sprintf("implementation performs %s, which the specification cannot", bad),
						ProductStates:  len(t.recs),
					}, stats(), nil
				}
				specTo = int32(to)
			}
			slot, seen := t.find(int32(e.To), specTo)
			if seen {
				continue
			}
			if len(t.recs) >= limit {
				return Result{}, stats(), &BudgetError{Phase: "product", Explored: visited, Limit: limit}
			}
			t.add(slot, pairRec{impl: int32(e.To), spec: specTo, from: int32(head), ev: int32(e.Ev)})
		}
	}
	return Result{Holds: true, ProductStates: len(t.recs)}, stats(), nil
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
