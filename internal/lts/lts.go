// Package lts builds explicit labelled transition systems from CSP
// process terms by exhaustive exploration of the operational semantics,
// and provides the normalisation (tau-closure + subset construction)
// needed by the refinement checker, mirroring what FDR does before a
// refinement run.
package lts

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
)

// Event label identifiers. Tau and Tick have fixed IDs; visible events
// are interned in order of first appearance.
const (
	TauID  = 0
	TickID = 1
)

// ErrStateLimit is returned when exploration exceeds the configured
// maximum number of states.
var ErrStateLimit = errors.New("state limit exceeded during LTS exploration")

// LimitError is the concrete error returned when exploration exceeds
// its state bound. It matches ErrStateLimit under errors.Is and carries
// the size of the partial exploration, so campaign-scale callers can
// report how far a check got before its budget ran out.
type LimitError struct {
	// Explored is the number of states discovered before the bound hit.
	Explored int
	// Limit is the configured bound.
	Limit int
}

// Error describes the exhausted bound.
func (e *LimitError) Error() string {
	return fmt.Sprintf("%v (explored %d states, limit %d)", ErrStateLimit, e.Explored, e.Limit)
}

// Is makes errors.Is(err, ErrStateLimit) hold.
func (e *LimitError) Is(target error) bool { return target == ErrStateLimit }

// LTS is an explicit-state labelled transition system. States are
// identified by dense integer IDs in discovery (BFS) order, and each
// state is a node ID: into the exploration's interned node table while
// it runs, and into the node records the finished LTS keeps. No state
// carries a process term: Key rebuilds one from the node records on
// demand, for reports and counterexamples.
type LTS struct {
	// Init is the index of the initial state.
	Init int
	// Edges holds the outgoing transitions of each state.
	Edges [][]Edge
	// Events maps event IDs (>= 2) to events; index 0 and 1 are
	// placeholders for tau and tick.
	Events []csp.Event

	states   []csp.TermID // state ID -> node ID
	c        *compiler    // the node records; after Explore, only those Key needs
	eventIDs map[string]int
}

// Key renders the canonical process term of a state, rebuilt from the
// node records.
func (l *LTS) Key(id int) string { return l.c.proc(l.states[id]).Key() }

// IsOmega reports whether a state is Ω, the terminated process a tick
// leads to.
func (l *LTS) IsOmega(id int) bool { return l.states[id] == l.c.omega }

// Edge is a transition to state To labelled with event ID Ev.
type Edge struct {
	Ev int
	To int
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the exploration; 0 means DefaultMaxStates. The
	// bound is exact: at most MaxStates states are ever materialised, and
	// a *LimitError reports Explored <= Limit.
	MaxStates int
	// MaxDuration bounds the wall-clock time of the exploration; zero
	// means unbounded. Exceeding it returns a *DeadlineError, so a
	// pathological state space cannot hang a campaign-scale caller.
	MaxDuration time.Duration
	// Ctx, when non-nil, cooperatively cancels the exploration: the BFS
	// checks the context before every state expansion, so a cancelled
	// request (a disconnected client, a fired per-request deadline)
	// aborts mid-level and returns a *CanceledError matching
	// context.Canceled / context.DeadlineExceeded under errors.Is. nil
	// means no cancellation, the batch-CLI default.
	Ctx context.Context
	// Obs receives exploration metrics, a span per Explore call and
	// progress heartbeats. nil (the default) disables instrumentation at
	// the cost of a nil check; measurements never influence the
	// exploration itself.
	Obs *obs.Observer
	// MaxMemBytes is a hard watermark on the estimated resident size of
	// the exploration (the interner's index and node table, the compiled
	// memo and node records, and the LTS under construction including the
	// event-intern table), checked once per BFS level. Checkpointing adds
	// nothing: snapshots persist the exploration's own node table.
	// Exceeding it returns a *MemoryError — a structured budget verdict
	// instead of an OOM kill. 0 means unbounded.
	MaxMemBytes int64
	// Checkpoint, when non-nil with a Dir, enables level-granular
	// crash-safe checkpointing: snapshots are written atomically every
	// EveryLevels completed levels, and an Explore finding a valid
	// snapshot for the same root and bound resumes from it instead of
	// starting over, with a byte-identical result.
	Checkpoint *CheckpointOptions
}

// ErrMemoryLimit is returned when exploration exceeds its hard memory
// watermark.
var ErrMemoryLimit = errors.New("memory watermark exceeded during LTS exploration")

// MemoryError is the concrete error returned when the estimated
// resident size of an exploration passes Options.MaxMemBytes. It
// matches ErrMemoryLimit under errors.Is and carries the partial
// exploration size, so servers can degrade to a structured
// budget-exhausted verdict instead of being OOM-killed.
type MemoryError struct {
	// Explored is the number of states discovered before the watermark.
	Explored int
	// EstimatedBytes is the resident-size estimate that tripped.
	EstimatedBytes int64
	// Limit is the configured watermark.
	Limit int64
}

// Error describes the exceeded watermark.
func (e *MemoryError) Error() string {
	return fmt.Sprintf("%v (explored %d states, ~%d bytes resident, limit %d)",
		ErrMemoryLimit, e.Explored, e.EstimatedBytes, e.Limit)
}

// Is makes errors.Is(err, ErrMemoryLimit) hold.
func (e *MemoryError) Is(target error) bool { return target == ErrMemoryLimit }

// ErrDeadline is returned when exploration exceeds its wall-clock
// budget.
var ErrDeadline = errors.New("wall-clock deadline exceeded during LTS exploration")

// DeadlineError is the concrete error returned when exploration runs
// past Options.MaxDuration. It matches ErrDeadline under errors.Is and
// carries the partial exploration size.
type DeadlineError struct {
	// Explored is the number of states discovered before the deadline.
	Explored int
	// Limit is the configured wall-clock budget.
	Limit time.Duration
}

// Error describes the exceeded deadline.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("%v (explored %d states, limit %v)", ErrDeadline, e.Explored, e.Limit)
}

// Is makes errors.Is(err, ErrDeadline) hold.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// CanceledError is the concrete error returned when exploration is
// aborted by Options.Ctx. It unwraps to the context's error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) both work, and carries the partial
// exploration size like the other budget errors.
type CanceledError struct {
	// Explored is the number of states discovered before the abort.
	Explored int
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error describes the aborted exploration.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("LTS exploration canceled: %v (explored %d states)", e.Cause, e.Explored)
}

// Unwrap exposes the context error to errors.Is.
func (e *CanceledError) Unwrap() error { return e.Cause }

// DefaultMaxStates is the exploration bound used when Options.MaxStates
// is zero.
const DefaultMaxStates = 1 << 20

// ltsStateOverhead approximates the per-state resident cost of the LTS
// under construction: the state's node ID and its Edges slice header.
const ltsStateOverhead = 32

// ltsEdgeBytes is the resident cost of one Edge.
const ltsEdgeBytes = 16

// eventEntryOverhead approximates the per-entry resident cost of the
// event-intern table beyond the rendered key bytes: the Events slice
// slot, the eventIDs map entry and the compiled-event index entry.
const eventEntryOverhead = 104

const maxEdgeChunk = 4096 // cap on the Edge chunks edge lists come from

// Explore builds the LTS reachable from root under the given semantics.
//
// Exploration is a sequential BFS over compiled semantics (see
// compile.go): states are interned TermIDs, and each state's
// transitions are combined from its components' memoized transition
// lists. States are numbered in discovery order and event IDs assigned
// in order of first appearance on an edge.
func Explore(sem *csp.Semantics, root csp.Process, opts Options) (*LTS, error) {
	return explore(sem, root, opts)
}

type exploration struct {
	c         *compiler
	l         *LTS
	edgeBuf   []Edge
	maxStates int
	ltsBytes  int64

	// The cooperative stop conditions: cancellation and the wall-clock
	// budget counted from start.
	ctx    context.Context
	maxDur time.Duration
	start  time.Time
}

func explore(src transitionSource, root csp.Process, opts Options) (lts *LTS, err error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	// Instrumentation: all handles are nil-safe no-ops when opts.Obs is
	// nil, and all updates happen per level, never per state, so the hot
	// loop is untouched.
	span := opts.Obs.StartSpan("lts.explore")
	statesC := opts.Obs.Counter("lts.explore.states")
	transC := opts.Obs.Counter("lts.explore.transitions")
	levelsC := opts.Obs.Counter("lts.explore.levels")
	hitsC := opts.Obs.Counter("lts.explore.memo.hits")
	missesC := opts.Obs.Counter("lts.explore.memo.misses")
	frontierG := opts.Obs.Gauge("lts.explore.frontier")
	nodesG := opts.Obs.Gauge("lts.explore.nodes")
	prog := opts.Obs.Progress("lts.explore")
	defer func() {
		explored := int64(0)
		if lts != nil {
			explored = int64(lts.NumStates())
		}
		outcome := "ok"
		var ce *CanceledError
		switch {
		case errors.Is(err, ErrStateLimit):
			outcome = "state-limit"
		case errors.Is(err, ErrDeadline):
			outcome = "deadline"
		case errors.Is(err, ErrMemoryLimit):
			outcome = "memory-limit"
		case errors.As(err, &ce):
			outcome = "canceled"
		case err != nil:
			outcome = "error"
		}
		span.End(obs.Int("states", explored), obs.String("outcome", outcome))
	}()
	c := newCompiler(src)
	e := &exploration{
		c:         c,
		l:         &LTS{Events: []csp.Event{csp.Tau(), csp.Tick()}, c: c, eventIDs: map[string]int{}},
		maxStates: maxStates,
		ctx:       opts.Ctx,
		maxDur:    opts.MaxDuration,
		start:     time.Now(),
	}
	var ck *checkpointer
	merged := 0
	levels := 0
	if opts.Checkpoint != nil && opts.Checkpoint.Dir != "" {
		ck = newCheckpointer(opts.Checkpoint, maxStates, opts.Obs)
		if rs, ok := ck.load(root); ok {
			// Register every snapshot state in state order — the snapshot
			// was validated (including duplicate-term detection) against a
			// throwaway interner, so these adds cannot fail or collide.
			for _, p := range rs.procs {
				if _, err := e.add(e.c.intern(p)); err != nil {
					return nil, err
				}
			}
			e.l.Init = rs.Init
			for i, edges := range rs.Edges[:rs.Merged] {
				e.l.Edges[i] = edges
				e.ltsBytes += int64(len(edges)) * ltsEdgeBytes
			}
			for _, ev := range rs.events {
				e.eventID(e.c.event(ev))
			}
			merged = rs.Merged
			levels = rs.Levels
			// Wall clock spent before the crash counts against the
			// deadline budget: a crash must never extend a deadline.
			e.start = e.start.Add(-time.Duration(rs.ElapsedNs))
			statesC.Add(int64(len(e.l.states)))
		}
	}
	if len(e.l.states) == 0 {
		rootID, err := e.add(e.c.intern(root))
		if err != nil {
			return nil, err
		}
		e.l.Init = rootID
		statesC.Inc() // the root
	}

	// Level boundaries fall where merged reaches the number of states
	// known when the level began, so per-level metrics, the memory
	// watermark and checkpoint cadence are level-granular.
	levelEnd, levelStart, levelEdges := merged, len(e.l.states), 0
	var flushedHits, flushedMisses int64
	endLevel := func() {
		statesC.Add(int64(len(e.l.states) - levelStart))
		transC.Add(int64(levelEdges))
		hitsC.Add(e.c.hits - flushedHits)
		missesC.Add(e.c.misses - flushedMisses)
		flushedHits, flushedMisses = e.c.hits, e.c.misses
		nodesG.Max(int64(e.c.in.Len()))
		prog.Tick(int64(len(e.l.states)), obs.Int("frontier", int64(len(e.l.states)-merged)))
		levels++
		if ck != nil && levels%ck.every == 0 {
			ck.write(e.l, merged, levels, time.Since(e.start))
		}
	}
	first := true
	for merged < len(e.l.states) {
		if merged == levelEnd {
			if !first {
				endLevel()
			}
			first = false
			levelsC.Inc()
			frontierG.Max(int64(len(e.l.states) - merged))
			if opts.MaxMemBytes > 0 {
				est := e.c.in.Bytes() + e.ltsBytes + e.c.bytes()
				if est > opts.MaxMemBytes {
					return nil, &MemoryError{Explored: len(e.l.states), EstimatedBytes: est, Limit: opts.MaxMemBytes}
				}
			}
			levelEnd, levelStart, levelEdges = len(e.l.states), len(e.l.states), 0
		}
		// Probing the stop conditions before every expansion bounds
		// deadline overshoot and cancellation latency to one state.
		if err := e.check(); err != nil {
			return nil, err
		}
		trs, err := e.expand(merged)
		if err != nil {
			return nil, err
		}
		edges := e.edges(len(trs))
		for i, t := range trs {
			to, err := e.add(t.To)
			if err != nil {
				return nil, err
			}
			edges[i] = Edge{Ev: e.eventID(t.Ev), To: to}
		}
		e.l.Edges[merged] = edges
		e.ltsBytes += int64(len(edges)) * ltsEdgeBytes
		levelEdges += len(edges)
		merged++
	}
	if !first {
		endLevel()
	}
	if ck != nil {
		// Final snapshot with a fully-merged frontier: a crash after the
		// exploration finished resumes instantly instead of re-exploring.
		ck.write(e.l, merged, levels, time.Since(e.start))
	}
	prog.Flush(int64(len(e.l.states)))
	e.l.c = c.records(e.l.states)
	return e.l, nil
}

// add makes a term a state, enforcing the exact bound: a state beyond
// MaxStates is never materialised, so LimitError.Explored <= Limit.
func (e *exploration) add(tid csp.TermID) (int, error) {
	n := &e.c.nodes[tid]
	if n.state > 0 {
		return int(n.state - 1), nil
	}
	if len(e.l.states) >= e.maxStates {
		return 0, &LimitError{Explored: len(e.l.states), Limit: e.maxStates}
	}
	id := len(e.l.states)
	n.state = int32(id + 1)
	e.l.states = append(e.l.states, tid)
	e.l.Edges = append(e.l.Edges, nil)
	e.ltsBytes += ltsStateOverhead
	return id, nil
}

// eventID maps a compiled event ID to its LTS event ID, assigning LTS
// IDs in order of first appearance on an edge. The canonical string is
// rendered once per event (for the public EventID lookup API) and is
// part of the resident-size estimate.
func (e *exploration) eventID(ev int32) int {
	if id := e.c.ltsID[ev]; id != 0 {
		return int(id - 1)
	}
	id := len(e.l.Events)
	evt := e.c.events[ev]
	e.l.Events = append(e.l.Events, evt)
	k := evt.String()
	e.l.eventIDs[k] = id
	e.c.ltsID[ev] = int32(id + 1)
	e.ltsBytes += int64(len(k)) + eventEntryOverhead
	return id
}

// edges carves a non-nil n-edge list (nil marks an unexpanded state in
// checkpoints) from a chunk sized to the exploration so far.
func (e *exploration) edges(n int) []Edge {
	if len(e.edgeBuf) < n || e.edgeBuf == nil {
		e.edgeBuf = make([]Edge, max(n, min(maxEdgeChunk, 4*len(e.l.states))))
	}
	out := e.edgeBuf[:n:n]
	e.edgeBuf = e.edgeBuf[n:]
	return out
}

// expand returns the compiled transitions of state s, converting a
// panic in the semantics into an ordinary error naming the state — a
// long-lived server must survive a malformed term that a batch CLI
// would crash on. The key render on the error path is the only place
// exploration builds a canonical string.
func (e *exploration) expand(s int) (trs []Step, err error) {
	defer func() {
		if r := recover(); r != nil {
			trs = nil
			err = fmt.Errorf("state %q: panic during transition evaluation: %v", e.l.Key(s), r)
		}
	}()
	trs, err = e.c.trans(e.l.states[s])
	if err != nil {
		return nil, fmt.Errorf("state %q: %w", e.l.Key(s), err)
	}
	return trs, nil
}

// check returns the typed stop error if a stop condition has fired,
// with the states discovered so far as the partial exploration size.
func (e *exploration) check() error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return &CanceledError{Explored: len(e.l.states), Cause: err}
		}
	}
	if e.maxDur > 0 && time.Since(e.start) > e.maxDur {
		return &DeadlineError{Explored: len(e.l.states), Limit: e.maxDur}
	}
	return nil
}

// EventByID returns the event with the given label ID.
func (l *LTS) EventByID(id int) csp.Event { return l.Events[id] }

// EventID looks up the label ID for a visible event; ok is false if the
// event never occurs in the LTS.
func (l *LTS) EventID(e csp.Event) (int, bool) {
	switch {
	case e.IsTau():
		return TauID, true
	case e.IsTick():
		return TickID, true
	}
	id, ok := l.eventIDs[e.String()]
	return id, ok
}

// NumStates returns the number of explored states.
func (l *LTS) NumStates() int { return len(l.states) }

// NumTransitions returns the total number of edges.
func (l *LTS) NumTransitions() int {
	n := 0
	for _, es := range l.Edges {
		n += len(es)
	}
	return n
}

// IsStable reports whether the state has no outgoing tau transitions.
func (l *LTS) IsStable(id int) bool {
	for _, e := range l.Edges[id] {
		if e.Ev == TauID {
			return false
		}
	}
	return true
}

// Initials returns the sorted set of non-tau label IDs offered by the
// state (tick included).
func (l *LTS) Initials(id int) []int {
	var out []int
	for _, e := range l.Edges[id] {
		if e.Ev != TauID {
			out = append(out, e.Ev)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TauClosure returns the sorted set of states reachable from the given
// states via tau transitions only (including the states themselves).
func (l *LTS) TauClosure(states []int) []int {
	seen := make(map[int]bool, len(states))
	out := make([]int, 0, len(states))
	stack := append([]int(nil), states...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
		for _, e := range l.Edges[s] {
			if e.Ev == TauID && !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	slices.Sort(out)
	return out
}

// HasTauCycle reports whether a cycle consisting solely of tau
// transitions is reachable, i.e. the process can diverge. The witness is
// the index of a state on the cycle, or -1.
func (l *LTS) HasTauCycle() (bool, int) {
	// Iterative DFS over tau edges, one edge per step; colour 1 marks
	// the states on the current path, 2 the finished ones.
	colour := make([]byte, len(l.states))
	type frame struct{ state, next int }
	for start := range colour {
		if colour[start] != 0 {
			continue
		}
		colour[start] = 1
		stack := []frame{{state: start}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == len(l.Edges[f.state]) {
				colour[f.state] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			e := l.Edges[f.state][f.next]
			f.next++
			if e.Ev != TauID {
				continue
			}
			switch colour[e.To] {
			case 1:
				return true, e.To
			case 0:
				colour[e.To] = 1
				stack = append(stack, frame{state: e.To})
			}
		}
	}
	return false, -1
}
