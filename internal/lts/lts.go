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

	states []csp.TermID // state ID -> node ID
	c      *compiler    // the node records; after Explore, only those Key needs
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
	// Ctx, when non-nil, is the exploration's one stop signal: the BFS
	// polls it before every state expansion, so a cancelled request (a
	// disconnected client, a fired per-request deadline) or a spent
	// wall-clock budget (a deadline with cause ErrDeadline) aborts
	// mid-level with a *CanceledError. nil means no cancellation, the
	// batch-CLI default. A resumed exploration shortens a deadline of
	// Ctx by the wall-clock time its snapshot already spent, with cause
	// ErrDeadline, so a crash cannot extend a deadline.
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

// ErrDeadline is the cause a wall-clock budget's context is cancelled
// with (context.WithTimeoutCause), so a spent budget can be told apart
// from a cancelled or timed-out request.
var ErrDeadline = errors.New("wall-clock budget exhausted")

// CanceledError is the concrete error returned when exploration is
// stopped by Options.Ctx. It unwraps to the context's cause, so
// errors.Is(err, context.Canceled), errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, ErrDeadline) work, and
// carries the partial exploration size like the other budget errors.
type CanceledError struct {
	// Explored is the number of states discovered before the abort.
	Explored int
	// Cause is context.Cause of the context: context.Canceled,
	// context.DeadlineExceeded, or ErrDeadline for a wall-clock budget.
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

// eventEntryOverhead approximates the per-event resident cost of the
// event tables: the Events slot (40 B) and the compiler's event slot
// (40 B), ltsID entry (4 B) and eventOf map entry (~16 B).
const eventEntryOverhead = 100

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

	// ctx is the stop signal. start is when the exploration began,
	// moved back by a restored snapshot's elapsed time; snapshots record
	// the time since.
	ctx   context.Context
	start time.Time
}

func explore(src transitionSource, root csp.Process, opts Options) (*LTS, error) {
	c := newCompiler(src)
	defer c.release()
	return c.explore(root, opts)
}

// explore builds the LTS reachable from root over c, which must be
// fresh or reset.
func (c *compiler) explore(root csp.Process, opts Options) (lts *LTS, err error) {
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
	compositeG := opts.Obs.Gauge("lts.explore.nodes.composite")
	leafG := opts.Obs.Gauge("lts.explore.nodes.leaf")
	prog := opts.Obs.Progress("lts.explore")
	// The interned nodes at the last level end, split by index: composite
	// nodes (the fixed-width table) and leaves (the byte-keyed map).
	var composites, leaves int64
	defer func() {
		if span == nil {
			return
		}
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
		span.End(obs.Int("states", explored), obs.String("outcome", outcome),
			obs.Int("nodes.composite", composites), obs.Int("nodes.leaf", leaves),
			obs.Bool("memo.reused", c.reused))
	}()
	e := &exploration{
		c:         c,
		l:         &LTS{Events: []csp.Event{csp.Tau(), csp.Tick()}, c: c},
		maxStates: maxStates,
		ctx:       opts.Ctx,
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
			// deadline: a crash must never extend it.
			spent := time.Duration(rs.ElapsedNs)
			e.start = e.start.Add(-spent)
			if e.ctx != nil && spent > 0 {
				if dl, ok := e.ctx.Deadline(); ok {
					var cancel context.CancelFunc
					e.ctx, cancel = context.WithDeadlineCause(e.ctx, dl.Add(-spent), ErrDeadline)
					defer cancel()
				}
			}
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
		composites = int64(e.c.in.Composites())
		leaves = int64(e.c.in.Len()) - composites
		compositeG.Max(composites)
		leafG.Max(leaves)
		if prog != nil { // the attribute would allocate
			prog.Tick(int64(len(e.l.states)), obs.Int("frontier", int64(len(e.l.states)-merged)))
		}
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
		// Probing the stop signal before every expansion bounds deadline
		// overshoot and cancellation latency to one state.
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
// IDs in order of first appearance on an edge.
func (e *exploration) eventID(ev int32) int {
	if id := e.c.ltsID[ev]; id != 0 {
		return int(id - 1)
	}
	id := len(e.l.Events)
	e.l.Events = append(e.l.Events, e.c.events[ev])
	e.c.ltsID[ev] = int32(id + 1)
	e.ltsBytes += eventEntryOverhead
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

// check returns the typed stop error if the stop signal has fired,
// with the states discovered so far as the partial exploration size.
func (e *exploration) check() error {
	if e.ctx == nil {
		return nil
	}
	err := e.ctx.Err()
	if err == nil {
		return nil
	}
	// A context type of the caller's own may report no cause.
	if cause := context.Cause(e.ctx); cause != nil {
		err = cause
	}
	return &CanceledError{Explored: len(e.l.states), Cause: err}
}

// EventByID returns the event with the given label ID.
func (l *LTS) EventByID(id int) csp.Event { return l.Events[id] }

// EventID looks up the label ID of an event by csp.Event.Equal, with a
// linear scan of Events; ok is false if the event never occurs in the
// LTS.
func (l *LTS) EventID(e csp.Event) (int, bool) {
	for id, ev := range l.Events {
		if ev.Equal(e) {
			return id, true
		}
	}
	return 0, false
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
