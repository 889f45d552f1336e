package lts

import (
	"fmt"
	"slices"

	"repro/internal/csp"
)

// Compiled semantics. Exploration does not re-derive a product state's
// transitions from its syntax tree; it memoizes the transitions of every
// interned process node, once, as (event ID, TermID) runs in one arena.
// Operators whose transitions are a function of their children's —
// parallel, hiding, renaming, external choice and sequential
// composition — combine the children's memoized runs and intern each
// successor straight from child IDs. Every other node (prefix, call,
// conditional, internal choice, STOP, SKIP, Ω) is a leaf: its
// transitions come from the operational semantics, evaluated once per
// distinct term.
//
// Each combinator emits exactly the transitions, in exactly the order,
// that csp.Semantics computes for the whole term, so the LTS is
// byte-identical to the reference engine's. The memo lives and dies
// with one Explore call, or with one Compiled, and is single-threaded.

// Compiled is the compiled semantics as a standalone memo, for checkers
// that walk process terms on the fly instead of building an LTS
// (refine.AcceptsTrace). It has its own interner, so its TermIDs and
// event IDs mean nothing to any other memo.
type Compiled struct{ c *compiler }

// Compile returns an empty memo over sem.
func Compile(sem *csp.Semantics) *Compiled {
	return &Compiled{newCompiler(sem)}
}

// Intern returns the TermID of a process term.
func (m *Compiled) Intern(p csp.Process) csp.TermID { return m.c.intern(p) }

// Event returns the compiled ID of an event: the ID of every Step that
// performs it. Interned identity matches csp.Event.Equal.
func (m *Compiled) Event(ev csp.Event) int32 { return m.c.event(ev) }

// EventOf returns the event with compiled ID id.
func (m *Compiled) EventOf(id int32) csp.Event { return m.c.events[id] }

// Steps returns the transitions of a TermID from Intern or a Step, in
// csp.Semantics order, computing them on first use; the slice is shared
// and must not be modified. An evaluation error names the term by Key().
func (m *Compiled) Steps(id csp.TermID) ([]Step, error) {
	steps, err := m.c.trans(id)
	if err != nil {
		return nil, fmt.Errorf("transitions of %s: %w", m.c.proc(id).Key(), err)
	}
	return steps, nil
}

// Memo reports how many transition lookups hit the memo and missed it.
func (m *Compiled) Memo() (hits, misses int64) { return m.c.hits, m.c.misses }

// transitionSource evaluates leaf terms. *csp.Semantics is the
// production implementation; tests substitute failing or panicking fakes.
type transitionSource interface {
	Transitions(p csp.Process) ([]csp.Transition, error)
}

// Node operators of the compiled form.
const (
	opUnseen uint8 = iota // interned, but not (yet) a known process node
	opLeaf
	opPar
	opHide
	opRename
	opExt
	opSeq
)

// Step is one memoized transition: a compiled event ID (TauID, TickID,
// or a dense visible-event ID) and the successor's TermID.
type Step struct {
	Ev int32
	To csp.TermID
}

// cnode is the compiled form of one interned process node, indexed by
// its TermID. A composite node is its (op, a, b, aux) record alone; a
// leaf's aux indexes its term, which the operational semantics
// evaluates. Its memoized transitions are arena[off : off+n] once
// computed; arena[0] is reserved, so off == 0 means not yet.
type cnode struct {
	off   uint32
	n     uint32
	a, b  csp.TermID // children: [| |], [] and ; use both; \ and [[ ]] use a
	aux   int32      // the node's event-set or renaming memo, or a leaf's term
	state int32      // state ID + 1; 0 when the node is not a state
	op    uint8
}

// evMemo is an interned event set or renaming. For a set, in caches
// membership per compiled event ID: 0 unknown, 1 absent, 2 present.
type evMemo struct {
	tid csp.TermID
	set *csp.EventSet
	m   map[string]string
	in  []int8
}

// compiler holds the memo of one exploration.
type compiler struct {
	leaf   transitionSource
	in     *csp.Interner
	nodes  []cnode
	leaves []csp.Process // leaf terms, by cnode.aux
	arena  []Step

	events  []csp.Event // compiled event ID -> event
	ltsID   []int32     // compiled event ID -> LTS event ID + 1, 0 until on an edge
	eventOf map[csp.TermID]int32

	memos  []evMemo
	memoOf map[csp.TermID]int32

	omega csp.TermID

	// syncHead/syncNext index the right child's synchronising
	// transitions by event ID while a parallel node is combined. Between
	// uses every syncHead entry is -1.
	syncHead []int32
	syncNext []int32

	hits, misses int64
}

func newCompiler(leaf transitionSource) *compiler {
	c := &compiler{
		leaf:    leaf,
		in:      csp.NewInterner(),
		events:  []csp.Event{csp.Tau(), csp.Tick()},
		ltsID:   []int32{TauID + 1, TickID + 1},
		eventOf: map[csp.TermID]int32{},
		memoOf:  map[csp.TermID]int32{},
		arena:   make([]Step, 1),
	}
	c.omega = c.intern(csp.OmegaProc{})
	return c
}

// bytes estimates the memo's resident size: 28 bytes per node-table
// slot (a cnode), ~64 per leaf term (its slot and boxed term), 8 per
// arena transition, and the set caches.
func (c *compiler) bytes() int64 {
	b := int64(len(c.nodes))*28 + int64(len(c.leaves))*64 + int64(cap(c.arena))*8
	for i := range c.memos {
		b += int64(len(c.memos[i].in))
	}
	return b
}

// intern registers a process term and every composite node inside it,
// returning its TermID. Children, sets and mappings are interned (Go
// evaluates call arguments left to right) in the order
// csp.Interner.Process visits them.
func (c *compiler) intern(p csp.Process) csp.TermID {
	switch x := p.(type) {
	case csp.ParProc:
		return c.node(opPar, c.intern(x.L), c.intern(x.R), c.memo(c.in.EventSet(x.Sync), x.Sync, nil))
	case csp.HideProc:
		return c.node(opHide, c.intern(x.P), 0, c.memo(c.in.EventSet(x.Set), x.Set, nil))
	case csp.RenameProc:
		return c.node(opRename, c.intern(x.P), 0, c.memo(c.in.Mapping(x.Mapping), nil, x.Mapping))
	case csp.ExtChoiceProc:
		return c.node(opExt, c.intern(x.L), c.intern(x.R), 0)
	case csp.SeqProc:
		return c.node(opSeq, c.intern(x.L), c.intern(x.R), 0)
	}
	id := c.in.Process(p)
	if c.fresh(id) {
		c.nodes[id] = cnode{op: opLeaf, aux: int32(len(c.leaves))}
		c.leaves = append(c.leaves, p)
	}
	return id
}

// node interns the composite node op(a, b) straight from child IDs, with
// the interner's own encoding, and registers its record when new.
func (c *compiler) node(op uint8, a, b csp.TermID, aux int32) csp.TermID {
	var id csp.TermID
	switch op {
	case opPar:
		id = c.in.Par(a, b, c.memos[aux].tid)
	case opHide:
		id = c.in.Hide(a, c.memos[aux].tid)
	case opRename:
		id = c.in.Rename(a, c.memos[aux].tid)
	case opExt:
		id = c.in.ExtChoice(a, b)
	default:
		id = c.in.Seq(a, b)
	}
	if c.fresh(id) {
		c.nodes[id] = cnode{op: op, a: a, b: b, aux: aux}
	}
	return id
}

// proc rebuilds the term of process node id from the node records: a
// leaf's term is kept in leaves, and a composite's is assembled from its
// children's. It only reads the records, so a finished LTS may render
// keys from many goroutines.
func (c *compiler) proc(id csp.TermID) csp.Process {
	n := &c.nodes[id]
	switch n.op {
	case opPar:
		return csp.ParProc{L: c.proc(n.a), R: c.proc(n.b), Sync: c.memos[n.aux].set}
	case opHide:
		return csp.HideProc{P: c.proc(n.a), Set: c.memos[n.aux].set}
	case opRename:
		return csp.RenameProc{P: c.proc(n.a), Mapping: c.memos[n.aux].m}
	case opExt:
		return csp.ExtChoiceProc{L: c.proc(n.a), R: c.proc(n.b)}
	case opSeq:
		return csp.SeqProc{L: c.proc(n.a), R: c.proc(n.b)}
	}
	return c.leaves[n.aux]
}

// records returns what a finished LTS keeps of the compiler, and
// renumbers the states into it: the records of the nodes the states
// reach, with their leaf terms, and the set and mapping memos — what
// proc rebuilds terms from — and the Ω node. The interner's index, the
// transition arena, the event tables and every node no state reaches
// are left behind.
func (c *compiler) records(states []csp.TermID) *compiler {
	kept := &compiler{memos: c.memos}
	newID := make([]csp.TermID, len(c.nodes)) // kept ID + 1; 0 until kept
	var keep func(id csp.TermID) csp.TermID
	keep = func(id csp.TermID) csp.TermID {
		if newID[id] == 0 {
			n := c.nodes[id]
			switch n.op {
			case opPar, opExt, opSeq:
				n.a, n.b = keep(n.a), keep(n.b)
			case opHide, opRename:
				n.a = keep(n.a)
			case opLeaf:
				kept.leaves = append(kept.leaves, c.leaves[n.aux])
				n.aux = int32(len(kept.leaves) - 1)
			}
			kept.nodes = append(kept.nodes, n)
			newID[id] = csp.TermID(len(kept.nodes))
		}
		return newID[id] - 1
	}
	for i, s := range states {
		states[i] = keep(s)
	}
	kept.omega = keep(c.omega)
	kept.nodes, kept.leaves = slices.Clone(kept.nodes), slices.Clone(kept.leaves)
	return kept
}

// fresh grows the node table to cover id and reports whether id is not
// yet a known process node.
func (c *compiler) fresh(id csp.TermID) bool {
	if int(id) >= len(c.nodes) {
		grown := make([]cnode, max(c.in.Len(), 2*len(c.nodes)))
		copy(grown, c.nodes)
		c.nodes = grown
	}
	return c.nodes[id].op == opUnseen
}

// event returns the compiled ID of an event.
func (c *compiler) event(ev csp.Event) int32 {
	switch {
	case ev.IsTau():
		return TauID
	case ev.IsTick():
		return TickID
	}
	tid := c.in.Event(ev)
	if id, ok := c.eventOf[tid]; ok {
		return id
	}
	id := int32(len(c.events))
	c.events = append(c.events, ev)
	c.ltsID = append(c.ltsID, 0)
	c.eventOf[tid] = id
	return id
}

// memo returns the index of the event memo of the set or mapping
// interned as tid.
func (c *compiler) memo(tid csp.TermID, set *csp.EventSet, m map[string]string) int32 {
	if i, ok := c.memoOf[tid]; ok {
		return i
	}
	i := int32(len(c.memos))
	c.memos = append(c.memos, evMemo{tid: tid, set: set, m: m})
	c.memoOf[tid] = i
	return i
}

// inSet reports whether compiled event ev is in event set memo s.
func (c *compiler) inSet(s, ev int32) bool {
	m := &c.memos[s]
	if int(ev) >= len(m.in) {
		m.in = append(m.in, make([]int8, len(c.events)-len(m.in))...)
	}
	if m.in[ev] == 0 {
		m.in[ev] = 1
		if m.set.Contains(c.events[ev]) {
			m.in[ev] = 2
		}
	}
	return m.in[ev] == 2
}

// renamed returns the image of compiled event ev under renaming memo m.
// A renaming node's run is computed once, so this is not cached.
func (c *compiler) renamed(m, ev int32) int32 {
	e := c.events[ev]
	if to, ok := c.memos[m].m[e.Chan]; ok && ev > TickID {
		return c.event(csp.Event{Chan: to, Args: e.Args})
	}
	return ev
}

// trans returns the memoized transitions of process node id, computing
// them on first use. The returned slice is shared and must not be
// modified.
func (c *compiler) trans(id csp.TermID) ([]Step, error) {
	if n := &c.nodes[id]; n.off != 0 {
		c.hits++
		return c.arena[n.off : n.off+n.n : n.off+n.n], nil
	}
	c.misses++
	n := c.nodes[id]
	// Children are computed before this node's run starts, so the run is
	// contiguous; their runs stay valid when the arena grows.
	var lt, rt []Step
	var err error
	if n.op != opLeaf {
		if lt, err = c.trans(n.a); err != nil {
			return nil, err
		}
	}
	if n.op == opPar || n.op == opExt {
		if rt, err = c.trans(n.b); err != nil {
			return nil, err
		}
	}
	off := uint32(len(c.arena))
	switch n.op {
	case opPar:
		c.parTrans(n, lt, rt)
	case opHide:
		for _, t := range lt {
			switch {
			case t.Ev == TickID:
				c.emit(TickID, c.omega)
			case c.inSet(n.aux, t.Ev):
				c.emit(TauID, c.node(opHide, t.To, 0, n.aux))
			default:
				c.emit(t.Ev, c.node(opHide, t.To, 0, n.aux))
			}
		}
	case opRename:
		for _, t := range lt {
			if t.Ev == TickID {
				c.emit(TickID, c.omega)
			} else {
				c.emit(c.renamed(n.aux, t.Ev), c.node(opRename, t.To, 0, n.aux))
			}
		}
	case opExt:
		// Tau does not resolve external choice; every other move keeps
		// the chosen branch's successor.
		for _, t := range lt {
			if t.Ev == TauID {
				t.To = c.node(opExt, t.To, n.b, 0)
			}
			c.arena = append(c.arena, t)
		}
		for _, t := range rt {
			if t.Ev == TauID {
				t.To = c.node(opExt, n.a, t.To, 0)
			}
			c.arena = append(c.arena, t)
		}
	case opSeq:
		// Termination of the first component is internal to P;Q.
		for _, t := range lt {
			if t.Ev == TickID {
				c.emit(TauID, n.b)
			} else {
				c.emit(t.Ev, c.node(opSeq, t.To, n.b, 0))
			}
		}
	default:
		trs, err := c.leaf.Transitions(c.leaves[n.aux])
		if err != nil {
			return nil, err
		}
		for _, tr := range trs {
			c.emit(c.event(tr.Ev), c.intern(tr.To))
		}
	}
	end := uint32(len(c.arena))
	m := &c.nodes[id]
	m.off, m.n = off, end-off
	return c.arena[off:end:end], nil
}

func (c *compiler) emit(ev int32, to csp.TermID) {
	c.arena = append(c.arena, Step{Ev: ev, To: to})
}

// parTrans mirrors csp's parTransitions: unsynchronised moves of the
// left then the right component, then synchronised pairs in left-major
// order — matched through an event-ID index over the right component —
// then distributed termination.
func (c *compiler) parTrans(n cnode, lt, rt []Step) {
	s := n.aux
	leftTick, rightTick, sync := false, false, false
	for _, t := range lt {
		switch {
		case t.Ev == TickID:
			leftTick = true
		case t.Ev == TauID || !c.inSet(s, t.Ev):
			c.emit(t.Ev, c.node(opPar, t.To, n.b, s))
		default:
			sync = true
		}
	}
	for _, t := range rt {
		switch {
		case t.Ev == TickID:
			rightTick = true
		case t.Ev == TauID || !c.inSet(s, t.Ev):
			c.emit(t.Ev, c.node(opPar, n.a, t.To, s))
		}
	}
	if sync {
		for len(c.syncHead) < len(c.events) {
			c.syncHead = append(c.syncHead, -1)
		}
		if cap(c.syncNext) < len(rt) {
			c.syncNext = make([]int32, len(rt))
		}
		head, next := c.syncHead, c.syncNext[:len(rt)]
		for j := len(rt) - 1; j >= 0; j-- {
			if ev := rt[j].Ev; ev > TickID && c.inSet(s, ev) {
				next[j], head[ev] = head[ev], int32(j)
			}
		}
		for _, t := range lt {
			if t.Ev > TickID && c.inSet(s, t.Ev) {
				for j := head[t.Ev]; j >= 0; j = next[j] {
					c.emit(t.Ev, c.node(opPar, t.To, rt[j].To, s))
				}
			}
		}
		for _, t := range rt {
			if t.Ev > TickID {
				head[t.Ev] = -1
			}
		}
	}
	if leftTick && rightTick {
		c.emit(TickID, c.omega)
	}
}
