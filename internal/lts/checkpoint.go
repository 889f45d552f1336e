package lts

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/statestore"
)

// CheckpointOptions configures level-granular checkpointing of an
// exploration. After every EveryLevels completed BFS levels (and once
// more on completion), Explore writes an atomic snapshot of the partial
// LTS — the exploration's node table, the node IDs of its states and
// events, edges, merge position, elapsed budget — to Dir. A later Explore with the same root and bound finds the
// snapshot, restores it and continues from the saved position; the
// sequential interning merge makes the resumed result byte-identical to
// an uninterrupted run.
type CheckpointOptions struct {
	// Dir is the checkpoint directory (created if missing). One
	// exploration per directory: the snapshot is keyed by root term and
	// state bound, and a mismatched snapshot is ignored, not merged.
	Dir string
	// EveryLevels is the checkpoint cadence in completed BFS levels;
	// <= 0 means 1 (checkpoint after every level).
	EveryLevels int
}

// checkpointFile is the snapshot name inside CheckpointOptions.Dir.
const checkpointFile = "checkpoint.json"

// snapshotVersion guards the snapshot schema; a version bump makes old
// snapshots invalid (ignored, re-explored) instead of misread. Version
// 3 persists the interner's node table (csp.DecodeNodes reads it back)
// with states and events as node IDs into it, replacing version 2's
// separately encoded JSON term tree per state and event. The node
// encoding is pinned by a golden test in internal/csp: changing it must
// bump this version.
const snapshotVersion = 3

// snapshot is the on-disk checkpoint document. The digest covers the
// JSON encoding of every other field, so a torn or hand-edited file is
// detected and ignored rather than resumed into a corrupt LTS. There is
// no root field: a snapshot belongs to the exploration whose root term
// interns to the same node as its Init state.
type snapshot struct {
	Version   int `json:"version"`
	MaxStates int `json:"maxStates"`
	// Levels is the number of completed BFS levels.
	Levels int `json:"levels"`
	// ElapsedNs is exploration wall-clock already spent, restored into
	// the MaxDuration budget so a crash cannot extend a deadline.
	ElapsedNs int64 `json:"elapsedNs"`

	Init int `json:"init"`
	// Merged is the number of leading states whose edges are final;
	// states [Merged, len(States)) are the unexpanded frontier.
	Merged int `json:"merged"`
	// Nodes is the exploration's node table: Nodes[i] is the interner
	// key of node i, covering every term and subterm of the states and
	// events below.
	Nodes [][]byte `json:"nodes"`
	// States holds the node ID of every state's term, in state-ID order.
	States []csp.TermID `json:"states"`
	// Events holds the node IDs of the visible events (LTS event IDs
	// >= 2; tau and tick are implicit).
	Events []csp.TermID `json:"events"`
	Edges  [][]Edge     `json:"edges"`

	Digest uint64 `json:"digest"`
}

// digest computes the FNV-64a digest of the snapshot's JSON encoding
// with the Digest field zeroed. Struct encoding is deterministic (no
// maps), so write and load sides agree byte-for-byte.
func (s *snapshot) digest() (uint64, error) {
	saved := s.Digest
	s.Digest = 0
	data, err := json.Marshal(s)
	s.Digest = saved
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// resumeState is a validated snapshot with its states' terms and its
// events decoded, ready for the engine to register into its live
// interner. Validation happens entirely against a throwaway interner
// inside load, so a snapshot rejected halfway leaves no residue in the
// exploration.
type resumeState struct {
	*snapshot
	procs  []csp.Process
	events []csp.Event
}

// checkpointer writes and restores exploration snapshots. All failure
// modes are soft: a checkpoint that cannot be written or parsed costs
// re-exploration, never a wrong result.
type checkpointer struct {
	dir       string
	every     int
	maxStates int

	writesC  *obs.Counter
	resumesC *obs.Counter
	ignoredC *obs.Counter
	errorsC  *obs.Counter
}

func newCheckpointer(opts *CheckpointOptions, maxStates int, o *obs.Observer) *checkpointer {
	every := opts.EveryLevels
	if every <= 0 {
		every = 1
	}
	return &checkpointer{
		dir:       opts.Dir,
		every:     every,
		maxStates: maxStates,
		writesC:   o.Counter("lts.checkpoint.writes"),
		resumesC:  o.Counter("lts.checkpoint.resumes"),
		ignoredC:  o.Counter("lts.checkpoint.ignored"),
		errorsC:   o.Counter("lts.checkpoint.errors"),
	}
}

// write snapshots the partial LTS of a running exploration after a
// completed level: its node table is the exploration's own interner's,
// and its states and events are node IDs into it. Errors are counted
// and swallowed: a failed checkpoint must not fail the check.
func (c *checkpointer) write(l *LTS, merged, levels int, elapsed time.Duration) {
	in := l.c.in
	events := make([]csp.TermID, len(l.Events)-2)
	for i, e := range l.Events[2:] {
		events[i] = in.Event(e) // already interned: a lookup
	}
	snap := snapshot{
		Version:   snapshotVersion,
		MaxStates: c.maxStates,
		Levels:    levels,
		ElapsedNs: int64(elapsed),
		Init:      l.Init,
		Merged:    merged,
		Nodes:     in.Keys(),
		States:    l.states,
		Events:    events,
		Edges:     l.Edges,
	}
	d, err := snap.digest()
	if err != nil {
		c.errorsC.Inc()
		return
	}
	snap.Digest = d
	data, err := json.Marshal(&snap)
	if err != nil {
		c.errorsC.Inc()
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.errorsC.Inc()
		return
	}
	if err := statestore.WriteFileAtomic(filepath.Join(c.dir, checkpointFile), data, 0o644); err != nil {
		c.errorsC.Inc()
		return
	}
	c.writesC.Inc()
}

// load restores and fully validates a snapshot of the exploration of
// root under the checkpointer's bound, or returns ok=false when no valid
// matching snapshot exists (missing, torn, wrong version, different
// root or bound — all of which simply mean "explore from scratch").
// States are decoded from the node table and checked for duplicates
// against a throwaway interner, so the engine can register the result
// into its own interner without re-validating.
func (c *checkpointer) load(root csp.Process) (*resumeState, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, checkpointFile))
	if err != nil {
		if !os.IsNotExist(err) {
			c.ignoredC.Inc()
		}
		return nil, false
	}
	rs, ok := c.decode(data, root)
	if !ok {
		c.ignoredC.Inc()
		return nil, false
	}
	c.resumesC.Inc()
	return rs, true
}

// decode validates a snapshot document against root and the bound.
func (c *checkpointer) decode(data []byte, root csp.Process) (*resumeState, bool) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, false
	}
	if snap.Version != snapshotVersion || snap.MaxStates != c.maxStates {
		return nil, false
	}
	if d, err := snap.digest(); err != nil || d != snap.Digest {
		return nil, false
	}
	// The digest covers the decoded content, and base64 decoding
	// ignores a key's unused low bits, so also require the file to be
	// exactly the encoding write produces: any changed byte is caught.
	if canon, err := json.Marshal(&snap); err != nil || !bytes.Equal(canon, data) {
		return nil, false
	}
	n := len(snap.States)
	if n == 0 || n > c.maxStates || len(snap.Edges) != n ||
		snap.Init < 0 || snap.Init >= n ||
		snap.Merged < 0 || snap.Merged > n {
		return nil, false
	}
	nodes, err := csp.DecodeNodes(snap.Nodes)
	if err != nil {
		return nil, false
	}
	rs := &resumeState{snapshot: &snap, procs: make([]csp.Process, 0, n)}
	// Two states (or events) with one term would corrupt interned
	// identity and the event numbering.
	check := csp.NewInterner()
	seen := make(map[csp.TermID]bool, n+len(snap.Events))
	for _, id := range snap.States {
		p, ok := nodes.Process(id)
		if !ok {
			return nil, false
		}
		tid := check.Process(p)
		if seen[tid] {
			return nil, false
		}
		seen[tid] = true
		rs.procs = append(rs.procs, p)
	}
	// Structural identity, not Key(): terms that render alike may differ.
	if check.Process(root) != check.Process(rs.procs[snap.Init]) {
		return nil, false
	}
	for _, id := range snap.Events {
		e, ok := nodes.Event(id)
		if !ok || !e.IsVisible() {
			return nil, false
		}
		tid := check.Event(e)
		if seen[tid] {
			return nil, false
		}
		seen[tid] = true
		rs.events = append(rs.events, e)
	}
	maxEv := 2 + len(rs.events)
	for id, edges := range snap.Edges {
		if id >= snap.Merged && len(edges) > 0 {
			return nil, false
		}
		for _, e := range edges {
			if e.Ev < 0 || e.Ev >= maxEv || e.To < 0 || e.To >= n {
				return nil, false
			}
		}
	}
	return rs, true
}
