package learn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/csp"
	"repro/internal/obs"
)

// FaultProfile selects the injection behaviour a membership run learns
// under, mirroring the fault kinds of the PR 1 campaign engine. Every
// profile is seeded per query word, so a teacher stays a deterministic
// function of the word — required for the learner to converge on
// anything at all.
type FaultProfile string

const (
	// ProfileNone runs an exact bus.
	ProfileNone FaultProfile = "none"
	// ProfileDrop loses ~30% of delivered frames.
	ProfileDrop FaultProfile = "drop"
	// ProfileCorrupt flips a payload bit in ~30% of frames (a
	// CRC-detectable wire error under error confinement).
	ProfileCorrupt FaultProfile = "corrupt"
	// ProfileTamper spoofs a low identifier bit in ~30% of frames,
	// evading CRC detection.
	ProfileTamper FaultProfile = "tamper"
	// ProfileDuplicate re-delivers ~30% of frames 200us later.
	ProfileDuplicate FaultProfile = "duplicate"
	// ProfileDelay holds ~30% of frames back by 2ms.
	ProfileDelay FaultProfile = "delay"
)

// Profiles lists the selectable fault profiles.
func Profiles() []FaultProfile {
	return []FaultProfile{ProfileNone, ProfileDrop, ProfileCorrupt, ProfileTamper, ProfileDuplicate, ProfileDelay}
}

// ParseProfile resolves a -profile flag value.
func ParseProfile(s string) (FaultProfile, error) {
	for _, p := range Profiles() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown fault profile %q (want none, drop, corrupt, tamper, duplicate or delay)", s)
}

// SimTeacherConfig configures a canoe-backed teacher.
type SimTeacherConfig struct {
	// NodeName and Source are the CAPL node under learning.
	NodeName string
	Source   string
	// Table projects delivered frames onto model events; it is built
	// from the CAN database shared with the extractor (for the OTA ECU,
	// ota.MessageRename with {VMG: send, ECU: rec}). Its events on
	// InChannel are the stimuli the learner injects; all others are the
	// node's responses.
	Table     *candb.Table
	InChannel string
	// Seed feeds the per-query fault randomness.
	Seed int64
	// Profile selects the injection behaviour (default none).
	Profile FaultProfile
	// MaxEventsPerQuery bounds one membership run (default 100_000).
	MaxEventsPerQuery int
	// Obs counts simulation runs (learn.sim.runs); nil disables.
	Obs *obs.Observer
}

// SimTeacher answers membership queries by running the node under
// learning on a fresh simulated bus: the word's input events become a
// stimulus schedule delivered one frame per quiescent bus (matching the
// translator's synchronous abstraction, where each handler's outputs
// are emitted atomically per stimulus), the monitor trace is projected
// through the database onto model events, and the word is a trace of
// the node iff it is a prefix of the canonical observed trace.
//
// On an exact bus a run depends only on the word's stimulus
// subsequence — response events merely choose what the observed trace
// is compared with — so the teacher simulates each stimulus sequence
// once and answers every word sharing it from that run. Under a fault
// profile the injected faults are seeded from the whole word, so every
// word gets a simulation of its own. The CAPL source is parsed once, in
// NewSimTeacher; each run attaches the shared, read-only program to a
// fresh bus.
type SimTeacher struct {
	cfg      SimTeacherConfig
	prog     *capl.Program
	alphabet []csp.Event
	stimulus []*canbus.Frame // by alphabet index; nil for responses
	runs     *obs.Counter

	mu   sync.Mutex
	memo map[string]*simRun // stimulus-index sequence -> its run
}

// simRun is one simulation, shared by every word with its stimulus
// sequence. done closes once observed and err are final.
type simRun struct {
	done     chan struct{}
	observed csp.Trace
	err      error
}

// NewSimTeacher parses the node's CAPL source and takes the alphabet
// from the table, sorted by csp.Compare, so it is independent of
// database declaration order. Each InChannel event gets a synthesizable
// stimulus frame.
func NewSimTeacher(cfg SimTeacherConfig) (*SimTeacher, error) {
	if cfg.Profile == "" {
		cfg.Profile = ProfileNone
	}
	if cfg.MaxEventsPerQuery <= 0 {
		cfg.MaxEventsPerQuery = 100_000
	}
	prog, err := capl.Parse(cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.NodeName, err)
	}
	t := &SimTeacher{
		cfg:      cfg,
		prog:     prog,
		alphabet: cfg.Table.Events(),
		runs:     cfg.Obs.Counter("learn.sim.runs"),
		memo:     map[string]*simRun{},
	}
	t.stimulus = make([]*canbus.Frame, len(t.alphabet))
	for i, ev := range t.alphabet {
		if ev.Chan == cfg.InChannel {
			m, _ := cfg.Table.Message(ev)
			t.stimulus[i] = &canbus.Frame{ID: m.ID, Data: make([]byte, m.DLC)}
		}
	}
	return t, nil
}

// Alphabet returns the model-event vocabulary.
func (t *SimTeacher) Alphabet() []csp.Event {
	return append([]csp.Event(nil), t.alphabet...)
}

// stimuli returns the alphabet indices of w's input events, in order.
// Events are matched by csp.Event.Equal identity, so an event that
// merely renders like a stimulus is a response: nothing to inject.
func (t *SimTeacher) stimuli(w csp.Trace) []int {
	var out []int
	for _, ev := range w {
		if i, ok := symbol(t.alphabet, ev); ok && t.stimulus[i] != nil {
			out = append(out, i)
		}
	}
	return out
}

// rng derives the per-query fault randomness: a pure function of
// (seed, profile, word), so the teacher answers every word the same way
// no matter when, or on which worker, it is asked. It hashes the word's
// rendering, the one place a word is not taken by identity: the drop
// baseline (testdata/learncheck_drop_baseline.json) is byte-gated on
// these seeds, so re-keying them is a change of its own.
func (t *SimTeacher) rng(w csp.Trace) *rand.Rand {
	h := fnv.New64a()
	_, _ = io.WriteString(h, string(t.cfg.Profile))
	_, _ = io.WriteString(h, "\x00")
	_, _ = io.WriteString(h, w.String())
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ t.cfg.Seed))
}

// installProfile arms the seeded fault hooks on the run's injector,
// mirroring the PR 1 campaign faults. Duplicate and delay replay frames
// through a gremlin tap with a bounded injection budget, so a faulty
// run still terminates.
func (t *SimTeacher) installProfile(bus *canbus.Bus, inj *canbus.Injector, rng *rand.Rand) {
	const prob = 0.3
	switch t.cfg.Profile {
	case ProfileDrop:
		inj.Drop = func(canbus.Time, canbus.Frame) bool { return rng.Float64() < prob }
	case ProfileCorrupt:
		inj.Corrupt = func(_ canbus.Time, f canbus.Frame) canbus.Frame {
			if rng.Float64() < prob && len(f.Data) > 0 {
				f.Data[rng.Intn(len(f.Data))] ^= 1 << uint(rng.Intn(8))
			}
			return f
		}
	case ProfileTamper:
		inj.Tamper = func(_ canbus.Time, f canbus.Frame) canbus.Frame {
			if rng.Float64() < prob {
				f.ID ^= 1 << uint(rng.Intn(3))
			}
			return f
		}
	case ProfileDuplicate, ProfileDelay:
		gremlin := bus.Attach("__gremlin__", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
		budget := 64
		replay := func(at canbus.Time, f canbus.Frame) {
			if budget <= 0 {
				return
			}
			budget--
			clone := f.Clone()
			_ = bus.Schedule(at, func() { _ = bus.Transmit(gremlin, clone) })
		}
		if t.cfg.Profile == ProfileDuplicate {
			inj.Observe = func(at canbus.Time, f canbus.Frame) {
				if rng.Float64() < prob {
					replay(at+200*canbus.Microsecond, f)
				}
			}
		} else {
			inj.Drop = func(at canbus.Time, f canbus.Frame) bool {
				if rng.Float64() < prob {
					replay(at+2*canbus.Millisecond, f)
					return true
				}
				return false
			}
		}
	}
}

// Membership answers whether w is a prefix of the trace the node
// shows under w's stimulus subsequence. On an exact bus that run comes
// from the memo; under a fault profile every word is simulated on its
// own, with faults seeded from the whole word.
func (t *SimTeacher) Membership(w csp.Trace) (bool, error) {
	stimuli := t.stimuli(w)
	var observed csp.Trace
	var err error
	if t.cfg.Profile != ProfileNone {
		observed, err = t.simulate(stimuli, t.rng(w))
	} else {
		observed, err = t.memoized(stimuli)
	}
	if err != nil {
		return false, err
	}
	return observed.HasPrefix(w), nil
}

// memoized returns the exact-bus run of a stimulus sequence. The first
// ask simulates it; every later ask, including one that arrives while
// that simulation is still running, waits for it and gets its trace
// and error.
func (t *SimTeacher) memoized(stimuli []int) (csp.Trace, error) {
	var key []byte
	for _, i := range stimuli {
		key = binary.AppendUvarint(key, uint64(i))
	}
	t.mu.Lock()
	r, ok := t.memo[string(key)]
	if !ok {
		r = &simRun{done: make(chan struct{})}
		t.memo[string(key)] = r
	}
	t.mu.Unlock()
	if !ok {
		t.run(r, stimuli)
	}
	<-r.done
	return r.observed, r.err
}

// run fills r with one exact-bus simulation and releases its waiters.
// A panicking simulation becomes r's error, so every word sharing the
// run gets the same answer and no waiter blocks forever.
func (t *SimTeacher) run(r *simRun, stimuli []int) {
	defer close(r.done)
	defer func() {
		if p := recover(); p != nil {
			r.observed, r.err = nil, fmt.Errorf("learn: membership run panicked: %v", p)
		}
	}()
	r.observed, r.err = t.simulate(stimuli, nil)
}

// simulate runs the node once against the stimulus sequence (alphabet
// indices) on a fresh bus, with the profile's faults drawn from rng
// when it is non-nil, and returns the projected trace. The trace is
// projected before the measurement stops, so stop handlers' frames are
// not part of it; a node fault or a failing stop is the run's error.
func (t *SimTeacher) simulate(stimuli []int, rng *rand.Rand) (csp.Trace, error) {
	t.runs.Inc()
	var inj *canbus.Injector
	if rng != nil {
		inj = &canbus.Injector{}
	}
	sim := canoe.NewSimulation(canbus.Config{Injector: inj})
	if inj != nil {
		t.installProfile(sim.Bus, inj, rng)
	}
	node, err := canoe.NewNode(sim.Bus, t.cfg.NodeName, t.prog)
	if err != nil {
		return nil, err
	}
	sim.Nodes = append(sim.Nodes, node)
	driver := sim.Bus.Attach("__learner__", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
	if err := sim.Start(); err != nil {
		return nil, err
	}

	remaining := t.cfg.MaxEventsPerQuery
	quiesce := func() error {
		n := sim.Bus.RunAll(remaining)
		remaining -= n
		if remaining <= 0 {
			return fmt.Errorf("learn: membership run exceeded %d bus events", t.cfg.MaxEventsPerQuery)
		}
		return nil
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	for _, i := range stimuli {
		if err := sim.Bus.Transmit(driver, t.stimulus[i].Clone()); err != nil {
			return nil, err
		}
		if err := quiesce(); err != nil {
			return nil, err
		}
	}
	if err := sim.Err(); err != nil {
		return nil, fmt.Errorf("learn: node fault during membership run: %w", err)
	}
	observed := t.project(sim.Trace())
	if err := sim.Stop(); err != nil {
		return nil, fmt.Errorf("learn: measurement stop: %w", err)
	}
	return observed, nil
}

// project maps the monitor trace onto model events through the
// database dictionary. Frames whose identifier the database cannot
// decode — e.g. tamper-spoofed ones — carry no model event and are
// dropped, exactly as a bus monitor would fail to classify them.
func (t *SimTeacher) project(tfs []canoe.TimedFrame) csp.Trace {
	out := make(csp.Trace, 0, len(tfs))
	for _, tf := range tfs {
		if ev, ok := t.cfg.Table.Event(tf.Frame.ID); ok {
			out = append(out, ev)
		}
	}
	return out
}
