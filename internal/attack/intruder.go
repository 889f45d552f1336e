package attack

import (
	"fmt"
	"sort"

	"repro/internal/csp"
)

// BusConfig describes a Dolev-Yao-style intruder on a broadcast bus
// (the natural model of a CAN attacker: it overhears every frame and
// may inject frames it can construct).
//
// Channels are directional so that every event has exactly one
// producer — the standard discipline that prevents "ghost" events
// arising from all-input synchronisation: victims produce on the Hear
// channels (the intruder and other receivers input them), and the
// intruder alone produces on the Say channel (victims input it).
//
// The intruder's knowledge grows as it overhears; the reachable
// knowledge states are enumerated at build time and compiled into one
// process definition per state, so the resulting model is finite.
type BusConfig struct {
	// Hear lists the channels the intruder overhears (each with one
	// field of type Universe).
	Hear []string
	// Say is the channel the intruder injects on (one field of type
	// Universe).
	Say string
	// Universe is the finite packet domain.
	Universe csp.Type
	// Initial is the intruder's initial knowledge.
	Initial []csp.Value
	// Forgeable reports whether the intruder can construct the packet
	// from its current knowledge regardless of having overheard it
	// (e.g. any plaintext packet, or any packet MACed with a key the
	// intruder holds). Overheard relevant packets are always replayable.
	Forgeable func(v csp.Value, knowledge csp.SetValue) bool
	// Learn returns the knowledge gained from overhearing a packet
	// (including the packet itself if replay should be possible). A nil
	// Learn defaults to learning the packet itself.
	Learn func(v csp.Value, knowledge csp.SetValue) []csp.Value
	// Relevant filters what is actually recorded in the knowledge set:
	// packets the intruder could forge anyway gain it nothing, so
	// tracking them only blows up the state space. The default keeps
	// exactly the non-forgeable packets. Narrow it further (e.g. to the
	// packets the victim acts on) to keep models small.
	Relevant func(v csp.Value, knowledge csp.SetValue) bool
	// NamePrefix distinguishes multiple intruders in one environment
	// (default "INTRUDER").
	NamePrefix string
	// MaxStates bounds knowledge-state enumeration (default 4096).
	MaxStates int
}

// Alphabet returns the event set the intruder must synchronise on when
// composed with the victim system: all Hear channels plus the Say
// channel.
func (cfg BusConfig) Alphabet() *csp.EventSet {
	set := csp.EventsOf(cfg.Hear...)
	if cfg.Say != "" {
		set.AddChannel(cfg.Say)
	}
	return set
}

// BuildIntruder compiles the intruder into process definitions in env
// and returns the initial process. The intruder is always willing to
// overhear any event on the Hear channels, so composing it synchronised
// on them never blocks the legitimate nodes; it injects on Say only
// packets it can currently produce.
func BuildIntruder(cfg BusConfig, env *csp.Env) (csp.Process, error) {
	if len(cfg.Hear) == 0 || cfg.Say == "" || cfg.Universe == nil {
		return nil, fmt.Errorf("intruder: Hear, Say and Universe must be set")
	}
	prefix := cfg.NamePrefix
	if prefix == "" {
		prefix = "INTRUDER"
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = 4096
	}
	learn := cfg.Learn
	if learn == nil {
		learn = func(v csp.Value, _ csp.SetValue) []csp.Value { return []csp.Value{v} }
	}
	forgeable := cfg.Forgeable
	if forgeable == nil {
		forgeable = func(csp.Value, csp.SetValue) bool { return false }
	}
	relevant := cfg.Relevant
	if relevant == nil {
		relevant = func(v csp.Value, k csp.SetValue) bool { return !forgeable(v, k) }
	}

	universe := cfg.Universe.Values()

	// gain computes the canonical knowledge set after overhearing v.
	gain := func(k csp.SetValue, v csp.Value) csp.SetValue {
		next := k
		for _, g := range learn(v, k) {
			if relevant(g, k) {
				next = next.Add(g)
			}
		}
		return next
	}

	// Enumerate reachable knowledge states.
	type state struct {
		knowledge csp.SetValue
		name      string
	}
	// Indexed by identity: the set's ID in one interner for the build.
	ids := csp.NewInterner()
	index := map[csp.TermID]*state{}
	var order []*state
	intern := func(k csp.SetValue) (*state, bool) {
		key := ids.Value(k)
		if s, ok := index[key]; ok {
			return s, false
		}
		s := &state{knowledge: k, name: fmt.Sprintf("%s_%d", prefix, len(order))}
		index[key] = s
		order = append(order, s)
		return s, true
	}
	init, _ := intern(csp.NewSet(cfg.Initial...))
	for i := 0; i < len(order); i++ {
		if len(order) > maxStates {
			return nil, fmt.Errorf("intruder: knowledge-state enumeration exceeded %d states", maxStates)
		}
		s := order[i]
		for _, v := range universe {
			intern(gain(s.knowledge, v))
		}
	}

	// Emit one definition per knowledge state.
	for _, s := range order {
		var branches []csp.Process
		// Overhear: accept any packet on any hear channel, moving to the
		// learned state. Group packets by destination state, using a
		// restricted input per group to keep the term small; sort group
		// names so the generated model is deterministic.
		hearTargets := map[string][]csp.Value{}
		hearState := map[string]*state{}
		for _, v := range universe {
			ns, _ := intern(gain(s.knowledge, v))
			hearTargets[ns.name] = append(hearTargets[ns.name], v)
			hearState[ns.name] = ns
		}
		groupNames := make([]string, 0, len(hearTargets))
		for name := range hearTargets {
			groupNames = append(groupNames, name)
		}
		sort.Strings(groupNames)
		for _, ch := range cfg.Hear {
			for _, name := range groupNames {
				packets := hearTargets[name]
				ns := hearState[name]
				pred := csp.MemberExpr{
					Elem: csp.V("x"),
					Set:  csp.Lit{Val: csp.NewSet(packets...)},
				}
				branches = append(branches, csp.Prefix(ch,
					[]csp.CommField{csp.InSuchThat("x", pred)},
					csp.Call(ns.name)))
			}
		}
		// Inject: any packet the intruder can say in this state.
		for _, v := range universe {
			if s.knowledge.Contains(v) || forgeable(v, s.knowledge) {
				branches = append(branches, csp.Send(cfg.Say, csp.Call(s.name), v))
			}
		}
		if err := env.Define(s.name, nil, csp.ExtChoice(branches...)); err != nil {
			return nil, fmt.Errorf("intruder: %w", err)
		}
	}
	return csp.Call(init.name), nil
}

// NumKnowledgeStates reports how many knowledge states BuildIntruder
// would generate for the configuration, without defining anything.
func NumKnowledgeStates(cfg BusConfig) (int, error) {
	probe := csp.NewEnv()
	if _, err := BuildIntruder(cfg, probe); err != nil {
		return 0, err
	}
	return len(probe.Names()), nil
}
