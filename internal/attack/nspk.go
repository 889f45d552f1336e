package attack

import (
	"fmt"

	"repro/internal/csp"
)

// This file models the Needham-Schroeder public-key protocol (NSPK),
// the paper's motivating example for CSP-based security analysis
// (section II-B): the protocol was used for 18 years before Lowe's CSP
// analysis exposed a man-in-the-middle attack. We reproduce exactly
// that analysis with the library's own checker: the original protocol
// admits the attack (B commits to a session with A although A only ever
// talked to the intruder), and Lowe's fix (NSL: adding the responder's
// identity to message 2) eliminates it.
//
// The analysis is bounded in the standard way: one initiator session
// for A, one responder session for B, nonces {na, nb, ni}, and an
// intruder with bounded replay memory. The intruder is the network
// (Ryan & Schneider's construction): honest agents send on `snd` and
// receive on `dlv`, both mediated by the intruder.

// NSPKConfig configures the bounded analysis.
type NSPKConfig struct {
	// Fixed selects the Needham-Schroeder-Lowe variant (message 2 also
	// carries the responder identity).
	Fixed bool
	// MaxStore bounds how many undecryptable packets the intruder can
	// remember for replay (default 3: relaying a full genuine run
	// requires storing all three protocol messages).
	MaxStore int
}

// NSPKModel is the evaluated protocol model.
type NSPKModel struct {
	Cfg NSPKConfig
	Ctx *csp.Context
	Env *csp.Env
	// System hides the network: only initiate and commit are visible.
	System csp.Process
	// SystemVisible keeps snd/dlv visible for trace inspection.
	SystemVisible csp.Process
	// AuthSpec asserts: B never commits to a session with A unless A
	// initiated a session with B.
	AuthSpec csp.Process
	// IntruderStates is the number of generated knowledge states.
	IntruderStates int
}

// Protocol constants.
var (
	agentA = csp.Sym("a")
	agentB = csp.Sym("b")
	agentI = csp.Sym("i")

	nonceNA = csp.Sym("na")
	nonceNB = csp.Sym("nb")
	nonceNI = csp.Sym("ni")

	nspkNonces = []csp.Value{nonceNA, nonceNB, nonceNI}
)

// Packet constructors: the key field names the agent whose public key
// encrypts the payload.
func nspkM1(key, nonce, agent csp.Value) csp.Value {
	return csp.NewDotted("m1", key, nonce, agent)
}
func nspkM2(key, n1, n2 csp.Value) csp.Value {
	return csp.NewDotted("m2", key, n1, n2)
}
func nspkM2f(key, n1, n2, agent csp.Value) csp.Value {
	return csp.NewDotted("m2f", key, n1, n2, agent)
}
func nspkM3(key, nonce csp.Value) csp.Value {
	return csp.NewDotted("m3", key, nonce)
}

// BuildNSPK assembles the bounded NSPK (or NSL) model.
func BuildNSPK(cfg NSPKConfig) (m *NSPKModel, err error) {
	defer csp.RecoverBuild(&err)
	if cfg.MaxStore <= 0 {
		cfg.MaxStore = 3
	}
	ctx := csp.NewContext()
	env := csp.NewEnv()

	agent := csp.EnumType("Agent", "a", "b", "i")
	nonce := csp.EnumType("Nonce", "na", "nb", "ni")
	packet := csp.DataType{
		TypeName: "Packet",
		Ctors: []csp.Ctor{
			{Head: "m1", Fields: []csp.Type{agent, nonce, agent}},
			{Head: "m2", Fields: []csp.Type{agent, nonce, nonce}},
			{Head: "m2f", Fields: []csp.Type{agent, nonce, nonce, agent}},
			{Head: "m3", Fields: []csp.Type{agent, nonce}},
		},
	}
	for _, d := range []struct {
		name string
		ty   csp.Type
	}{{"Agent", agent}, {"Nonce", nonce}, {"Packet", packet}} {
		if err := ctx.DeclareType(d.name, d.ty); err != nil {
			return nil, err
		}
	}
	if err := ctx.DeclareChannel("snd", packet); err != nil {
		return nil, err
	}
	if err := ctx.DeclareChannel("dlv", packet); err != nil {
		return nil, err
	}
	if err := ctx.DeclareChannel("initiate", agent, agent); err != nil {
		return nil, err
	}
	if err := ctx.DeclareChannel("commit", agent, agent); err != nil {
		return nil, err
	}

	defineNSPKAgents(env, cfg.Fixed)

	intruder, states, err := buildNSPKIntruder(env, cfg)
	if err != nil {
		return nil, err
	}

	net := csp.EventsOf("snd", "dlv")
	honest := csp.Interleave(csp.Call("InitA"), csp.Call("RespB"))
	visible := csp.Par(honest, net, intruder)
	system := csp.Hide(visible, net)

	authSpec := defineNSPKAuthSpec(env)

	return &NSPKModel{
		Cfg:            cfg,
		Ctx:            ctx,
		Env:            env,
		System:         system,
		SystemVisible:  visible,
		AuthSpec:       authSpec,
		IntruderStates: states,
	}, nil
}

// defineNSPKAgents installs the honest initiator and responder roles.
func defineNSPKAgents(env *csp.Env, fixed bool) {
	// Initiator A: pick a partner (b or the intruder i), then run the
	// protocol once.
	mkInit := func(partner csp.Value) csp.Process {
		// Step 1: send {na, a} under the partner's key.
		// Step 2: accept {na, y} under a's key (NSL: also check the
		// responder identity equals the partner), then send {y} back.
		var recvBranches []csp.Process
		for _, y := range nspkNonces {
			var m2pkt csp.Value
			if fixed {
				m2pkt = nspkM2f(agentA, nonceNA, y, partner)
			} else {
				m2pkt = nspkM2(agentA, nonceNA, y)
			}
			step3 := csp.Send("snd", csp.Stop(), nspkM3(partner, y))
			recvBranches = append(recvBranches, csp.Send("dlv", step3, m2pkt))
		}
		return csp.Send("snd", csp.ExtChoice(recvBranches...), nspkM1(partner, nonceNA, agentA))
	}
	env.MustDefine("InitA", nil, csp.ExtChoice(
		csp.Send("initiate", mkInit(agentB), agentA, agentB),
		csp.Send("initiate", mkInit(agentI), agentA, agentI),
	))

	// Responder B: accept {n, c} under b's key from any claimed agent c,
	// reply {n, nb} (NSL: {n, nb, b}) under c's key, await {nb}, commit.
	var m1Branches []csp.Process
	for _, claimed := range []csp.Value{agentA, agentI} {
		for _, n := range nspkNonces {
			var reply csp.Value
			if fixed {
				reply = nspkM2f(claimed, n, nonceNB, agentB)
			} else {
				reply = nspkM2(claimed, n, nonceNB)
			}
			step := csp.Send("snd",
				csp.Send("dlv",
					csp.Send("commit", csp.Stop(), agentB, claimed),
					nspkM3(agentB, nonceNB)),
				reply)
			m1Branches = append(m1Branches, csp.Send("dlv", step, nspkM1(agentB, n, claimed)))
		}
	}
	env.MustDefine("RespB", nil, csp.ExtChoice(m1Branches...))
}

// defineNSPKAuthSpec installs the authentication property over the
// visible alphabet {initiate, commit}: commit.b.a may occur only after
// initiate.a.b; all other initiate/commit events are unconstrained.
func defineNSPKAuthSpec(env *csp.Env) csp.Process {
	// AFTER: everything allowed.
	after := csp.ExtChoice(
		csp.Recv("initiate", csp.Call("NSPK_AFTER"), "x1", "x2"),
		csp.Recv("commit", csp.Call("NSPK_AFTER"), "y1", "y2"),
	)
	env.MustDefine("NSPK_AFTER", nil, after)
	// BEFORE: any initiate (initiate.a.b unlocks everything); any commit
	// except commit.b.a, which is exactly the forbidden event.
	isAB := csp.Binary{
		Op: csp.OpAnd,
		L:  csp.Binary{Op: csp.OpEq, L: csp.V("i1"), R: csp.Lit{Val: agentA}},
		R:  csp.Binary{Op: csp.OpEq, L: csp.V("i2"), R: csp.Lit{Val: agentB}},
	}
	before := csp.ExtChoice(
		csp.Prefix("initiate",
			[]csp.CommField{csp.In("i1"), csp.In("i2")},
			csp.If(isAB, csp.Call("NSPK_AFTER"), csp.Call("NSPK_AUTH"))),
		commitExceptBA(),
	)
	env.MustDefine("NSPK_AUTH", nil, before)
	return csp.Call("NSPK_AUTH")
}

// commitExceptBA offers every commit event except commit.b.a, returning
// to the guarded state.
func commitExceptBA() csp.Process {
	var branches []csp.Process
	agents := []csp.Value{agentA, agentB, agentI}
	for _, c1 := range agents {
		for _, c2 := range agents {
			if c1.Equal(agentB) && c2.Equal(agentA) {
				continue
			}
			branches = append(branches, csp.Send("commit", csp.Call("NSPK_AUTH"), c1, c2))
		}
	}
	return csp.ExtChoice(branches...)
}

// --- The bounded NSPK intruder ------------------------------------------

// nspkKnowledge is the intruder's canonical knowledge: known nonces plus
// stored (undecryptable) packets for replay.
type nspkKnowledge struct {
	set csp.SetValue
}

func (k nspkKnowledge) knowsNonce(n csp.Value) bool { return k.set.Contains(n) }

func (k nspkKnowledge) nonceCount() int {
	cnt := 0
	for _, v := range k.set.Elems() {
		if _, ok := v.(csp.Sym); ok {
			cnt++
		}
	}
	return cnt
}

func (k nspkKnowledge) storedCount() int { return k.set.Len() - k.nonceCount() }

// packetFields decomposes a packet into its key agent and nonce fields.
func packetFields(p csp.Value) (key csp.Value, nonces []csp.Value, ok bool) {
	d, isDotted := p.(csp.Dotted)
	if !isDotted || len(d.Args) < 2 {
		return nil, nil, false
	}
	key = d.Args[0]
	switch d.Head {
	case "m1":
		nonces = []csp.Value{d.Args[1]}
	case "m2":
		nonces = []csp.Value{d.Args[1], d.Args[2]}
	case "m2f":
		nonces = []csp.Value{d.Args[1], d.Args[2]}
	case "m3":
		nonces = []csp.Value{d.Args[1]}
	default:
		return nil, nil, false
	}
	return key, nonces, true
}

// canConstruct reports whether the intruder can build the packet from
// known nonces (public keys are public: it can encrypt anything it can
// assemble).
func (k nspkKnowledge) canConstruct(p csp.Value) bool {
	_, nonces, ok := packetFields(p)
	if !ok {
		return false
	}
	for _, n := range nonces {
		if !k.knowsNonce(n) {
			return false
		}
	}
	return true
}

// canSay reports whether the intruder can put the packet on dlv.
func (k nspkKnowledge) canSay(p csp.Value) bool {
	return k.canConstruct(p) || k.set.Contains(p)
}

// learn returns the knowledge after overhearing p on snd.
func (k nspkKnowledge) learn(p csp.Value, maxStore int) nspkKnowledge {
	key, nonces, ok := packetFields(p)
	if !ok {
		return k
	}
	if key.Equal(agentI) {
		// Encrypted for the intruder: decrypt and learn the nonces.
		out := k.set
		for _, n := range nonces {
			out = out.Add(n)
		}
		return nspkKnowledge{set: out}
	}
	if k.canConstruct(p) || k.set.Contains(p) {
		return k // nothing new
	}
	if k.storedCount() >= maxStore {
		return k // bounded replay memory
	}
	return nspkKnowledge{set: k.set.Add(p)}
}

// buildNSPKIntruder compiles the knowledge-state machine into process
// definitions, returning the initial process and the state count.
func buildNSPKIntruder(env *csp.Env, cfg NSPKConfig) (csp.Process, int, error) {
	hearUniverse := nspkHonestEmissions(cfg.Fixed)
	sayUniverse := nspkHonestExpectations(cfg.Fixed)

	type state struct {
		k    nspkKnowledge
		name string
	}
	// Indexed by identity: the set's ID in one interner for the build.
	ids := csp.NewInterner()
	index := map[csp.TermID]*state{}
	var order []*state
	intern := func(k nspkKnowledge) *state {
		key := ids.Value(k.set)
		if s, ok := index[key]; ok {
			return s
		}
		s := &state{k: k, name: fmt.Sprintf("NSPKINT_%d", len(order))}
		index[key] = s
		order = append(order, s)
		return s
	}
	init := intern(nspkKnowledge{set: csp.NewSet(nonceNI)})
	for i := 0; i < len(order); i++ {
		if len(order) > 4096 {
			return nil, 0, fmt.Errorf("nspk intruder: state explosion")
		}
		s := order[i]
		for _, p := range hearUniverse {
			intern(s.k.learn(p, cfg.MaxStore))
		}
	}
	for _, s := range order {
		var branches []csp.Process
		for _, p := range hearUniverse {
			ns := intern(s.k.learn(p, cfg.MaxStore))
			branches = append(branches, csp.Send("snd", csp.Call(ns.name), p))
		}
		for _, p := range sayUniverse {
			if s.k.canSay(p) {
				branches = append(branches, csp.Send("dlv", csp.Call(s.name), p))
			}
		}
		if err := env.Define(s.name, nil, csp.ExtChoice(branches...)); err != nil {
			return nil, 0, err
		}
	}
	return csp.Call(init.name), len(order), nil
}

// nspkHonestEmissions enumerates every packet the honest agents can put
// on snd, the intruder's hearing universe.
func nspkHonestEmissions(fixed bool) []csp.Value {
	var out []csp.Value
	// A's message 1, to either partner.
	for _, partner := range []csp.Value{agentB, agentI} {
		out = append(out, nspkM1(partner, nonceNA, agentA))
	}
	// A's message 3: {y} under the partner's key, any learned y.
	for _, partner := range []csp.Value{agentB, agentI} {
		for _, y := range nspkNonces {
			out = append(out, nspkM3(partner, y))
		}
	}
	// B's message 2 to claimed agent c, echoing nonce n.
	for _, c := range []csp.Value{agentA, agentI} {
		for _, n := range nspkNonces {
			if fixed {
				out = append(out, nspkM2f(c, n, nonceNB, agentB))
			} else {
				out = append(out, nspkM2(c, n, nonceNB))
			}
		}
	}
	return out
}

// nspkHonestExpectations enumerates every packet an honest agent is
// willing to accept from dlv, the intruder's saying universe.
func nspkHonestExpectations(fixed bool) []csp.Value {
	var out []csp.Value
	// A accepts message 2 under its key with its nonce na.
	for _, y := range nspkNonces {
		if fixed {
			for _, partner := range []csp.Value{agentB, agentI} {
				out = append(out, nspkM2f(agentA, nonceNA, y, partner))
			}
		} else {
			out = append(out, nspkM2(agentA, nonceNA, y))
		}
	}
	// B accepts message 1 under its key from any claimed agent.
	for _, c := range []csp.Value{agentA, agentI} {
		for _, n := range nspkNonces {
			out = append(out, nspkM1(agentB, n, c))
		}
	}
	// B accepts message 3 with its nonce.
	out = append(out, nspkM3(agentB, nonceNB))
	return out
}
