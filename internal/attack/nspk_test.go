package attack

import (
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/refine"
)

func TestNSPKGenuineRunPossible(t *testing.T) {
	m, err := BuildNSPK(NSPKConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The honest run must exist: A initiates with B and B commits to A.
	want := csp.Trace{
		csp.Ev("initiate", csp.Sym("a"), csp.Sym("b")),
		csp.Ev("commit", csp.Sym("b"), csp.Sym("a")),
	}
	got, err := refine.NewChecker(m.Env, m.Ctx).AcceptsTrace(m.System, want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Accepted {
		t.Error("the genuine protocol run is not a trace of the system")
	}
}

func TestNSPKLoweAttackFound(t *testing.T) {
	m, err := BuildNSPK(NSPKConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.AuthSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("NSPK authentication wrongly verified: Lowe's attack not found")
	}
	// The counterexample is the man-in-the-middle: A talks to the
	// intruder, yet B commits to a session with A.
	got := res.Counterexample.String()
	if !strings.Contains(got, "initiate.a.i") || !strings.Contains(got, "commit.b.a") {
		t.Errorf("attack trace = %s, want A->I initiation followed by B committing to A", got)
	}
	if strings.Contains(got, "initiate.a.b") {
		t.Errorf("attack trace %s should not contain a genuine initiation", got)
	}
}

func TestNSLFixVerified(t *testing.T) {
	m, err := BuildNSPK(NSPKConfig{Fixed: true})
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.AuthSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("NSL wrongly rejected; counterexample %s (%s)", res.Counterexample, res.Reason)
	}
	// And the genuine run still works under the fix.
	want := csp.Trace{
		csp.Ev("initiate", csp.Sym("a"), csp.Sym("b")),
		csp.Ev("commit", csp.Sym("b"), csp.Sym("a")),
	}
	got, err := refine.NewChecker(m.Env, m.Ctx).AcceptsTrace(m.System, want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Accepted {
		t.Error("NSL broke the genuine protocol run")
	}
}

func TestNSPKIntruderIsBounded(t *testing.T) {
	m, err := BuildNSPK(NSPKConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.IntruderStates < 2 || m.IntruderStates > 4096 {
		t.Errorf("intruder states = %d", m.IntruderStates)
	}
}

func TestNSPKKnowledgeSemantics(t *testing.T) {
	k := nspkKnowledge{set: csp.NewSet(nonceNI)}
	// Can construct packets from its own nonce.
	if !k.canConstruct(nspkM1(agentB, nonceNI, agentA)) {
		t.Error("cannot construct m1 with known nonce")
	}
	if k.canConstruct(nspkM1(agentB, nonceNA, agentA)) {
		t.Error("constructed m1 with unknown nonce")
	}
	// Learning a packet encrypted for the intruder reveals the nonce.
	k2 := k.learn(nspkM1(agentI, nonceNA, agentA), 2)
	if !k2.knowsNonce(nonceNA) {
		t.Error("did not decrypt its own traffic")
	}
	// Learning an undecryptable packet stores it for replay (bounded).
	pkt := nspkM2(agentA, nonceNA, nonceNB)
	k3 := k.learn(pkt, 1)
	if !k3.canSay(pkt) {
		t.Error("cannot replay stored packet")
	}
	other := nspkM2(agentA, nonceNB, nonceNB)
	k4 := k3.learn(other, 1)
	if k4.canSay(other) {
		t.Error("replay memory bound not enforced")
	}
}
