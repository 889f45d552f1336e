package lts_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/obs"
)

// punSystem has a channel whose values Int(5) and Sym("5") both render
// as 5: a loop accepting both (an input restricted to the set of both),
// synchronised on an event set listing both and with only the Int
// hidden, so the node table holds value and event sets whose members
// render alike.
func punSystem() (*csp.Semantics, csp.Process, csp.Event, csp.Event) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	ctx.MustChannel("a")
	num, sym := csp.Ev("pun", csp.Int(5)), csp.Ev("pun", csp.Sym("5"))
	env := csp.NewEnv()
	both := csp.Lit{Val: csp.NewSet(csp.Sym("5"), csp.Int(5))}
	env.MustDefine("P", nil, csp.Prefix("pun", []csp.CommField{csp.InSuchThat("x", csp.MemberExpr{Elem: csp.V("x"), Set: both})},
		csp.DoEvent("a", csp.Call("P"))))
	env.MustDefine("Q", nil, csp.ExtChoice(
		csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Call("Q")),
		csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Int(5))}, csp.DoEvent("a", csp.Call("Q")))))
	root := csp.Hide(csp.Par(csp.Call("P"), csp.Events(sym, num), csp.Call("Q")), csp.Events(num))
	return csp.NewSemantics(env, ctx), root, num, sym
}

// TestCheckpointResumesPunnedSets: a snapshot whose node table holds
// sets of punned events decodes, so an interrupted exploration resumes
// at every level boundary (no snapshot ignored) to the same LTS.
func TestCheckpointResumesPunnedSets(t *testing.T) {
	sem, root, _, _ := punSystem()
	ref, err := lts.Explore(sem, root, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	starts := levelStarts(ref)
	if len(starts) < 2 {
		t.Fatalf("%d level boundaries, want a deeper system", len(starts))
	}
	for done, start := range starts {
		label := fmt.Sprintf("interrupted after level %d", done+1)
		dir := t.TempDir()
		_, err := lts.Explore(sem, root, lts.Options{
			Ctx:        &stopBefore{Context: context.Background(), k: start},
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted explore: %v", label, err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, root, lts.Options{Checkpoint: &lts.CheckpointOptions{Dir: dir}, Obs: o})
		if err != nil {
			t.Fatalf("%s: resumed explore: %v", label, err)
		}
		if ign, res := o.Counter("lts.checkpoint.ignored").Value(), o.Counter("lts.checkpoint.resumes").Value(); ign != 0 || res != 1 {
			t.Fatalf("%s: %d snapshots ignored, %d resumes; want 0 and 1", label, ign, res)
		}
		requireSameLTS(t, label, ref, got)
	}
}

// TestNormalizePunnedEvents: the subset construction keeps punned
// events apart. After the hidden Int, the system offers the Sym and a
// and nothing that merely renders like the Int.
func TestNormalizePunnedEvents(t *testing.T) {
	sem, root, num, sym := punSystem()
	l, err := lts.Explore(sem, root, lts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := lts.Normalize(l)
	symID, ok := l.EventID(sym)
	if !ok {
		t.Fatal("pun.Sym(5) is not an event of the LTS")
	}
	if _, ok := l.EventID(num); ok {
		t.Error("the hidden pun.Int(5) is still visible")
	}
	if _, ok := n.Accepts(n.Init, symID); !ok {
		t.Error("the normal form does not offer pun.Sym(5) initially")
	}
	if len(n.Nodes[n.Init].Succ) != 2 {
		t.Errorf("initial node offers %d labels, want pun.Sym(5) and a", len(n.Nodes[n.Init].Succ))
	}
}
