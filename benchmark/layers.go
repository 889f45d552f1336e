package main

import (
	"fmt"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/learn"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/translate"
)

// This file wraps each call the workloads make into a layer's public
// API with a span of that layer. Untraced, every wrapper is the bare call.

// parse runs capl.Parse; tokens is the source's token count, taken with
// capl.Lex during set-up.
func parse(t *tracer, src string, tokens int) (*capl.Program, error) {
	i := t.begin("capl.parse")
	prog, err := capl.Parse(src)
	t.end(i, kv{"tokens", int64(tokens)})
	return prog, err
}

// analyze runs the caplint passes (lint and typecheck); an error-severity
// finding fails the job, since every program in the workloads is clean.
func analyze(t *tracer, prog *capl.Program, opts caplint.Options) error {
	i := t.begin("caplint.analyze")
	diags := caplint.Analyze(prog, opts)
	t.end(i, kv{"diags", int64(len(diags))})
	if errs := caplint.Filter(diags, caplint.SevError); len(errs) > 0 {
		return fmt.Errorf("caplint: %s", errs[0])
	}
	return nil
}

// extract runs translate.Translate and returns the CSPm text.
func extract(t *tracer, prog *capl.Program, opts translate.Options) (string, error) {
	i := t.begin("translate")
	res, err := translate.Translate(prog, opts)
	if err != nil {
		t.end(i)
		return "", err
	}
	t.end(i, kv{"out_bytes", int64(len(res.Text))})
	return res.Text, nil
}

// load runs cspm.Load.
func load(t *tracer, src string) (*cspm.Model, error) {
	i := t.begin("cspm.load")
	m, err := cspm.Load(src)
	t.end(i, kv{"bytes", int64(len(src))})
	return m, err
}

// checkAll checks every assertion of m with one cache for the job, as
// fdr.RunAll does, and returns the verdicts and the states explored.
func checkAll(t *tracer, m *cspm.Model) ([]string, int, error) {
	cache := lts.NewCache()
	var verdicts []string
	states := 0
	for _, a := range m.Asserts {
		res, err := check(t, cache, m, a)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", a.Text, err)
		}
		verdicts = append(verdicts, verdict(res))
		states += res.ImplStates
	}
	return verdicts, states, nil
}

// verdict renders a check outcome the way testdata/expected.json writes
// it: "holds", or "fails" and the counterexample trace.
func verdict(r refine.Result) string {
	if r.Holds {
		return "holds"
	}
	return "fails " + r.Counterexample.String()
}

// check runs one assertion through fdr.RunAssertBudget under the CLI
// default budget (Workers 0: GOMAXPROCS) with the job's cache. Traced, it
// first asks the cache for every exploration and normalisation the check
// needs, timing them as lts.explore and lts.normalize, so that the
// checker call is timed as refine.search alone; it fails if that call
// had to explore anything the cache lacked.
func check(t *tracer, cache *lts.Cache, m *cspm.Model, a cspm.ResolvedAssert) (refine.Result, error) {
	var misses int64
	if t.on {
		if err := prime(t, cache, m, a); err != nil {
			return refine.Result{}, err
		}
		misses = cache.StatsAll().Misses
	}
	i := t.begin("refine.search")
	res, err := fdr.RunAssertBudget(m, a, fdr.Budget{Cache: cache})
	t.end(i, kv{"pairs", int64(res.ProductStates)})
	if t.on && err == nil {
		if n := cache.StatsAll().Misses - misses; n != 0 {
			return res, fmt.Errorf("the primed search explored %d model(s) itself", n)
		}
	}
	return res, err
}

// prime explores the assertion's specification (if any) and
// implementation into the cache, in the checker's order and with its
// options, and normalises the specification.
func prime(t *tracer, cache *lts.Cache, m *cspm.Model, a cspm.ResolvedAssert) error {
	sem := csp.NewSemantics(m.Env, m.Ctx)
	if a.Spec == nil {
		_, err := explore(t, cache, sem, a.Impl)
		return err
	}
	spec, err := explore(t, cache, sem, a.Spec)
	if err != nil {
		return err
	}
	if _, err := explore(t, cache, sem, a.Impl); err != nil {
		return err
	}
	i := t.begin("lts.normalize")
	norm := cache.Normalize(spec)
	t.end(i, kv{"nodes", int64(norm.NumNodes())})
	return nil
}

// explore asks the cache for one exploration. A hit (a term an earlier
// assertion of the job explored) is timed but adds no states.
func explore(t *tracer, cache *lts.Cache, sem *csp.Semantics, p csp.Process) (*lts.LTS, error) {
	misses, allocs := cache.StatsAll().Misses, heapAllocs()
	i := t.begin("lts.explore")
	l, err := cache.Explore(sem, p, lts.Options{})
	if err != nil || cache.StatsAll().Misses == misses {
		t.end(i)
		return l, err
	}
	t.end(i, kv{"states", int64(l.NumStates())}, kv{"transitions", int64(l.NumTransitions())},
		kv{"allocs", heapAllocs() - allocs})
	return l, nil
}

// simulate runs the node pair on a fresh simulated bus (canoe.Simulation)
// up to the horizon and returns the monitor trace.
func simulate(t *tracer, vmg, ecu string, horizon canbus.Time) ([]canoe.TimedFrame, error) {
	i := t.begin("canoe.run")
	frames, err := func() ([]canoe.TimedFrame, error) {
		sim := canoe.NewSimulation(canbus.Config{})
		if _, err := sim.AddNode("VMG", vmg); err != nil {
			return nil, err
		}
		if _, err := sim.AddNode("ECU", ecu); err != nil {
			return nil, err
		}
		if err := sim.Start(); err != nil {
			return nil, err
		}
		if err := sim.Run(horizon); err != nil {
			return nil, err
		}
		return sim.Trace(), nil
	}()
	t.end(i, kv{"frames", int64(len(frames))})
	return frames, err
}

// senderChannel maps each sending node of the OTA database to the
// observed-model channel its frames appear on.
var senderChannel = map[string]string{"VMG": ota.ObservedToECU, "ECU": ota.ObservedToVMG}

// project maps bus frames to observed-model events through the CAN
// database: the identifier names the message, the renamed message name
// the constructor, the sender the channel.
func project(t *tracer, db *candb.Database, frames []canoe.TimedFrame) (csp.Trace, error) {
	i := t.begin("candb.project")
	defer t.end(i)
	out := make(csp.Trace, 0, len(frames))
	for _, f := range frames {
		m, ok := db.MessageByID(f.Frame.ID)
		if !ok {
			return nil, fmt.Errorf("frame 0x%03X is not in the CAN database", f.Frame.ID)
		}
		ctor := candb.CtorName(m.Name)
		if renamed, ok := ota.MessageRename[ctor]; ok {
			ctor = renamed
		}
		out = append(out, csp.Event{Chan: senderChannel[m.Sender], Args: []csp.Value{csp.Sym(ctor)}})
	}
	return out, nil
}

// acceptsTrace asks whether the observed trace is a trace of the
// system's observed process (refine.Checker.AcceptsTrace, no cache).
func acceptsTrace(t *tracer, sys *ota.System, tr csp.Trace) (refine.TraceCheck, error) {
	i := t.begin("refine.trace")
	c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
	res, err := c.AcceptsTrace(csp.Call(ota.ObservedProcess), tr)
	t.end(i, kv{"states", int64(res.States)})
	return res, err
}

// runSchedule replays one perturbation schedule on a fresh
// conformance.Runner: simulation, projection and trace check.
func runSchedule(t *tracer, s conformance.Schedule) (conformance.Verdict, error) {
	i := t.begin("conformance.schedule")
	r, err := conformance.NewRunner()
	var v conformance.Verdict
	if err == nil {
		v = r.RunSchedule(s)
	}
	diverged := int64(0)
	if v.Kind == conformance.Diverges {
		diverged = 1
	}
	t.end(i, kv{"model_states", int64(v.ModelStates)}, kv{"diverged", diverged})
	return v, err
}

// timedTeacher times each membership query the learner sends to the
// simulated-bus teacher (the memo's misses).
type timedTeacher struct {
	learn.Teacher
	t *tracer
}

func (tt timedTeacher) Membership(w csp.Trace) (bool, error) {
	i := tt.t.begin("learn.membership")
	ok, err := tt.Teacher.Membership(w)
	tt.t.end(i)
	return ok, err
}

// learnVariant runs L* against the variant's simulated ECU. The
// equivalence pool has one worker, so membership spans nest inside the
// learn span; the learned automaton is the same at any worker count.
func learnVariant(t *tracer, v learn.Variant, seed int64) (*learn.DFA, error) {
	teacher, err := learn.NewVariantTeacher(learn.CampaignConfig{Seed: seed}, v)
	if err != nil {
		return nil, err
	}
	i := t.begin("learn.learn")
	dfa, st, err := learn.Learn(learn.Config{Teacher: timedTeacher{teacher, t}, Seed: seed, Workers: 1})
	t.end(i, kv{"hits", st.CacheHits}, kv{"queries", st.MembershipQueries})
	return dfa, err
}
