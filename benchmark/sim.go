package main

import (
	"fmt"
	"math/rand"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/learn"
	"repro/internal/ota"
)

// sim-soak: the simulation path, which uses the checker differently —
// trace membership on the fly, no exploration and no product search.
// A round mixes cross-validation runs (simulate a gateway pair, project
// the frames through the CAN database, check the trace), replays of
// perturbation schedules, and one L* campaign per variant.

// gateways are the simulated node pairs and the observed model each is
// checked against; the flawed ECU is checked against the correct model.
var gateways = map[string]struct {
	ecu, vmg string
	model    ota.LossyVariant
}{
	"naive":    {ota.ECUSource, ota.VMGSource, ota.NaiveGateway},
	"hardened": {ota.HardenedECUSource, ota.HardenedVMGSource, ota.HardenedGateway},
	"flawed":   {ota.FlawedECUSource, ota.VMGSource, ota.NaiveGateway},
}

// A round holds 15 jobs whose costs spread from 0.2 ms to 350 ms. The
// mix is chosen so that the median falls among the L* and fault-free
// hardened jobs (30–40 ms) and p90 on the duplicated-frame hardened
// schedule, each well inside its own cost band; among jobs of a few
// milliseconds, whether a collection runs during the job sets its time.

// xvalRuns are the cross-validation runs of a round: a gateway pair and
// the simulated time in milliseconds, which each run moves by up to half
// a millisecond (two frames) either way.
var xvalRuns = []struct {
	variant string
	horizon canbus.Time
}{{"flawed", 20}, {"naive", 45}, {"hardened", 20}, {"hardened", 45}}

// scheduleClasses are the perturbation schedules of a round, per variant.
var scheduleClasses = []struct {
	variant conformance.Variant
	classes []string
}{
	{conformance.VariantNaive, []string{"none", "delay"}},
	{conformance.VariantHardened, []string{"none", "jitter", "drop", "dup", "delay"}},
	{conformance.VariantFlawed, []string{"dup"}},
}

// learnSeed seeds the L* equivalence walks: the learncheck baseline's
// seed, fixed because the walks set how many queries a campaign asks.
const learnSeed = 1

// scheduleHorizon is the CI soak horizon.
const scheduleHorizon = 12 * canbus.Millisecond

// genSchedule builds one schedule of a class. Which frame a fault hits
// sets the checking cost several-fold, so the frames are fixed (VMG
// frames of the second protocol round) and the seed only moves replay
// delays and the timer shift within narrow ranges.
func genSchedule(rng *rand.Rand, v conformance.Variant, class string) conformance.Schedule {
	s := conformance.Schedule{Variant: v, Seed: rng.Int63(), HorizonUs: int64(scheduleHorizon)}
	switch class {
	case "drop":
		s.Ops = []conformance.Op{{Kind: conformance.OpDropFrame, Nth: 4}}
	case "dup":
		s.Ops = []conformance.Op{{Kind: conformance.OpDupFrame, Nth: 4, DelayUs: 300 + rng.Int63n(100)}}
	case "delay":
		s.Ops = []conformance.Op{{Kind: conformance.OpDelayFrame, Nth: 4, DelayUs: 1000 + rng.Int63n(200)}}
	case "jitter":
		s.Ops = []conformance.Op{{Kind: conformance.OpJitterTimer, Node: "VMG", Nth: 1, DeltaMs: rng.Int63n(11) - 5}}
	}
	return s
}

func setupSim(seed int64, _ float64) (*prepared, error) {
	rng := rand.New(rand.NewSource(seed))
	db, err := ota.Database()
	if err != nil {
		return nil, err
	}
	d := newDigest()
	var round []job
	models := map[ota.LossyVariant]*ota.System{}
	for _, x := range xvalRuns {
		g := gateways[x.variant]
		sys, ok := models[g.model]
		if !ok {
			if sys, err = ota.BuildObserved(ota.ObservedConfigFor(g.model, ota.ChannelBudgets{})); err != nil {
				return nil, err
			}
			models[g.model] = sys
		}
		want, err := known(expected.Xval, "xval", x.variant)
		if err != nil {
			return nil, err
		}
		horizon := x.horizon*canbus.Millisecond - canbus.Millisecond/2 + canbus.Time(rng.Int63n(int64(canbus.Millisecond)))
		input := fmt.Sprintf("xval-%s-%dus", x.variant, horizon)
		d.add(input, g.ecu, g.vmg, sys.Source)
		round = append(round, xvalJob(input, g.ecu, g.vmg, horizon, db, sys, want))
	}
	for _, sc := range scheduleClasses {
		for _, class := range sc.classes {
			s := genSchedule(rng, sc.variant, class)
			want, ok := expected.Conformance[string(sc.variant)+"/"+class]
			if !ok {
				want = expected.Conformance[string(sc.variant)]
			}
			enc, err := s.EncodeJSON()
			if err != nil {
				return nil, err
			}
			input := fmt.Sprintf("schedule-%s-%s", sc.variant, class)
			d.add(input, string(enc))
			round = append(round, scheduleJob(input, s, conformance.VerdictKind(want)))
		}
	}
	for _, v := range learn.Variants {
		want, err := known(expected.Learn, "learn", string(v))
		if err != nil {
			return nil, err
		}
		input := fmt.Sprintf("learn-%s", v)
		d.add(input)
		round = append(round, learnJob(input, v, learnSeed, want))
	}
	return closedLoopBench(rng, round, d), nil
}

// xvalJob simulates the pair fault-free, projects the bus trace and
// checks it against the observed model.
func xvalJob(input, ecu, vmg string, horizon canbus.Time, db *candb.Database, sys *ota.System, want string) job {
	return job{input, func(t *tracer) (int, error) {
		frames, err := simulate(t, vmg, ecu, horizon)
		if err != nil {
			return 0, err
		}
		trace, err := project(t, db, frames)
		if err != nil {
			return 0, err
		}
		res, err := acceptsTrace(t, sys, trace)
		if err != nil {
			return 0, err
		}
		got := "accepts"
		if !res.Accepted {
			got = fmt.Sprintf("rejects at %d", res.FailedAt)
		}
		if got != want {
			return res.States, fmt.Errorf("%d frames: %s, want %s", len(trace), got, want)
		}
		return res.States, nil
	}}
}

// scheduleJob replays a schedule. Without a known answer, only an
// interpreter error or an exhausted budget fails it.
func scheduleJob(input string, s conformance.Schedule, want conformance.VerdictKind) job {
	return job{input, func(t *tracer) (int, error) {
		v, err := runSchedule(t, s)
		switch {
		case err != nil:
			return 0, err
		case want != "" && v.Kind != want:
			return v.ModelStates, fmt.Errorf("%s (%s), want %s", v.Kind, v.Detail, want)
		case v.Kind == conformance.InterpreterError || v.Kind == conformance.BudgetExceeded:
			return v.ModelStates, fmt.Errorf("%s: %s", v.Kind, v.Detail)
		}
		return v.ModelStates, nil
	}}
}

// learnJob learns the variant's ECU with L*, then checks the learned
// automaton and the extracted model against each other both ways.
func learnJob(input string, v learn.Variant, seed int64, want string) job {
	return job{input, func(t *tracer) (int, error) {
		dfa, err := learnVariant(t, v, seed)
		if err != nil {
			return 0, err
		}
		sys, _, err := learn.BuildReference(learn.CampaignConfig{}, v)
		if err != nil {
			return 0, err
		}
		learned, err := dfa.Lower(sys.Model.Env, "LEARNED")
		if err != nil {
			return 0, err
		}
		extracted := csp.Call("ECU")
		m := &cspm.Model{Env: sys.Model.Env, Ctx: sys.Model.Ctx, Asserts: []cspm.ResolvedAssert{
			{Kind: cspm.AssertTraceRef, Spec: extracted, Impl: learned, Text: "learned refines extracted"},
			{Kind: cspm.AssertTraceRef, Spec: learned, Impl: extracted, Text: "extracted refines learned"},
		}}
		verdicts, states, err := checkAll(t, m)
		if err != nil {
			return 0, err
		}
		got := "diverges"
		if verdicts[0] == "holds" && verdicts[1] == "holds" {
			got = "trace-equivalent"
		}
		if got != want {
			return states, fmt.Errorf("%s, want %s", got, want)
		}
		return states, nil
	}}
}
