package main

import (
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/ota"
)

// check-large: deep state spaces with small alphabets (the lossy-channel
// compositions, the intruder models) and shallow ones with wide alphabets
// (request/response systems of 48–96 pairs, whose views hide about 2n
// events). Every input of a round is distinct and each job gets a fresh
// cache, so nothing is reused across jobs.

// checkSizes are the pair counts of the generated systems in a round.
var checkSizes = []int{48, 54, 60, 66, 72, 78, 84, 90, 96}

// checkJob checks every assertion of the model that model returns.
func checkJob(input string, want []string, model func(t *tracer) (*cspm.Model, error)) job {
	return job{input, func(t *tracer) (int, error) {
		m, err := model(t)
		if err != nil {
			return 0, err
		}
		verdicts, states, err := checkAll(t, m)
		if err != nil {
			return 0, err
		}
		return states, matchVerdicts(input, want, verdicts)
	}}
}

// scriptJob loads a CSPm script as part of the job.
func scriptJob(input, src string, want []string) job {
	return checkJob(input, want, func(t *tracer) (*cspm.Model, error) { return load(t, src) })
}

// modelJob checks trace-refinement assertions, spec and impl pairs, over
// a model built with the csp API during set-up.
func modelJob(input string, env *csp.Env, ctx *csp.Context, want []string, specImpl ...csp.Process) job {
	m := &cspm.Model{Env: env, Ctx: ctx}
	for i := 0; i < len(specImpl); i += 2 {
		m.Asserts = append(m.Asserts, cspm.ResolvedAssert{Kind: cspm.AssertTraceRef,
			Spec: specImpl[i], Impl: specImpl[i+1], Text: fmt.Sprintf("%s assertion %d", input, i/2+1)})
	}
	return checkJob(input, want, func(*tracer) (*cspm.Model, error) { return m, nil })
}

func setupCheck(seed int64, _ float64) (*prepared, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDigest()
	var round []job
	for _, l := range []struct {
		input   string
		variant ota.LossyVariant
		budget  int
	}{
		{"lossy-hardened-b1", ota.HardenedGateway, 1},
		{"lossy-hardened-b2", ota.HardenedGateway, 2},
		{"lossy-naive-b3", ota.NaiveGateway, 3},
	} {
		sys, err := ota.BuildLossy(l.variant, l.budget)
		if err != nil {
			return nil, err
		}
		want, err := wantAsserts(l.input)
		if err != nil {
			return nil, err
		}
		d.add(l.input, sys.Source)
		round = append(round, scriptJob(l.input, sys.Source, want))
	}
	for _, n := range checkSizes {
		src := pairCSPm(rng, n)
		input := fmt.Sprintf("pairs-%d", n)
		d.add(input, src)
		round = append(round, scriptJob(input, src, holdsAll(pairAsserts)))
	}

	sec, err := ota.BuildSecure(ota.MACNonce)
	if err != nil {
		return nil, err
	}
	nspk, err := attack.BuildNSPK(attack.NSPKConfig{})
	if err != nil {
		return nil, err
	}
	nsl, err := attack.BuildNSPK(attack.NSPKConfig{Fixed: true})
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		input    string
		env      *csp.Env
		ctx      *csp.Context
		build    string
		specImpl []csp.Process
	}{
		{"secure-macnonce", sec.Env, sec.Ctx, "ota.BuildSecure(MACNonce)",
			[]csp.Process{sec.AuthSpec, sec.System, sec.InjSpec, sec.System}},
		{"nspk", nspk.Env, nspk.Ctx, "attack.BuildNSPK{}", []csp.Process{nspk.AuthSpec, nspk.System}},
		{"nsl", nsl.Env, nsl.Ctx, "attack.BuildNSPK{Fixed}", []csp.Process{nsl.AuthSpec, nsl.System}},
	} {
		want, err := wantAsserts(m.input)
		if err != nil {
			return nil, err
		}
		d.add(m.input, m.build)
		round = append(round, modelJob(m.input, m.env, m.ctx, want, m.specImpl...))
	}
	return closedLoopBench(rng, round, d), nil
}
