package main

import (
	"math/rand"
	"time"
)

// job is one closed-loop unit of work: one input in, every verdict out
// and checked against its known answer. It returns the number of model
// states the checker visited.
type job struct {
	input string
	run   func(t *tracer) (states int, err error)
}

// minJobs keeps p90 reportable however short the run: with 100 samples,
// minBeyond lie above it.
const minJobs = 100

// closedLoop runs the round of jobs from one client, again and again,
// until seconds have passed and at least minJobs jobs ran. It always
// finishes a round, so every job of the round carries the same weight in
// the percentiles whatever the machine's speed. Between rounds, once
// probeEvery has passed, it runs the speed probe for a twentieth of the
// time since the last burst; the wall time excludes the bursts.
func closedLoop(round []job, seconds float64, traced bool, p *probe) result {
	start := time.Now()
	tr := newTracer(traced, start)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	r := result{loaders: 1}
	probed := p.busy
	p.burst(probeEvery / 20)
	lastBurst := time.Now()
	for len(r.latencies) < minJobs || time.Now().Before(deadline) {
		if since := time.Since(lastBurst); since >= probeEvery {
			p.burst(since / 20)
			lastBurst = time.Now()
		}
		for _, j := range round {
			tr.job = len(r.latencies)
			t0 := time.Now()
			states, err := j.run(tr)
			lat := ms(time.Since(t0))
			if err != nil {
				lat = r.fail(j.input, err)
			}
			r.latencies = append(r.latencies, lat)
			r.states += int64(states)
		}
	}
	p.burst(time.Since(lastBurst) / 20)
	r.wall = time.Since(start) - (p.busy - probed)
	r.spans = tr.spans
	return r
}

// closedLoopBench wraps a round as a prepared workload. The round is
// shuffled by the seed once; every round runs in that order. Set-up ends
// with one warm-up round, outside the measured rounds. Its errors are
// dropped: the same jobs fail again in the measured rounds, where they
// are counted.
func closedLoopBench(rng *rand.Rand, round []job, d *digest) *prepared {
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	off := newTracer(false, time.Now())
	for _, j := range round {
		d.add(j.input)
		_, _ = j.run(off)
	}
	return &prepared{
		digest:  d.sum(),
		measure: func(seconds float64, traced bool, p *probe) result { return closedLoop(round, seconds, traced, p) },
		close:   func() {},
	}
}
