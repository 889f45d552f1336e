package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ota"
	"repro/internal/serve"
)

// serve-mixed: POST /v1/check to an in-process fdrserve handler
// (serve.New with the default Config, on httptest.NewServer) under
// open-loop Poisson arrivals. Load comes from this process only: two load
// goroutines over at most two keep-alive connections. 80% of requests
// repeat one of eight hot scripts, 20% are unique generated systems.
// The heaviest hot script, the lossy-hardened composition, is sent twice
// per cycle of the hot set (18% of requests), so that p90 falls inside
// its latency band rather than on the edge of it.

// capacity is what two closed-loop clients sustained on this request
// mix over a 20 s run on a 2-CPU x86-64 host (Go 1.24), measured once
// when the benchmark was written. The server's cache grows all run (see
// README.md), so later seconds are slower than the first ones; the rates
// below are frozen fractions of it, so every commit is offered the same
// load.
const capacity = 200.0 // req/s

// ladder is the offered load of each step in req/s. refStep, 20% of
// capacity, is the reference rate the end-to-end metrics are measured at:
// at 40% the queue behind the lossy composition and the collector's work
// on the growing cache made p50 swing by a third from run to run.
var ladder = []float64{0.2 * capacity, 0.4 * capacity, 0.6 * capacity, 0.8 * capacity, 1.0 * capacity}

const (
	refStep = 0
	// loaders is the number of load goroutines and of connections.
	loaders = 2
	// ladderSeconds is the length of each other step, run only by the
	// traced run, which reports max_rate_rps.
	ladderSeconds = 3
	// latencyLimitMs is the p90 a ladder step must stay within to count
	// towards max_rate_rps.
	latencyLimitMs = 50
	// serveBurst is how long the speed probe runs before and after the
	// reference step.
	serveBurst = 500 * time.Millisecond
	// uniqueMin and uniqueMax bound the pair count of unique scripts.
	uniqueMin, uniqueMax = 2, 40
)

// script is one request body with its known verdicts.
type script struct {
	input string
	body  []byte
	want  []string
}

func newScript(input, cspm string, want []string) *script {
	body, _ := json.Marshal(serve.CheckRequest{CSPM: cspm}) // strings always encode
	return &script{input: input, body: body, want: want}
}

// arrival is one request of a step: when it is due after the step
// starts, and what it sends.
type arrival struct {
	due    time.Duration
	script *script
}

// reply is the outcome of one request.
type reply struct {
	latency time.Duration // completion minus due time
	late    time.Duration // send time minus due time
	client  time.Duration // completion minus send time
	states  int
	err     error
}

// serveLayer carries the serve-mixed per-layer numbers read from outside
// the client spans.
type serveLayer struct {
	cacheHits, cacheMisses float64
	maxRate                float64
	checkMs, waitMs        float64
	lateP99, lateMax       float64
}

type serveBench struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	steps  [][]arrival // one arrival list per ladder step
}

// hotScripts builds the eight repeated scripts: the five ota.Build*
// systems, two lossy compositions and a 16-pair system.
func hotScripts(rng *rand.Rand) ([]*script, error) {
	var out []*script
	for _, b := range []struct {
		input string
		build func() (*ota.System, error)
	}{
		{"ota-build", ota.Build},
		{"ota-flawed", ota.BuildFlawed},
		{"ota-deadlocked", ota.BuildDeadlocked},
		{"ota-timers", ota.BuildWithTimers},
		{"ota-x1373", ota.BuildFullX1373},
		{"lossy-naive-b1", func() (*ota.System, error) { return ota.BuildLossy(ota.NaiveGateway, 1) }},
		{"lossy-hardened-b0", func() (*ota.System, error) { return ota.BuildLossy(ota.HardenedGateway, 0) }},
	} {
		sys, err := b.build()
		if err != nil {
			return nil, err
		}
		want, err := wantAsserts(b.input)
		if err != nil {
			return nil, err
		}
		out = append(out, newScript(b.input, sys.Source, want))
	}
	return append(out, newScript("pairs-16", pairCSPm(rng, 16), holdsAll(pairAsserts))), nil
}

// genArrivals draws n = rate × seconds Poisson arrivals (at least
// minJobs, stretching a short step) over the step: exponential gaps
// scaled so the step holds exactly n. One request in
// each block of five is a unique script; the others go through the hot
// cycle in a fresh random order each time round.
func genArrivals(rng *rand.Rand, rate, seconds float64, hot []*script, d *digest) []arrival {
	n := max(minJobs, int(math.Round(rate*seconds)))
	seconds = float64(n) / rate
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	unique := make([]bool, n)
	for i := 0; i < n; i += 5 {
		unique[i+rng.Intn(min(5, n-i))] = true
	}
	out := make([]arrival, n)
	var hotOrder, sizes []int
	at := 0.0
	for i := range out {
		at += gaps[i]
		out[i].due = time.Duration(at / total * seconds * float64(time.Second))
		if unique[i] {
			if len(sizes) == 0 {
				sizes = rng.Perm(uniqueMax - uniqueMin + 1)
			}
			size := uniqueMin + sizes[0]
			sizes = sizes[1:]
			src := pairCSPm(rng, size)
			out[i].script = newScript(fmt.Sprintf("pairs-%d", size), src, holdsAll(pairAsserts))
			d.add(out[i].script.input, src)
			continue
		}
		if len(hotOrder) == 0 {
			hotOrder = rng.Perm(len(hot))
		}
		out[i].script = hot[hotOrder[0]]
		hotOrder = hotOrder[1:]
		d.add(out[i].script.input)
	}
	return out
}

func setupServe(seed int64, seconds float64) (*prepared, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDigest()
	hot, err := hotScripts(rng)
	if err != nil {
		return nil, err
	}
	cycle := hot
	for _, s := range hot {
		d.add(s.input, string(s.body))
		if s.input == "lossy-hardened-b0" {
			cycle = append(cycle[:len(cycle):len(cycle)], s)
		}
	}
	b := &serveBench{}
	for i, rate := range ladder {
		secs := float64(ladderSeconds)
		if i == refStep {
			secs = seconds
		}
		d.add(fmt.Sprintf("step %g req/s for %gs", rate, secs))
		b.steps = append(b.steps, genArrivals(rng, rate, secs, cycle, d))
	}

	b.srv = serve.New(serve.Config{})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: loaders, MaxIdleConnsPerHost: loaders}}
	for _, s := range hot { // warm-up: every hot script once
		if _, err := b.post(s); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &prepared{digest: d.sum(), measure: b.measure, close: b.close}, nil
}

func (b *serveBench) close() {
	b.ts.Close()
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx) // nothing is in flight once ts.Close returns
}

// post sends one script and checks the verdicts of the response.
func (b *serveBench) post(s *script) (int, error) {
	resp, err := b.client.Post(b.ts.URL+"/v1/check", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var cr serve.CheckResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	_, _ = io.Copy(io.Discard, resp.Body) // so the connection is reused
	switch {
	case err != nil:
		return 0, err
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("%s: status %d: %s", s.input, resp.StatusCode, cr.Error)
	}
	verdicts := make([]string, len(cr.Results))
	states := 0
	for i, v := range cr.Results {
		switch {
		case v.Error != "":
			return 0, fmt.Errorf("%s: %s: %s", s.input, v.Assert, v.Error)
		case v.Holds:
			verdicts[i] = "holds"
		default:
			verdicts[i] = "fails <" + strings.Join(v.Counterexample, ", ") + ">"
		}
		states += v.ImplStates
	}
	return states, matchVerdicts(s.input, s.want, verdicts)
}

// runStep offers one step's arrivals from the load goroutines. A request
// is timed from when it was due, so a generator that falls behind shows
// as latency, not as a lower offered rate.
func (b *serveBench) runStep(arrivals []arrival, tracers []*tracer) ([]reply, time.Duration) {
	replies := make([]reply, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, tr := range tracers {
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				due := start.Add(arrivals[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				tr.job = i
				sp := tr.begin("serve.request")
				states, err := b.post(arrivals[i].script)
				tr.end(sp)
				done := time.Now()
				replies[i] = reply{done.Sub(due), sent.Sub(due), done.Sub(sent), states, err}
			}
		}(tr)
	}
	wg.Wait()
	return replies, time.Since(start)
}

// measure offers the reference step. The speed probe runs before and
// after it, not during: it would compete with the server for the CPUs.
func (b *serveBench) measure(_ float64, traced bool, p *probe) result {
	p.burst(serveBurst)
	defer p.burst(serveBurst)
	base := time.Now()
	tracers := make([]*tracer, loaders)
	for i := range tracers {
		tracers[i] = newTracer(traced, base)
	}
	before, errBefore := b.serverMetrics()
	replies, wall := b.runStep(b.steps[refStep], tracers)
	after, errAfter := b.serverMetrics()

	r := result{wall: wall, loaders: loaders, offered: true}
	var late []float64
	var client time.Duration
	for i, rp := range replies {
		lat := ms(rp.latency)
		if rp.err != nil {
			lat = r.fail(b.steps[refStep][i].script.input, rp.err)
		}
		r.latencies = append(r.latencies, lat)
		r.states += int64(rp.states)
		late = append(late, ms(rp.late))
		client += rp.client
	}
	for _, err := range []error{errBefore, errAfter} {
		if err != nil {
			r.fail("GET /metrics", err)
		}
	}
	r.spans = merge(tracers)
	if !traced {
		return r
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	s := &r.serve
	s.cacheHits, s.cacheMisses = delta("lts.cache.hits"), delta("lts.cache.misses")
	s.checkMs = ratio(delta("serve.check.ns.sum"), delta("serve.check.ns.count")) / 1e6
	s.waitMs = ms(client)/float64(len(replies)) - s.checkMs
	s.lateP99, _ = percentile(late, 0.99) // 0 when the step is too short for a p99
	for _, l := range late {
		s.lateMax = math.Max(s.lateMax, l)
	}
	s.maxRate = b.maxRate(replies)
	return r
}

// maxRate runs the other ladder steps and returns the highest offered
// rate whose p90 stays within latencyLimitMs while the generator keeps
// up (mean lateness of the step's second half no more than 1 ms above
// its first half's). ref holds the replies of the reference step.
func (b *serveBench) maxRate(ref []reply) float64 {
	best := 0.0
	for i, rate := range ladder {
		replies := ref
		if i != refStep {
			replies, _ = b.runStep(b.steps[i], []*tracer{newTracer(false, time.Now()), newTracer(false, time.Now())})
		}
		if keepsUp(replies) {
			best = rate
		}
	}
	return best
}

func keepsUp(replies []reply) bool {
	lat := make([]float64, len(replies))
	var first, second time.Duration
	half := len(replies) / 2
	for i, r := range replies {
		if r.err != nil {
			return false
		}
		lat[i] = ms(r.latency)
		if i < half {
			first += r.late
		} else {
			second += r.late
		}
	}
	p90, err := percentile(lat, 0.9)
	grows := ms(second)/float64(len(replies)-half)-ms(first)/float64(half) > 1
	return err == nil && p90 <= latencyLimitMs && !grows
}

// serverMetrics reads the server's counters and histogram sums and
// counts from GET /metrics.
func (b *serveBench) serverMetrics() (map[string]float64, error) {
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter":
			out[f[1]], _ = strconv.ParseFloat(f[2], 64)
		case "histogram":
			for _, kv := range f[2:] {
				if k, v, ok := strings.Cut(kv, "="); ok && (k == "sum" || k == "count") {
					out[f[1]+"."+k], _ = strconv.ParseFloat(v, 64)
				}
			}
		}
	}
	return out, sc.Err()
}
