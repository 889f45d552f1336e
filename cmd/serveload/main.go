// Command serveload is the chaos soak for the fdrserve daemon: it
// fires a seeded, fuzzed schedule of requests — healthy checks,
// malformed CSPm, oversized bodies, mid-flight cancels, slow-loris
// connections, overload bursts and injected handler panics — at a
// server and asserts the robustness contract throughout: the server
// stays live, every accepted request yields verdicts byte-identical to
// an in-process oracle run of the same model, overload is rejected
// with 429 rather than queue collapse, and no goroutines leak.
//
// Usage:
//
//	serveload [-seed 42] [-requests 40] [-workers 2] [-queue 3]
//	serveload -smoke -addr http://127.0.0.1:8080
//	serveload -submit -addr http://127.0.0.1:8080
//	serveload -collect -addr http://127.0.0.1:8080
//	serveload -crash [-seed 42] [-kills 6]
//
// The default mode self-hosts a chaos-enabled server in-process (the
// soak); -smoke instead checks the OTA corpus against an externally
// started fdrserve and diffs the verdicts — the CI smoke step.
//
// -submit and -collect drive the durable-job API of an external server:
// -submit enqueues the corpus as jobs and exits without waiting (so the
// server can be SIGKILLed mid-run), -collect resubmits the identical
// requests (idempotent, same content-addressed ids) and polls until
// every job is done, diffing the verdicts against the oracle. Together
// they are the CI kill/restart/resume smoke.
//
// -crash is the in-process kill schedule: it self-hosts a durable
// server, submits corpus and heavy jobs, kills and reboots the server
// repeatedly at randomized delays, and asserts that every job still
// converges to oracle-identical verdicts with no goroutine leaked.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/leakcheck"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

// corpusModel is one known model with its oracle verdicts.
type corpusModel struct {
	name     string
	source   string
	expected []serve.AssertVerdict
}

// oracleBudget is the budget used for both the oracle runs and the
// request bodies, small enough that the server never clamps it and no
// cap fires on the corpus models — so verdicts depend on nothing but
// the model.
var oracleBudget = serve.BudgetSpec{MaxStates: 1 << 18}

// expectVerdicts is the independent oracle: it converts library check
// results into wire verdicts without going through internal/serve's
// own conversion, so a server-side corruption cannot cancel out.
func expectVerdicts(src string) ([]serve.AssertVerdict, error) {
	model, err := cspm.Load(src)
	if err != nil {
		return nil, err
	}
	bgt := fdr.Budget{MaxStates: oracleBudget.MaxStates, Cache: lts.NewCache()}
	out := make([]serve.AssertVerdict, 0, len(model.Asserts))
	for _, a := range model.Asserts {
		res, err := fdr.RunAssertBudget(model, a, bgt)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", a.Text, err)
		}
		v := serve.AssertVerdict{
			Assert:        a.Text,
			Holds:         res.Holds,
			Reason:        res.Reason,
			ImplStates:    res.ImplStates,
			SpecNodes:     res.SpecNodes,
			ProductStates: res.ProductStates,
		}
		for _, ev := range res.Counterexample {
			v.Counterexample = append(v.Counterexample, ev.String())
		}
		out = append(out, v)
	}
	return out, nil
}

// buildCorpus assembles the known-model corpus: the paper's OTA system,
// its flawed and deadlocked variants, and both lossy-channel gateways.
func buildCorpus() ([]corpusModel, error) {
	var out []corpusModel
	add := func(name string, sys *ota.System, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		exp, err := expectVerdicts(sys.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, corpusModel{name: name, source: sys.Source, expected: exp})
		return nil
	}
	sys, err := ota.Build()
	if err := add("ota", sys, err); err != nil {
		return nil, err
	}
	sys, err = ota.BuildFlawed()
	if err := add("ota-flawed", sys, err); err != nil {
		return nil, err
	}
	sys, err = ota.BuildDeadlocked()
	if err := add("ota-deadlocked", sys, err); err != nil {
		return nil, err
	}
	sys, err = ota.BuildLossy(ota.HardenedGateway, 1)
	if err := add("ota-lossy-hardened", sys, err); err != nil {
		return nil, err
	}
	sys, err = ota.BuildLossy(ota.NaiveGateway, 1)
	if err := add("ota-lossy-naive", sys, err); err != nil {
		return nil, err
	}
	return out, nil
}

// heavyModel generates a unique, never-cached model whose exploration
// is big enough to hold a worker busy: id makes the channel names (and
// so the cache key) fresh, and k two-state processes interleaved give
// 2^k syntactically distinct product states.
func heavyModel(id, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "channel h%d, t%d\n", id, id)
	fmt.Fprintf(&b, "P%d = h%d -> t%d -> P%d\n", id, id, id, id)
	b.WriteString(fmt.Sprintf("SYS%d = ", id))
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(" ||| ")
		}
		fmt.Fprintf(&b, "P%d", id)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "assert SYS%d :[deadlock free]\n", id)
	return b.String()
}

// harness carries the soak state.
type harness struct {
	base    string
	httpc   *http.Client
	rng     *rand.Rand
	corpus  []corpusModel
	cli     *client.Client
	verbose bool

	events     map[string]int
	violations []string
	stdout     io.Writer
}

func (h *harness) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.violations = append(h.violations, msg)
	fmt.Fprintln(h.stdout, "VIOLATION:", msg)
}

func (h *harness) logf(format string, args ...any) {
	if h.verbose {
		fmt.Fprintf(h.stdout, format+"\n", args...)
	}
}

// post sends one raw request without retries.
func (h *harness) post(ctx context.Context, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/check", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.httpc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return resp.StatusCode, rb, resp.Header, err
}

// checkHealth asserts the liveness endpoint still answers 200 — the
// "server stays live" invariant probed after every chaos event.
func (h *harness) checkHealth(when string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	resp, err := h.httpc.Do(req)
	if err != nil {
		h.fail("healthz unreachable after %s: %v", when, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.fail("healthz returned %d after %s", resp.StatusCode, when)
	}
}

// compareVerdicts diffs got against want byte-for-byte via canonical
// JSON.
func (h *harness) compareVerdicts(name string, got, want []serve.AssertVerdict) {
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		h.fail("%s: verdicts diverge from oracle\n got: %s\nwant: %s", name, gj, wj)
	}
}

// evValid checks one random corpus model through the retrying client
// and diffs the verdicts against the oracle.
func (h *harness) evValid(ctx context.Context) {
	m := h.corpus[h.rng.Intn(len(h.corpus))]
	resp, err := h.cli.Check(ctx, serve.CheckRequest{CSPM: m.source, Budget: &oracleBudget})
	if err != nil {
		h.fail("valid %s: %v", m.name, err)
		return
	}
	if resp.Error != "" {
		h.fail("valid %s: server error %q", m.name, resp.Error)
		return
	}
	h.compareVerdicts(m.name, resp.Results, m.expected)
	h.logf("valid %s: %d verdicts ok", m.name, len(resp.Results))
}

// evMalformedJSON posts a body that is not JSON; the server must answer
// 400 without consuming a worker.
func (h *harness) evMalformedJSON(ctx context.Context) {
	status, _, _, err := h.post(ctx, []byte(`{"cspm": unterminated`), nil)
	if err != nil {
		h.fail("malformed-json: transport error: %v", err)
		return
	}
	if status != http.StatusBadRequest {
		h.fail("malformed-json: got %d, want 400", status)
	}
}

// evBadCSPM posts valid JSON around an unparseable model; 400 with a
// structured cspm error.
func (h *harness) evBadCSPM(ctx context.Context) {
	bad := []string{
		"P = [] ->",
		"datatype = |||",
		"assert NOPE [T= MISSING",
		"channel\nP = -> Q",
	}[h.rng.Intn(4)]
	body, _ := json.Marshal(serve.CheckRequest{CSPM: bad})
	status, rb, _, err := h.post(ctx, body, nil)
	if err != nil {
		h.fail("bad-cspm: transport error: %v", err)
		return
	}
	if status != http.StatusBadRequest {
		h.fail("bad-cspm: got %d (%s), want 400", status, rb)
	}
}

// evOversized posts a body past the server cap; 413.
func (h *harness) evOversized(ctx context.Context) {
	big := serve.CheckRequest{CSPM: "-- " + strings.Repeat("x", 1<<20)}
	body, _ := json.Marshal(big)
	status, _, _, err := h.post(ctx, body, nil)
	if err != nil {
		h.fail("oversized: transport error: %v", err)
		return
	}
	if status != http.StatusRequestEntityTooLarge {
		h.fail("oversized: got %d, want 413", status)
	}
}

// evCancel starts a heavy check and cancels it mid-flight; the
// transport must error with the cancellation and the server must stay
// healthy with its worker freed (verified by the follow-up valid
// check).
func (h *harness) evCancel(ctx context.Context, id int) {
	src := heavyModel(id, 17)
	body, _ := json.Marshal(serve.CheckRequest{CSPM: src})
	cctx, cancel := context.WithTimeout(ctx, time.Duration(2+h.rng.Intn(40))*time.Millisecond)
	defer cancel()
	_, _, _, err := h.post(cctx, body, nil)
	if err == nil {
		// The check won the race — legal for the shortest timeouts.
		h.logf("cancel %d: completed before the cancel fired", id)
		return
	}
	if !strings.Contains(err.Error(), "context deadline exceeded") &&
		!strings.Contains(err.Error(), "context canceled") {
		h.fail("cancel %d: unexpected transport error: %v", id, err)
	}
}

// evPanic injects a handler panic via the chaos header; the server must
// answer a structured 500 and survive.
func (h *harness) evPanic(ctx context.Context) {
	m := h.corpus[0]
	body, _ := json.Marshal(serve.CheckRequest{CSPM: m.source})
	status, rb, _, err := h.post(ctx, body, map[string]string{"X-Chaos-Panic": "1"})
	if err != nil {
		h.fail("panic: transport error: %v", err)
		return
	}
	if status != http.StatusInternalServerError {
		h.fail("panic: got %d, want 500", status)
		return
	}
	var cr serve.CheckResponse
	if err := json.Unmarshal(rb, &cr); err != nil || !strings.Contains(cr.Error, "panicked") {
		h.fail("panic: want structured panic error, got %q", rb)
	}
}

// evBurst fires more concurrent heavy checks than the server has
// worker slots and queue positions; at least one must be rejected with
// 429 + Retry-After, none may fail the transport, and the server must
// not collapse.
func (h *harness) evBurst(ctx context.Context, id, slots int) {
	n := slots + 3
	type res struct {
		status int
		header http.Header
		err    error
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(serve.CheckRequest{CSPM: heavyModel(id*1000+i, 13)})
		go func(b []byte) {
			defer func() {
				// A panicking burst sender must still report, or the
				// collection loop below deadlocks the soak.
				if r := recover(); r != nil {
					results <- res{err: fmt.Errorf("burst sender panicked: %v", r)}
				}
			}()
			status, _, hdr, err := h.post(ctx, b, nil)
			results <- res{status, hdr, err}
		}(body)
	}
	rejected, completed := 0, 0
	for i := 0; i < n; i++ {
		r := <-results
		switch {
		case r.err != nil:
			h.fail("burst %d: transport error: %v", id, r.err)
		case r.status == http.StatusTooManyRequests:
			rejected++
			if r.header.Get("Retry-After") == "" {
				h.fail("burst %d: 429 without Retry-After", id)
			}
		case r.status == http.StatusOK:
			completed++
		default:
			h.fail("burst %d: unexpected status %d", id, r.status)
		}
	}
	if rejected == 0 {
		h.fail("burst %d: %d concurrent requests against %d slots produced no 429", id, n, slots)
	}
	h.logf("burst %d: %d completed, %d rejected with 429", id, completed, rejected)
}

// evSlowLoris opens a connection, dribbles a partial request and holds;
// the server's read timeouts must reap it instead of tying up a
// connection (and, before the fix, eventually the file-descriptor
// table).
func (h *harness) evSlowLoris(addr string) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		h.fail("slowloris: dial: %v", err)
		return
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n")
	io.WriteString(conn, `{"cspm": "`)
	// Hold the connection past the server's read timeout; the server
	// must close it.
	conn.SetReadDeadline(time.Now().Add(8 * time.Second))
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			if netErr, ok := err.(net.Error); ok && netErr.Timeout() {
				h.fail("slowloris: server kept the half-open connection past its read timeout")
			}
			return // closed by the server: the desired outcome
		}
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "chaos schedule seed")
	requests := fs.Int("requests", 40, "number of chaos events")
	workers := fs.Int("workers", 2, "self-hosted server worker slots")
	queue := fs.Int("queue", 3, "self-hosted server admission queue")
	smoke := fs.Bool("smoke", false, "smoke mode: verify the OTA corpus against -addr and exit")
	submit := fs.Bool("submit", false, "submit the corpus as durable jobs to -addr and exit without waiting")
	collect := fs.Bool("collect", false, "poll the corpus jobs on -addr until done and diff the verdicts")
	crash := fs.Bool("crash", false, "in-process kill/restart/resume schedule against a self-hosted durable server")
	kills := fs.Int("kills", 6, "crash mode: number of kill/restart cycles")
	addr := fs.String("addr", "", "external server base URL (smoke/submit/collect modes)")
	verbose := fs.Bool("v", false, "log every event")
	if err := fs.Parse(args); err != nil {
		return err
	}

	corpus, err := buildCorpus()
	if err != nil {
		return fmt.Errorf("build corpus: %w", err)
	}

	switch {
	case *smoke:
		if *addr == "" {
			return fmt.Errorf("-smoke requires -addr")
		}
		return runSmoke(*addr, corpus, stdout)
	case *submit:
		if *addr == "" {
			return fmt.Errorf("-submit requires -addr")
		}
		return runSubmit(*addr, corpus, stdout)
	case *collect:
		if *addr == "" {
			return fmt.Errorf("-collect requires -addr")
		}
		return runCollect(*addr, corpus, stdout)
	case *crash:
		return runCrash(*seed, *kills, *verbose, corpus, stdout)
	}
	return runChaos(*seed, *requests, *workers, *queue, *verbose, corpus, stdout)
}

// runSmoke is the CI smoke: every corpus model checked once against an
// external server, verdicts diffed against the oracle.
func runSmoke(addr string, corpus []corpusModel, stdout io.Writer) error {
	h := &harness{
		base:   strings.TrimRight(addr, "/"),
		httpc:  &http.Client{Timeout: 60 * time.Second},
		corpus: corpus,
		events: map[string]int{},
		stdout: stdout,
	}
	h.cli = client.New(h.base)
	h.cli.HTTP = h.httpc
	ctx := context.Background()
	total := 0
	for _, m := range corpus {
		resp, err := h.cli.Check(ctx, serve.CheckRequest{CSPM: m.source, Budget: &oracleBudget})
		if err != nil {
			return fmt.Errorf("smoke %s: %w", m.name, err)
		}
		h.compareVerdicts(m.name, resp.Results, m.expected)
		total += len(resp.Results)
		fmt.Fprintf(stdout, "smoke %-20s %d assertion(s) match\n", m.name, len(resp.Results))
	}
	h.checkHealth("smoke")
	if len(h.violations) > 0 {
		return fmt.Errorf("%d violation(s)", len(h.violations))
	}
	fmt.Fprintf(stdout, "smoke ok: %d models, %d assertions, verdicts identical to in-process checks\n",
		len(corpus), total)
	return nil
}

// runChaos self-hosts a chaos-enabled server and fires the seeded
// schedule at it.
func runChaos(seed int64, requests, workers, queue int, verbose bool, corpus []corpusModel, stdout io.Writer) error {
	observer := obs.New()
	srv := serve.New(serve.Config{
		Workers:     workers,
		MaxQueue:    queue,
		MaxDuration: 20 * time.Second,
		Obs:         observer,
		EnableChaos: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 1 * time.Second,
		ReadTimeout:       2 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		defer func() {
			// A panic escaping the HTTP stack would fail the soak by
			// taking healthz down; never take the harness down with it.
			_ = recover()
		}()
		_ = httpSrv.Serve(ln)
	}()

	h := &harness{
		base:    "http://" + ln.Addr().String(),
		httpc:   &http.Client{},
		rng:     rand.New(rand.NewSource(seed)),
		corpus:  corpus,
		verbose: verbose,
		events:  map[string]int{},
		stdout:  stdout,
	}
	h.cli = client.New(h.base)
	h.cli.HTTP = h.httpc
	h.cli.Rand = rand.New(rand.NewSource(seed + 1))

	ctx := context.Background()
	// The schedule opens with one event of every kind — a chaos soak
	// that randomly skipped the panic injection would prove nothing —
	// then draws the rest from the seeded rng.
	kinds := []string{"valid", "malformed-json", "bad-cspm", "oversized", "cancel", "panic", "burst", "slowloris"}
	weights := []int{35, 10, 10, 5, 15, 5, 10, 5}
	pick := func(i int) string {
		if i < len(kinds) {
			return kinds[i]
		}
		total := 0
		for _, w := range weights {
			total += w
		}
		n := h.rng.Intn(total)
		for j, w := range weights {
			if n < w {
				return kinds[j]
			}
			n -= w
		}
		return "valid"
	}
	start := time.Now()
	for i := 0; i < requests; i++ {
		kind := pick(i)
		h.events[kind]++
		switch kind {
		case "valid":
			h.evValid(ctx)
		case "malformed-json":
			h.evMalformedJSON(ctx)
		case "bad-cspm":
			h.evBadCSPM(ctx)
		case "oversized":
			h.evOversized(ctx)
		case "cancel":
			h.evCancel(ctx, i)
		case "panic":
			h.evPanic(ctx)
		case "burst":
			h.evBurst(ctx, i, workers+queue)
		case "slowloris":
			h.evSlowLoris(ln.Addr().String())
		}
		h.checkHealth(kind)
	}

	// Drain: readiness flips, new work is rejected, in-flight finishes.
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	drainStart := time.Now()
	if err := srv.Drain(drainCtx); err != nil {
		h.fail("drain: %v", err)
	}
	if status, _, _, err := h.post(ctx, []byte(`{"cspm":"P = STOP"}`), nil); err != nil {
		h.fail("post-drain request: transport error: %v", err)
	} else if status != http.StatusServiceUnavailable {
		h.fail("post-drain request: got %d, want 503", status)
	}
	h.checkHealth("drain")
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		h.fail("shutdown: %v", err)
	}
	<-serveDone
	h.httpc.CloseIdleConnections()

	// The robustness bottom line: nothing the chaos schedule did may
	// leave a goroutine behind.
	if err := leakcheck.Settle(8 * time.Second); err != nil {
		h.fail("%v", err)
	}

	snap := observer.Snapshot()
	fmt.Fprintf(stdout, "serveload: %d events in %v (drain %v)\n", requests,
		time.Since(start).Round(time.Millisecond), time.Since(drainStart).Round(time.Millisecond))
	var kindNames []string
	for k := range h.events {
		kindNames = append(kindNames, k)
	}
	sort.Strings(kindNames)
	for _, k := range kindNames {
		fmt.Fprintf(stdout, "  %-16s %d\n", k, h.events[k])
	}
	for _, c := range []string{"serve.accepted", "serve.completed", "serve.rejected.overload",
		"serve.rejected.malformed", "serve.rejected.oversized", "serve.panics", "serve.canceled"} {
		fmt.Fprintf(stdout, "  %-28s %d\n", c, snap.Counters[c])
	}
	if snap.Counters["serve.panics"] == 0 {
		h.fail("chaos schedule never exercised the panic-isolation path")
	}
	if snap.Counters["serve.rejected.overload"] == 0 {
		h.fail("chaos schedule never exercised admission control")
	}
	if len(h.violations) > 0 {
		return fmt.Errorf("%d violation(s)", len(h.violations))
	}
	fmt.Fprintln(stdout, "serveload: all invariants held")
	return nil
}

// submitJob posts one request to the durable-job endpoint. Both 202
// (new job) and 200 (already known — the idempotent resubmission path)
// are success.
func submitJob(ctx context.Context, httpc *http.Client, base string, req serve.CheckRequest) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(hreq)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("submit: status %d: %s", resp.StatusCode, rb)
	}
	if err := json.Unmarshal(rb, &st); err != nil {
		return st, fmt.Errorf("submit: decode: %w", err)
	}
	if st.ID == "" {
		return st, fmt.Errorf("submit: empty job id in %s", rb)
	}
	return st, nil
}

// pollJob polls the job until it reports done or ctx expires.
func pollJob(ctx context.Context, httpc *http.Client, base, id string) (*serve.CheckResponse, error) {
	for {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err != nil {
			return nil, err
		}
		resp, err := httpc.Do(hreq)
		if err == nil {
			rb, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				var st serve.JobStatus
				if err := json.Unmarshal(rb, &st); err == nil && st.State == serve.JobDone {
					if st.Response == nil {
						return nil, fmt.Errorf("job %s done without a response", id)
					}
					return st.Response, nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %s: %w", id, ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// jobRequest builds the corpus request a job mode submits; submit and
// collect must build byte-identical requests so the content-addressed
// ids line up across process restarts.
func jobRequest(m corpusModel) serve.CheckRequest {
	return serve.CheckRequest{CSPM: m.source, Budget: &oracleBudget}
}

// runSubmit enqueues the corpus as durable jobs and exits without
// waiting — the server may then be SIGKILLed mid-run by the caller.
func runSubmit(addr string, corpus []corpusModel, stdout io.Writer) error {
	base := strings.TrimRight(addr, "/")
	httpc := &http.Client{Timeout: 30 * time.Second}
	ctx := context.Background()
	for _, m := range corpus {
		st, err := submitJob(ctx, httpc, base, jobRequest(m))
		if err != nil {
			return fmt.Errorf("submit %s: %w", m.name, err)
		}
		fmt.Fprintf(stdout, "submitted %-20s %s (%s)\n", m.name, st.ID, st.State)
	}
	fmt.Fprintf(stdout, "submit ok: %d jobs\n", len(corpus))
	return nil
}

// runCollect resubmits the corpus (idempotent: same content-addressed
// ids), waits for every job to finish and diffs the verdicts against
// the oracle — run it against a server that was killed and restarted to
// prove no verdict changed across the crash.
func runCollect(addr string, corpus []corpusModel, stdout io.Writer) error {
	base := strings.TrimRight(addr, "/")
	httpc := &http.Client{Timeout: 30 * time.Second}
	h := &harness{base: base, httpc: httpc, corpus: corpus, events: map[string]int{}, stdout: stdout}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, m := range corpus {
		st, err := submitJob(ctx, httpc, base, jobRequest(m))
		if err != nil {
			return fmt.Errorf("collect %s: %w", m.name, err)
		}
		resp, err := pollJob(ctx, httpc, base, st.ID)
		if err != nil {
			return fmt.Errorf("collect %s: %w", m.name, err)
		}
		if resp.Error != "" {
			h.fail("collect %s: server error %q", m.name, resp.Error)
			continue
		}
		h.compareVerdicts(m.name, resp.Results, m.expected)
		fmt.Fprintf(stdout, "collected %-20s %d assertion(s) match\n", m.name, len(resp.Results))
	}
	if len(h.violations) > 0 {
		return fmt.Errorf("%d violation(s)", len(h.violations))
	}
	fmt.Fprintf(stdout, "collect ok: %d jobs, verdicts identical to in-process checks\n", len(corpus))
	return nil
}

// crashServer is one life of the self-hosted durable server in crash
// mode.
type crashServer struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	obs     *obs.Observer
	done    chan struct{}
}

func bootCrashServer(dataDir string) (*crashServer, error) {
	observer := obs.New()
	srv := serve.New(serve.Config{
		Workers:               2,
		MaxDuration:           60 * time.Second,
		DataDir:               dataDir,
		CheckpointEveryLevels: 1,
		Obs:                   observer,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	cs := &crashServer{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		obs:     observer,
		done:    make(chan struct{}),
	}
	go func() {
		defer close(cs.done)
		defer func() { _ = recover() }()
		_ = cs.httpSrv.Serve(ln)
	}()
	return cs, nil
}

// kill tears this life down the crash way: jobs aborted mid-level,
// verdicts discarded, connections severed — nothing drained.
func (cs *crashServer) kill() {
	cs.srv.Kill()
	_ = cs.httpSrv.Close()
	<-cs.done
}

// runCrash is the kill/restart/resume schedule: a durable server is
// killed at randomized delays while corpus and heavy jobs run, and
// after the last reboot every job must converge to verdicts
// byte-identical to the oracle.
func runCrash(seed int64, kills int, verbose bool, corpus []corpusModel, stdout io.Writer) error {
	rng := rand.New(rand.NewSource(seed))
	dataDir, err := os.MkdirTemp("", "serveload-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	// Heavy never-cached jobs so the kills land mid-exploration, plus the
	// full corpus for verdict breadth. Oracle verdicts come from the same
	// independent path the other modes use.
	jobs := make([]corpusModel, 0, len(corpus)+3)
	jobs = append(jobs, corpus...)
	for i := 0; i < 3; i++ {
		src := heavyModel(9000+int(seed)*10+i, 13)
		exp, err := expectVerdicts(src)
		if err != nil {
			return fmt.Errorf("heavy oracle: %w", err)
		}
		jobs = append(jobs, corpusModel{name: fmt.Sprintf("heavy-%d", i), source: src, expected: exp})
	}

	h := &harness{rng: rng, corpus: corpus, verbose: verbose, events: map[string]int{}, stdout: stdout}
	httpc := &http.Client{Timeout: 30 * time.Second}
	h.httpc = httpc

	cs, err := bootCrashServer(dataDir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, m := range jobs {
		if _, err := submitJob(ctx, httpc, cs.base, jobRequest(m)); err != nil {
			cs.kill()
			return fmt.Errorf("crash submit %s: %w", m.name, err)
		}
	}

	var recovered int64
	for i := 0; i < kills; i++ {
		delay := time.Duration(5+rng.Intn(76)) * time.Millisecond
		time.Sleep(delay)
		cs.kill()
		httpc.CloseIdleConnections()
		h.logf("kill %d after %v", i, delay)
		cs, err = bootCrashServer(dataDir)
		if err != nil {
			return fmt.Errorf("reboot %d: %w", i, err)
		}
		recovered += cs.obs.Counter("serve.jobs.recovered").Value()
	}

	// Last life: every job must finish with oracle verdicts.
	pollCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	for _, m := range jobs {
		st, err := submitJob(pollCtx, httpc, cs.base, jobRequest(m))
		if err != nil {
			h.fail("crash resubmit %s: %v", m.name, err)
			continue
		}
		resp, err := pollJob(pollCtx, httpc, cs.base, st.ID)
		if err != nil {
			h.fail("crash collect %s: %v", m.name, err)
			continue
		}
		if resp.Error != "" {
			h.fail("crash %s: server error %q", m.name, resp.Error)
			continue
		}
		h.compareVerdicts(m.name, resp.Results, m.expected)
		h.logf("crash %s: %d verdicts ok", m.name, len(resp.Results))
	}
	resumes := cs.obs.Counter("lts.checkpoint.resumes").Value()
	cs.kill()
	httpc.CloseIdleConnections()

	if recovered == 0 {
		h.fail("no reboot ever recovered a pending job — the kill schedule proved nothing")
	}
	if err := leakcheck.Settle(8 * time.Second); err != nil {
		h.fail("%v", err)
	}
	if len(h.violations) > 0 {
		return fmt.Errorf("%d violation(s)", len(h.violations))
	}
	fmt.Fprintf(stdout, "crash ok: %d jobs through %d kills (recovered %d pending, %d checkpoint resumes in the last life), verdicts identical to in-process checks\n",
		len(jobs), kills, recovered, resumes)
	return nil
}
