package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

const tinyModel = `
channel a, b
SPEC = a -> SPEC
GOOD = a -> GOOD
assert SPEC [T= GOOD
assert GOOD :[deadlock free]
`

// heavySource builds a 2^k-state interleave model whose channel and
// process names carry id, so each test's model is its own.
func heavySource(id, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "channel h%d, t%d\n", id, id)
	fmt.Fprintf(&b, "P%d = h%d -> t%d -> P%d\n", id, id, id, id)
	fmt.Fprintf(&b, "SYS%d = ", id)
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(" ||| ")
		}
		fmt.Fprintf(&b, "P%d", id)
	}
	fmt.Fprintf(&b, "\nassert SYS%d :[deadlock free]\n", id)
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// Stop the job dispatcher so leakcheck sees a quiet process even in
	// tests that never drain.
	t.Cleanup(srv.Kill)
	return srv, ts
}

func postCheck(t *testing.T, ctx context.Context, base string, req CheckRequest, hdr map[string]string) (int, *CheckResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/check: %v", err)
	}
	defer resp.Body.Close()
	var out CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, &out
}

func TestCheckEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	status, resp := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%+v)", status, resp)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(resp.Results))
	}
	for _, v := range resp.Results {
		if !v.Holds || v.Error != "" {
			t.Errorf("verdict %+v, want holds with no error", v)
		}
	}
}

func TestRejectShapes(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"malformed json", http.MethodPost, `{"cspm": nope`, http.StatusBadRequest},
		{"empty cspm", http.MethodPost, `{"cspm": ""}`, http.StatusBadRequest},
		{"bad cspm", http.MethodPost, `{"cspm": "P = [] ->"}`, http.StatusBadRequest},
		{"oversized", http.MethodPost, `{"cspm": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+"/v1/check", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionOverload(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Fill the single worker slot and the single queue position with
	// heavy checks that we cancel on exit.
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			body, _ := json.Marshal(CheckRequest{CSPM: heavySource(9000+i, 18)})
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errc <- err
		}(i)
	}
	waitFor(t, "worker busy and queue full", 10*time.Second, func() bool {
		return srv.inflight.Load() == 1 && srv.waiting.Load() == 1
	})

	status, resp := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%+v)", status, resp)
	}
	if !strings.Contains(resp.Error, "overloaded") {
		t.Errorf("429 body = %q, want an overloaded error", resp.Error)
	}

	cancel()
	for i := 0; i < 2; i++ {
		<-errc
	}
	waitFor(t, "slots released", 10*time.Second, func() bool {
		return srv.inflight.Load() == 0 && srv.waiting.Load() == 0
	})
}

func TestOverloadResponseCarriesRetryAfter(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		body, _ := json.Marshal(CheckRequest{CSPM: heavySource(9100, 18)})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	go func() {
		body, _ := json.Marshal(CheckRequest{CSPM: heavySource(9101, 18)})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "queue full", 10*time.Second, func() bool {
		return srv.inflight.Load() == 1 && srv.waiting.Load() == 1
	})
	body, _ := json.Marshal(CheckRequest{CSPM: tinyModel})
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	cancel()
	waitFor(t, "slots released", 10*time.Second, func() bool {
		return srv.inflight.Load() == 0 && srv.waiting.Load() == 0
	})
}

// TestCancelFreesWorkerAndEvictsFlight is the pinned acceptance test:
// cancelling a request mid-check must (a) free its worker slot promptly
// — within one BFS level of cooperative checking, not after the full
// exploration — and (b) leave nothing behind: a retry recomputes
// instead of replaying a cancellation error.
func TestCancelFreesWorkerAndEvictsFlight(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	src := heavySource(9200, 20) // ~1M states: far slower than the test budget

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(CheckRequest{CSPM: src})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
		if err != nil {
			done <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "check in flight", 10*time.Second, func() bool {
		return srv.inflight.Load() == 1
	})
	// Let the exploration get some real work in flight before pulling
	// the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request completed successfully")
	}

	// (a) The worker is freed: a fresh small check on the single-worker
	// server completes far sooner than the heavy exploration would have.
	freed := make(chan struct{})
	go func() {
		defer close(freed)
		status, resp := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil)
		if status != http.StatusOK {
			t.Errorf("follow-up check status = %d (%+v)", status, resp)
		}
	}()
	select {
	case <-freed:
	case <-time.After(15 * time.Second):
		t.Fatal("worker not freed within 15s of cancellation")
	}

	// (b) Nothing was poisoned: re-checking the heavy model recomputes
	// (the lts.cache.misses counter grows) rather than replaying the
	// abort.
	misses := srv.obs.Counter("lts.cache.misses")
	missesBefore := misses.Value()
	cctx, ccancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer ccancel()
	body, _ := json.Marshal(CheckRequest{CSPM: src})
	req, _ := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	waitFor(t, "retry recomputes the cancelled flight", 10*time.Second, func() bool {
		return misses.Value() > missesBefore
	})
	waitFor(t, "in-flight entry evicted", 10*time.Second, func() bool {
		return srv.inflight.Load() == 0
	})
}

func TestPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 1, EnableChaos: true})
	status, resp := postCheck(t, context.Background(), ts.URL,
		CheckRequest{CSPM: tinyModel}, map[string]string{"X-Chaos-Panic": "1"})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	if !strings.Contains(resp.Error, "panicked") {
		t.Errorf("error = %q, want a structured panic message", resp.Error)
	}
	// The process survived; the very next check works.
	status, resp = postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil)
	if status != http.StatusOK || len(resp.Results) != 2 {
		t.Fatalf("post-panic check: status %d, %d results", status, len(resp.Results))
	}
}

func TestBudgetClampAndErrorKind(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 1, MaxStates: 64})
	// The request asks for far more than the server cap; the clamp must
	// win and the exhaustion surface as a structured budget error.
	status, resp := postCheck(t, context.Background(), ts.URL, CheckRequest{
		CSPM:   heavySource(9300, 12),
		Budget: &BudgetSpec{MaxStates: 1 << 20},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 with per-assert errors", status)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(resp.Results))
	}
	v := resp.Results[0]
	if v.Error == "" || !strings.HasPrefix(v.ErrorKind, "budget:") {
		t.Errorf("verdict = %+v, want a budget:<phase> error", v)
	}
}

func TestDrainLifecycle(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1})

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before drain = %d", resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	// Ready flips to 503 with a hint; liveness stays 200; new checks are
	// rejected with 503.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz without Retry-After")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz after drain = %d, want 200", resp.StatusCode)
		}
	}
	status, _ := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("check after drain = %d, want 503", status)
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(CheckRequest{CSPM: heavySource(9400, 19)})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "check in flight", 10*time.Second, func() bool {
		return srv.inflight.Load() == 1
	})

	// Drain with a short deadline must report the straggler.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	if err := srv.Drain(shortCtx); err == nil {
		t.Fatal("drain returned while a check was in flight")
	}
	// Release the straggler; the drain then completes.
	cancel()
	<-done
	fullCtx, fullCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fullCancel()
	if err := srv.Drain(fullCtx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	if status, _ := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: tinyModel}, nil); status != http.StatusOK {
		t.Fatalf("warm-up check failed: %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{"serve.accepted", "serve.completed", "lts.cache.misses", "fdr.asserts"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestRequestCacheLifetime pins the cache's lifetime: the assertions of
// one request share explorations (the second check of SYSTEM is a
// hit), and nothing outlives the request (the same script posted again
// explores exactly as much as the first time).
func TestRequestCacheLifetime(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	const src = `
channel a, b
SPEC = a -> b -> SPEC
SYSTEM = a -> b -> SYSTEM
assert SPEC [T= SYSTEM
assert SPEC [F= SYSTEM
`
	hits := srv.obs.Counter("lts.cache.hits")
	misses := srv.obs.Counter("lts.cache.misses")
	var missDeltas []int64
	for i := 0; i < 2; i++ {
		h0, m0 := hits.Value(), misses.Value()
		status, resp := postCheck(t, context.Background(), ts.URL, CheckRequest{CSPM: src}, nil)
		if status != http.StatusOK || len(resp.Results) != 2 {
			t.Fatalf("request %d: status %d, %+v", i, status, resp)
		}
		for _, v := range resp.Results {
			if !v.Holds || v.Error != "" {
				t.Fatalf("request %d: %q = %+v, want holds", i, v.Assert, v)
			}
		}
		if h := hits.Value() - h0; h < 1 {
			t.Errorf("request %d: %d lts.cache.hits, want >= 1 (assertions share explorations)", i, h)
		}
		missDeltas = append(missDeltas, misses.Value()-m0)
	}
	if missDeltas[0] == 0 || missDeltas[1] != missDeltas[0] {
		t.Errorf("lts.cache.misses per request = %v, want equal and non-zero (nothing reused across requests)", missDeltas)
	}
}
