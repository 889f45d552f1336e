package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/lts"
	"repro/internal/obs"
)

// Config tunes the server. The zero value is usable: every field has a
// production-safe default applied by New.
type Config struct {
	// Workers is the number of checks that may run concurrently; 0
	// means GOMAXPROCS.
	Workers int
	// MaxQueue is how many admitted-but-waiting requests may queue for
	// a worker slot before new work is rejected with 429; 0 means 64.
	MaxQueue int
	// MaxBodyBytes caps the request body (the CSPm model); 0 means
	// 1 MiB. Oversized bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxStates / MaxProductStates / MaxSteps cap the per-request
	// budgets; requests may tighten them, never exceed them. Zero
	// MaxStates means lts.DefaultMaxStates; zero MaxProductStates /
	// MaxSteps mean 4 * MaxStates, so a single pathological product
	// search cannot hold a worker hostage.
	MaxStates        int
	MaxProductStates int
	MaxSteps         int
	// MaxDuration caps the wall-clock time of one check request; 0
	// means 30s.
	MaxDuration time.Duration
	// DataDir, when non-empty, makes jobs durable: job records persist
	// under DataDir/jobs with atomic writes, job explorations checkpoint
	// under per-assertion directories, and a server rebuilt over the same
	// DataDir after a crash re-enqueues unfinished jobs and resumes them.
	// Empty means jobs live in memory only and die with the process.
	DataDir string
	// MaxMemBytes is a hard per-exploration resident-memory watermark;
	// past it a check degrades to a structured "budget:memory" verdict
	// instead of growing without bound. 0 means unbounded.
	MaxMemBytes int64
	// CheckpointEveryLevels is the exploration snapshot cadence in BFS
	// levels for durable jobs; <= 0 means every level.
	CheckpointEveryLevels int
	// Obs receives the server's metrics, exposed at /metrics; nil gets
	// a fresh enabled Observer (a server without metrics is blind).
	Obs *obs.Observer
	// EnableChaos honours the X-Chaos-Panic request header by panicking
	// inside the worker path — the hook the serveload harness uses to
	// prove panic isolation. Never enable it on a real deployment.
	EnableChaos bool
}

// Server is the checking service. Construct with New, mount Handler on
// an http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config
	obs *obs.Observer
	mux *http.ServeMux

	sem      chan struct{}
	waiting  atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{}
	wg       sync.WaitGroup

	// baseCtx is the server's lifetime: jobs run under it rather than
	// under the submitting request, and Kill cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	jobsMu     sync.Mutex
	jobs       map[string]*job
	jobQueue   chan *job
	jobWg      sync.WaitGroup
}

// New builds a Server, applying Config defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = lts.DefaultMaxStates
	}
	if cfg.MaxProductStates <= 0 {
		cfg.MaxProductStates = 4 * cfg.MaxStates
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 4 * cfg.MaxStates
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 30 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.Workers),
		drainCh:  make(chan struct{}),
		jobs:     make(map[string]*job),
		jobQueue: make(chan *job, 4*(cfg.Workers+cfg.MaxQueue)),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobGet)
	pending := s.recoverJobs()
	s.jobWg.Add(1)
	go s.dispatch()
	if len(pending) > 0 {
		s.jobWg.Add(1)
		go s.enqueueRecovered(pending)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the resolved worker-slot count.
func (s *Server) Workers() int { return s.cfg.Workers }

// Drain initiates graceful shutdown: readiness flips to 503, queued
// waiters and new requests are rejected, and Drain blocks until every
// in-flight check has finished or ctx expires. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.drainCh // already draining; fall through to the wait
	} else {
		close(s.drainCh)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// wg.Wait panics only on counter misuse, but a drain helper must
		// never take the daemon down: report the drain as done (the
		// deferred close still runs) and let the caller's timeout govern.
		defer func() { _ = recover() }()
		s.wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d check(s) still in flight: %w", s.inflight.Load(), ctx.Err())
	}
}

// Draining reports whether shutdown has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process is up and serving. Stays 200 while
	// draining — a draining server is alive, just not ready.
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Mirror the admission state into gauges so one snapshot carries the
	// whole picture.
	s.obs.Gauge("serve.inflight").Set(s.inflight.Load())
	s.obs.Gauge("serve.queue").Set(s.waiting.Load())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.obs.Snapshot().WriteText(w)
}

// writeJSON sends a structured JSON response; encode errors are
// ignored (the client is gone or broken, and the verdict is lost with
// the connection either way).
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// reject sends a structured error with an optional Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, status int, hint bool, msg string) {
	if hint {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	}
	writeJSON(w, status, CheckResponse{Error: msg})
}

// admit acquires a worker slot, queueing up to cfg.MaxQueue waiters.
// It returns the release function on success, or an HTTP status to
// reject with. Admission never blocks past the request context or a
// drain: overload turns into a prompt 429, not a pile of stuck
// connections.
func (s *Server) admit(ctx context.Context) (release func(), status int) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-ctx.Done():
		return nil, 499 // client gone; nobody reads the response
	case <-s.drainCh:
		return nil, http.StatusServiceUnavailable
	}
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.obs.Counter("serve.requests").Inc()
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, false, "POST required")
		return
	}
	if s.draining.Load() {
		s.obs.Counter("serve.rejected.draining").Inc()
		s.reject(w, http.StatusServiceUnavailable, true, "draining")
		return
	}

	// Parse before admission: malformed and oversized requests must be
	// rejected cheaply without consuming a worker slot.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req CheckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.obs.Counter("serve.rejected.oversized").Inc()
			s.reject(w, http.StatusRequestEntityTooLarge, false,
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.obs.Counter("serve.rejected.malformed").Inc()
		s.reject(w, http.StatusBadRequest, false, "malformed request: "+err.Error())
		return
	}
	if req.CSPM == "" {
		s.obs.Counter("serve.rejected.malformed").Inc()
		s.reject(w, http.StatusBadRequest, false, "empty cspm")
		return
	}

	release, status := s.admit(r.Context())
	if release == nil {
		switch status {
		case http.StatusTooManyRequests:
			s.obs.Counter("serve.rejected.overload").Inc()
			s.reject(w, status, true, "overloaded: queue full")
		case http.StatusServiceUnavailable:
			s.obs.Counter("serve.rejected.draining").Inc()
			s.reject(w, status, true, "draining")
		default:
			s.obs.Counter("serve.canceled").Inc()
		}
		return
	}
	defer release()

	// The admission slot is now held: register as in-flight, then
	// re-check the drain gate. The order matters — a drain that began
	// after the first check either sees this request's wg registration
	// (and waits for it) or this re-check sees the drain (and bails), so
	// no check can slip past a completed Drain.
	s.wg.Add(1)
	defer s.wg.Done()
	if s.draining.Load() {
		s.obs.Counter("serve.rejected.draining").Inc()
		s.reject(w, http.StatusServiceUnavailable, true, "draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.obs.Counter("serve.accepted").Inc()

	start := time.Now()
	resp, status := s.runRequest(r, &req)
	s.obs.Histogram("serve.check.ns").ObserveSince(start)
	if r.Context().Err() != nil {
		// Client went away mid-check; the write below is best-effort
		// and the cancellation already freed the check core.
		s.obs.Counter("serve.canceled").Inc()
	}
	writeJSON(w, status, resp)
}

// runRequest is the synchronous /v1/check path: the check runs under
// the request's own context, with no durability.
func (s *Server) runRequest(r *http.Request, req *CheckRequest) (CheckResponse, int) {
	chaos := s.cfg.EnableChaos && r.Header.Get("X-Chaos-Panic") != ""
	return s.runCheck(r.Context(), req, chaos, "")
}

// runCheck loads the model and checks every assertion under the
// request budget, over an lts.Cache of the run's own: its assertions
// share explorations and normalisations, and nothing outlives the run.
// Checks run with panic isolation: a panic anywhere inside — parser,
// evaluator, exploration, product search — is recovered into a
// structured 500 response and the process survives. A non-empty
// ckptRoot makes each assertion's explorations checkpoint under its own
// subdirectory, so a re-run (a recovered job) resumes instead of
// restarting. The wall-clock budget is the run's context deadline and
// its one clock: a request that outlives it reads "canceled", while a
// resumed exploration counts the time its snapshot already spent
// against that deadline (lts shortens it), so a crash loop cannot
// extend the budget, and running past the carried-over time reads
// "budget:explore-deadline".
func (s *Server) runCheck(ctx context.Context, req *CheckRequest, chaosPanic bool, ckptRoot string) (resp CheckResponse, status int) {
	status = http.StatusOK
	defer func() {
		if rec := recover(); rec != nil {
			s.obs.Counter("serve.panics").Inc()
			resp = CheckResponse{Error: fmt.Sprintf("internal: check panicked: %v", rec)}
			status = http.StatusInternalServerError
		}
	}()
	if chaosPanic {
		panic("chaos: injected handler panic")
	}

	model, err := cspm.Load(req.CSPM)
	if err != nil {
		s.obs.Counter("serve.rejected.malformed").Inc()
		return CheckResponse{Error: "cspm: " + err.Error()}, http.StatusBadRequest
	}

	bgt := s.budgetFor(req.Budget)
	bgt.Cache = lts.NewCache()
	bgt.Cache.Obs = s.obs
	cctx, cancel := context.WithTimeout(ctx, bgt.MaxDuration)
	defer cancel()
	bgt.Ctx, bgt.MaxDuration = cctx, 0

	results := make([]AssertVerdict, 0, len(model.Asserts))
	for i, a := range model.Asserts {
		if ckptRoot != "" {
			bgt.CheckpointDir = filepath.Join(ckptRoot, fmt.Sprintf("a%03d", i))
		}
		results = append(results, s.runAssert(model, a, bgt))
		if cctx.Err() != nil && len(results) < len(model.Asserts) {
			// The request is dead; stamp the remaining assertions as
			// canceled rather than burning the worker on them.
			for _, rest := range model.Asserts[len(results):] {
				results = append(results, AssertVerdict{
					Assert:    rest.Text,
					Error:     "canceled before start: " + cctx.Err().Error(),
					ErrorKind: "canceled",
				})
			}
			break
		}
	}
	s.obs.Counter("serve.completed").Inc()
	return CheckResponse{Results: results}, http.StatusOK
}

// budgetFor clamps the requested budgets to the server caps.
func (s *Server) budgetFor(spec *BudgetSpec) fdr.Budget {
	bgt := fdr.Budget{
		MaxStates:        s.cfg.MaxStates,
		MaxProductStates: s.cfg.MaxProductStates,
		MaxSteps:         s.cfg.MaxSteps,
		MaxDuration:      s.cfg.MaxDuration,
		Obs:              s.obs,

		MaxMemBytes:           s.cfg.MaxMemBytes,
		CheckpointEveryLevels: s.cfg.CheckpointEveryLevels,
	}
	if spec == nil {
		return bgt
	}
	clamp := func(req, cap int) int {
		if req > 0 && req < cap {
			return req
		}
		return cap
	}
	bgt.MaxStates = clamp(spec.MaxStates, bgt.MaxStates)
	bgt.MaxProductStates = clamp(spec.MaxProductStates, bgt.MaxProductStates)
	bgt.MaxSteps = clamp(spec.MaxSteps, bgt.MaxSteps)
	if d := time.Duration(spec.MaxDurationMs) * time.Millisecond; d > 0 && d < bgt.MaxDuration {
		bgt.MaxDuration = d
	}
	return bgt
}

// runAssert checks one assertion, isolating panics to this assertion:
// the rest of the request still gets verdicts.
func (s *Server) runAssert(model *cspm.Model, a cspm.ResolvedAssert, bgt fdr.Budget) (v AssertVerdict) {
	v = AssertVerdict{Assert: a.Text}
	defer func() {
		if rec := recover(); rec != nil {
			s.obs.Counter("serve.panics").Inc()
			v.Error = fmt.Sprintf("panic: %v", rec)
			v.ErrorKind = "panic"
		}
	}()
	res, err := fdr.RunAssertBudget(model, a, bgt)
	if err != nil {
		v.Error = err.Error()
		v.ErrorKind = errorKind(err)
		return v
	}
	v.Holds = res.Holds
	v.Reason = res.Reason
	v.ImplStates = res.ImplStates
	v.SpecNodes = res.SpecNodes
	v.ProductStates = res.ProductStates
	for _, ev := range res.Counterexample {
		v.Counterexample = append(v.Counterexample, ev.String())
	}
	return v
}
