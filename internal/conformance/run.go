package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
)

// VerdictKind classifies a schedule outcome.
type VerdictKind string

// The conformance verdict taxonomy.
const (
	// Conforms: the observed trace is a trace of the reference model
	// under the derived fault budgets.
	Conforms VerdictKind = "conforms"
	// Diverges: the model cannot produce the observed trace — either the
	// implementation does not match its model or the fault abstraction
	// is too tight. Divergent verdicts carry the failure point and (after
	// shrinking) a minimal replayable schedule.
	Diverges VerdictKind = "diverges"
	// BudgetExceeded: a resource bound (state count, wall-clock
	// deadline, simulation event budget) fired before a conclusive
	// answer. Detail names the exhausted budget.
	BudgetExceeded VerdictKind = "budget-exceeded"
	// InterpreterError: the simulation, projection or model evaluation
	// itself failed — including contained panics from the checking core.
	InterpreterError VerdictKind = "interpreter-error"
)

// Divergence is the diagnosis attached to a diverging verdict.
type Divergence struct {
	// FailedAt is the index of the first inadmissible observed event.
	FailedAt int `json:"failedAt"`
	// BadEvent is that event.
	BadEvent string `json:"badEvent"`
	// Allowed lists the events the model offered instead (sorted).
	Allowed []string `json:"allowed,omitempty"`
	// Context is the observed event window ending at the failure.
	Context []string `json:"context,omitempty"`
	// Shrunk is the minimal reproducing schedule (delta-debugged ops,
	// reduced horizon); replayable via cmd/soak -replay.
	Shrunk *Schedule `json:"shrunk,omitempty"`
	// ShrunkFailedAt is the failure index under the shrunk schedule.
	ShrunkFailedAt int `json:"shrunkFailedAt,omitempty"`
}

// Verdict is the judged result of one schedule run.
type Verdict struct {
	// Name identifies the schedule inside a campaign.
	Name     string      `json:"name,omitempty"`
	Schedule Schedule    `json:"schedule"`
	Kind     VerdictKind `json:"verdict"`
	// DeliveredFrames is the length of the observed (monitor) trace.
	DeliveredFrames int `json:"deliveredFrames"`
	// AppliedOps lists the perturbations that actually fired.
	AppliedOps []string `json:"appliedOps,omitempty"`
	// Budgets is the fault slack derived from the applied perturbations.
	Budgets ota.ChannelBudgets `json:"budgets"`
	// ModelStates is the number of model states the trace check visited.
	ModelStates int `json:"modelStates,omitempty"`
	// Detail carries the exhausted budget phase or the error text.
	Detail     string      `json:"detail,omitempty"`
	Divergence *Divergence `json:"divergence,omitempty"`
}

// JSON renders the verdict as indented, newline-terminated JSON (the
// cmd/soak replay output).
func (v Verdict) JSON() ([]byte, error) {
	return campaign.JSON(v)
}

// Runner executes schedules. It caches reference models per (variant,
// budgets) pair. A Runner is safe for concurrent use: campaign workers
// running RunSchedule in parallel share the cache, so each reference
// model is built once per campaign. Each trace check compiles the terms
// its trace reaches into a memo of its own (refine.AcceptsTrace).
type Runner struct {
	// MaxStates bounds the trace-membership frontier (0: checker
	// default).
	MaxStates int
	// MaxDuration is the per-schedule wall-clock watchdog covering
	// simulation, model build and trace check (default
	// defaultMaxDuration).
	MaxDuration time.Duration
	// MaxSimEvents bounds simulator events per run, containing runaway
	// measurements such as zero-period timer loops (default 300000).
	MaxSimEvents int
	// Obs receives per-schedule spans and counters (and is threaded into
	// the bus and checker). nil disables instrumentation; verdicts and
	// reports are byte-identical either way.
	Obs *obs.Observer

	// table projects delivered frames onto observed-model events: Table
	// II identifiers onto the delivered side of each direction.
	table *candb.Table

	mu     sync.Mutex
	models map[modelKey]*modelEntry
}

type modelKey struct {
	variant Variant
	budgets ota.ChannelBudgets
}

// modelEntry is a once-built reference model; concurrent schedules
// asking for the same (variant, budgets) tuple share one build.
type modelEntry struct {
	once sync.Once
	sys  *ota.System
	err  error
}

// NewRunner builds a runner over the OTA projection.
func NewRunner() (*Runner, error) {
	db, err := ota.Database()
	if err != nil {
		return nil, fmt.Errorf("conformance: parse OTA database: %w", err)
	}
	table, err := candb.NewTable(db, ota.MessageRename, map[string]string{
		"VMG": ota.ObservedToECU,
		"ECU": ota.ObservedToVMG,
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	return &Runner{
		MaxDuration:  defaultMaxDuration,
		MaxSimEvents: 300_000,
		table:        table,
		models:       make(map[modelKey]*modelEntry),
	}, nil
}

// direction returns the delivered-side channel of the identifier, or ""
// if unknown — used to attribute fault budgets.
func (r *Runner) direction(id uint32) string {
	ev, _ := r.table.Event(id)
	return ev.Chan
}

// project maps a monitor trace onto the observed event sequence. A
// frame the database cannot name is an error.
func (r *Runner) project(tfs []canoe.TimedFrame) (csp.Trace, error) {
	out := make(csp.Trace, 0, len(tfs))
	for i, tf := range tfs {
		ev, ok := r.table.Event(tf.Frame.ID)
		if !ok {
			return nil, fmt.Errorf("frame %d at t=%dus: conformance: identifier 0x%03X not in database", i, int64(tf.At), tf.Frame.ID)
		}
		out = append(out, ev)
	}
	return out, nil
}

// model returns the cached observed-bus reference model for the variant
// and budget tuple, building it on first use. Model builds are
// deterministic, so errors are cached alongside successes.
func (r *Runner) model(variant Variant, b ota.ChannelBudgets) (*ota.System, error) {
	key := modelKey{variant: variant, budgets: b}
	r.mu.Lock()
	e, ok := r.models[key]
	if !ok {
		e = &modelEntry{}
		r.models[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		cfg, err := variant.ReferenceConfig()
		if err != nil {
			e.err = err
			return
		}
		cfg.Budgets = b
		e.sys, e.err = ota.BuildObserved(cfg)
	})
	return e.sys, e.err
}

// appliedOp records a perturbation that fired, with the delivered-side
// direction of the frame it hit (empty for timer jitter).
type appliedOp struct {
	op  Op
	dir string
}

// simResult is the raw material of a verdict.
type simResult struct {
	trace   []canoe.TimedFrame
	applied []appliedOp
}

// maxInjectedReplays caps fabricated retransmissions so a duplicated
// duplicate cannot cascade.
const maxInjectedReplays = 64

// errSimEvents marks simulation event-budget exhaustion.
var errSimEvents = errors.New("simulation event budget exhausted")

// simulate runs the schedule on the simulated bus and collects the
// monitor trace plus the perturbations that fired.
func (r *Runner) simulate(ctx context.Context, s Schedule) (simResult, error) {
	var res simResult
	ecuSrc, vmgSrc, err := s.Variant.Sources()
	if err != nil {
		return res, err
	}
	inj := &canbus.Injector{}
	sim := canoe.NewSimulation(canbus.Config{
		Injector:         inj,
		ErrorConfinement: true,
		Obs:              r.Obs,
	})
	vmg, err := sim.AddNode("VMG", vmgSrc)
	if err == nil {
		_, err = sim.AddNode("ECU", ecuSrc)
	}
	if err != nil {
		return res, err
	}
	chaos := sim.Bus.Attach("__chaos__", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))

	frameOps := map[int][]Op{}
	jitterOps := map[int][]Op{}
	for _, op := range s.Ops {
		if op.Kind == OpJitterTimer {
			jitterOps[op.Nth] = append(jitterOps[op.Nth], op)
			continue
		}
		frameOps[op.Nth] = append(frameOps[op.Nth], op)
	}

	injected := 0
	replay := func(at canbus.Time, f canbus.Frame) {
		if injected >= maxInjectedReplays {
			return
		}
		injected++
		clone := f.Clone()
		_ = sim.Bus.Schedule(at, func() { _ = sim.Bus.Transmit(chaos, clone) })
	}

	// Frame ops key off the completed-transmission sequence number,
	// counted by the Observe hook (which runs before the drop decision,
	// so Drop sees index txIndex-1).
	txIndex := 0
	inj.Observe = func(t canbus.Time, f canbus.Frame) {
		i := txIndex
		txIndex++
		for _, op := range frameOps[i] {
			if op.Kind == OpDupFrame {
				replay(t+canbus.Time(op.DelayUs), f)
				res.applied = append(res.applied, appliedOp{op: op, dir: r.direction(f.ID)})
			}
		}
	}
	inj.Drop = func(t canbus.Time, f canbus.Frame) bool {
		drop := false
		for _, op := range frameOps[txIndex-1] {
			switch op.Kind {
			case OpDropFrame:
				drop = true
				res.applied = append(res.applied, appliedOp{op: op, dir: r.direction(f.ID)})
			case OpDelayFrame:
				drop = true
				replay(t+canbus.Time(op.DelayUs), f)
				res.applied = append(res.applied, appliedOp{op: op, dir: r.direction(f.ID)})
			}
		}
		return drop
	}

	// Timer jitter keys off the per-node setTimer call sequence.
	if len(jitterOps) > 0 {
		timerCalls := 0
		vmg.TimerJitter = func(name string, ms int64) int64 {
			i := timerCalls
			timerCalls++
			for _, op := range jitterOps[i] {
				ms += op.DeltaMs
				res.applied = append(res.applied, appliedOp{op: op})
			}
			return ms
		}
	}

	if err := sim.Start(); err != nil {
		return res, err
	}
	// Chunked run: watchdog probes between chunks, an overall event
	// budget contains runaway simulations.
	const chunk = 20_000
	maxEvents := r.MaxSimEvents
	if maxEvents <= 0 {
		maxEvents = 300_000
	}
	for events := 0; ; {
		if ctx.Err() != nil {
			return res, context.Cause(ctx)
		}
		done, err := sim.RunLimited(canbus.Time(s.HorizonUs), chunk)
		if err != nil {
			return res, err
		}
		if done {
			break
		}
		events += chunk
		if events >= maxEvents {
			return res, errSimEvents
		}
	}
	res.trace = sim.Trace()
	return res, nil
}

// deriveBudgets converts the perturbations that fired into channel
// slack: a drop consumes a drop credit in its frame's direction, a
// duplicate a spurious-delivery credit, a delayed replay one of each
// (the loss and the late reappearance).
func deriveBudgets(applied []appliedOp) ota.ChannelBudgets {
	var b ota.ChannelBudgets
	bump := func(dir string, drop, spur bool) {
		switch dir {
		case ota.ObservedToECU:
			if drop {
				b.DropToECU++
			}
			if spur {
				b.SpurToECU++
			}
		case ota.ObservedToVMG:
			if drop {
				b.DropToVMG++
			}
			if spur {
				b.SpurToVMG++
			}
		}
	}
	for _, a := range applied {
		switch a.op.Kind {
		case OpDropFrame:
			bump(a.dir, true, false)
		case OpDupFrame:
			bump(a.dir, false, true)
		case OpDelayFrame:
			bump(a.dir, true, true)
		}
	}
	return b
}

// defaultMaxDuration is the per-schedule watchdog of a Runner whose
// MaxDuration is unset.
const defaultMaxDuration = 20 * time.Second

// watchdog is the stop signal of a schedule starting now: a deadline
// with cause lts.ErrDeadline, so the trace check reports it as the
// "trace-deadline" budget phase.
func (r *Runner) watchdog() (context.Context, context.CancelFunc) {
	d := r.MaxDuration
	if d <= 0 {
		d = defaultMaxDuration
	}
	return context.WithTimeoutCause(context.Background(), d, lts.ErrDeadline)
}

// Observe simulates a schedule and returns what RunSchedule checks: the
// projected trace and the reference model under the budgets it earns.
func (r *Runner) Observe(s Schedule) (csp.Trace, *ota.System, error) {
	ctx, cancel := r.watchdog()
	defer cancel()
	sres, err := r.simulate(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	trace, err := r.project(sres.trace)
	if err != nil {
		return nil, nil, err
	}
	sys, err := r.model(s.Variant, deriveBudgets(sres.applied))
	return trace, sys, err
}

// divergenceContextLen bounds the observed-event window kept with a
// divergence diagnosis.
const divergenceContextLen = 8

// RunSchedule executes one schedule end to end: simulate, project,
// derive budgets, check trace membership, judge. Panics anywhere in the
// pipeline are contained into an InterpreterError verdict, and the
// wall-clock watchdog turns a hung phase into BudgetExceeded.
func (r *Runner) RunSchedule(s Schedule) (v Verdict) {
	v = Verdict{Schedule: s}
	span := r.Obs.StartSpan("conformance.schedule",
		obs.String("variant", string(s.Variant)),
		obs.Int("seed", s.Seed),
		obs.Int("ops", int64(len(s.Ops))))
	defer func() {
		if p := recover(); p != nil {
			v.Kind = InterpreterError
			v.Detail = fmt.Sprintf("panic: %v", p)
		}
		r.Obs.Counter("conformance.schedules").Inc()
		r.Obs.Counter("conformance.verdict." + string(v.Kind)).Inc()
		span.End(obs.String("verdict", string(v.Kind)),
			obs.Int("deliveredFrames", int64(v.DeliveredFrames)),
			obs.Int("modelStates", int64(v.ModelStates)))
	}()
	ctx, cancel := r.watchdog()
	defer cancel()
	sres, err := r.simulate(ctx, s)
	for _, a := range sres.applied {
		v.AppliedOps = append(v.AppliedOps, a.op.String())
	}
	if err != nil {
		switch {
		case errors.Is(err, errSimEvents):
			v.Kind = BudgetExceeded
			v.Detail = "sim-events"
		case errors.Is(err, lts.ErrDeadline):
			v.Kind = BudgetExceeded
			v.Detail = "sim-deadline"
		default:
			v.Kind = InterpreterError
			v.Detail = err.Error()
		}
		return v
	}
	v.DeliveredFrames = len(sres.trace)
	v.Budgets = deriveBudgets(sres.applied)

	trace, err := r.project(sres.trace)
	var sys *ota.System
	if err == nil {
		sys, err = r.model(s.Variant, v.Budgets)
	}
	if err != nil {
		v.Kind = InterpreterError
		v.Detail = err.Error()
		return v
	}

	if ctx.Err() != nil {
		v.Kind = BudgetExceeded
		v.Detail = "check-deadline"
		return v
	}
	checker := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
	checker.MaxStates = r.MaxStates
	checker.Obs = r.Obs
	checker.Ctx = ctx
	res, err := checker.AcceptsTrace(csp.Call(ota.ObservedProcess), trace)
	if err != nil {
		var be *refine.BudgetError
		if errors.As(err, &be) {
			v.Kind = BudgetExceeded
			v.Detail = be.Phase
			return v
		}
		v.Kind = InterpreterError
		v.Detail = err.Error()
		return v
	}
	v.ModelStates = res.States
	if res.Accepted {
		v.Kind = Conforms
		return v
	}
	v.Kind = Diverges
	div := &Divergence{
		FailedAt: res.FailedAt,
		BadEvent: res.BadEvent.String(),
	}
	for _, ev := range res.Allowed {
		div.Allowed = append(div.Allowed, ev.String())
	}
	start := res.FailedAt + 1 - divergenceContextLen
	if start < 0 {
		start = 0
	}
	for _, ev := range trace[start : res.FailedAt+1] {
		div.Context = append(div.Context, ev.String())
	}
	v.Divergence = div
	return v
}
