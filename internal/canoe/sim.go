package canoe

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/canbus"
	"repro/internal/capl"
	"repro/internal/obs"
)

// TimedFrame is one frame of the simulation's monitor trace (CANoe's
// trace window).
type TimedFrame = canbus.TimedFrame

// Simulation is a CANoe-style measurement: a bus plus a set of CAPL
// nodes and a monitoring tap recording all traffic.
type Simulation struct {
	Bus   *canbus.Bus
	Nodes []*Node

	trace   []TimedFrame
	stopped bool
	stopErr error
	obs     *obs.Observer
}

// NewSimulation creates a simulation over a fresh bus. The bus's
// observer also receives the simulation's canoe.run spans.
func NewSimulation(cfg canbus.Config) *Simulation {
	sim := &Simulation{Bus: canbus.New(cfg), obs: cfg.Obs}
	sim.Bus.Attach("__monitor__", canbus.ReceiverFunc(func(t canbus.Time, f canbus.Frame) {
		sim.trace = append(sim.trace, TimedFrame{At: t, Frame: f})
	}))
	return sim
}

// AddNode parses the CAPL source and attaches the node to the bus.
func (s *Simulation) AddNode(name, src string) (*Node, error) {
	prog, err := capl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	return s.AddProgram(name, prog)
}

// AddProgram attaches a node running an already-parsed program. The
// program is only read, so one parse can serve many simulations.
func (s *Simulation) AddProgram(name string, prog *capl.Program) (*Node, error) {
	n, err := NewNode(s.Bus, name, prog)
	if err != nil {
		return nil, err
	}
	s.Nodes = append(s.Nodes, n)
	return n, nil
}

// Start runs every node's `on start` procedures (measurement start).
func (s *Simulation) Start() error {
	for _, n := range s.Nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the measurement until the given time, then reports the
// first node runtime error, if any.
func (s *Simulation) Run(until canbus.Time) error {
	s.Bus.Run(until)
	return s.Err()
}

// ErrEventBudget is returned by RunBounded when its event budget is
// spent while events are still due before the horizon: a runaway
// measurement, such as a zero-period timer rearming itself at a fixed
// timestamp.
var ErrEventBudget = errors.New("canoe: simulation event budget exhausted")

// runChunk is how many events RunBounded processes between two looks
// at its context.
const runChunk = 10_000

// RunBounded advances the measurement until the clock reaches until
// (canbus.Forever: until the bus drains) within a budget of maxEvents
// events, and returns how many it processed. Between chunks of events
// it stops with the context's cause once ctx is done. It returns
// ErrEventBudget only if events are still due once the budget is spent;
// a run that needs exactly maxEvents events is complete. Otherwise it
// reports the first node runtime error, if any. Each call is one
// canoe.run span on the bus's observer.
func (s *Simulation) RunBounded(ctx context.Context, until canbus.Time, maxEvents int) (int, error) {
	span := s.obs.StartSpan("canoe.run")
	if span == nil {
		return s.runBounded(ctx, until, maxEvents)
	}
	frames := len(s.trace)
	events, err := s.runBounded(ctx, until, maxEvents)
	outcome := "done"
	if errors.Is(err, ErrEventBudget) {
		outcome = "event-budget"
	} else if err != nil {
		outcome = "error"
	}
	span.End(obs.Int("events", int64(events)),
		obs.Int("frames", int64(len(s.trace)-frames)),
		obs.String("outcome", outcome))
	return events, err
}

func (s *Simulation) runBounded(ctx context.Context, until canbus.Time, maxEvents int) (events int, err error) {
	for {
		if ctx.Err() != nil {
			return events, context.Cause(ctx)
		}
		n, done := s.Bus.RunLimited(until, min(runChunk, maxEvents-events))
		events += n
		if err := s.Err(); err != nil {
			return events, err
		}
		if done {
			return events, nil
		}
		if events >= maxEvents {
			return events, ErrEventBudget
		}
	}
}

// Err returns the first error any node hit during callbacks.
func (s *Simulation) Err() error {
	for _, n := range s.Nodes {
		if err := n.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Trace returns the chronological bus trace.
func (s *Simulation) Trace() []TimedFrame {
	out := make([]TimedFrame, len(s.trace))
	copy(out, s.trace)
	return out
}

// Node returns the named node.
func (s *Simulation) Node(name string) (*Node, error) {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("canoe: no node named %q", name)
}

// Stop ends the measurement: every node's `on stopMeasurement`
// procedures run, then the first node error (if any) is reported.
//
// Stop is idempotent — the first call latches its result and later
// calls return it without re-running any handler, so a measurement
// cannot double-emit frames or double-fault when stopped twice. A node
// that already latched a runtime error keeps it: its stop handlers are
// skipped (CANoe kills a node on a runtime error) rather than run on a
// faulted interpreter state, and every healthy node's handlers still
// run even when an earlier node's stop handler fails — learner-style
// batches of thousands of short measurements rely on both edges.
func (s *Simulation) Stop() error {
	if s.stopped {
		return s.stopErr
	}
	s.stopped = true
	for _, n := range s.Nodes {
		// StopMeasurement skips handlers on a faulted node; keep going
		// so one bad node cannot leak another node's cleanup.
		_ = n.StopMeasurement()
	}
	s.stopErr = s.Err()
	return s.stopErr
}
