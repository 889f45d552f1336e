package canoe

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/obs"
)

// TestStopIdempotent pins that a second Stop is a no-op returning the
// latched first result: stop handlers run exactly once, so a
// measurement stopped twice cannot double-emit frames or double-count
// cleanup — learner query batches stop thousands of short measurements
// and must be able to call Stop defensively.
func TestStopIdempotent(t *testing.T) {
	const src = `
variables {
  message 0x42 probe;
  int stops = 0;
}
on stopMeasurement { stops = stops + 1; output(probe); }
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Stop(); err != nil {
		t.Fatalf("second Stop = %v, want latched nil", err)
	}
	if got, _ := node.Global("stops"); got != int64(1) {
		t.Errorf("stop handler ran %v times, want 1", got)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	if len(node.Sent) != 1 {
		t.Errorf("stop handler emitted %d frames, want 1", len(node.Sent))
	}
}

// TestStopAfterLatchedError pins that a node which already faulted at
// runtime is dead at measurement end: its stop handlers are skipped
// (they would run on a faulted interpreter state and could mask or
// compound the original error) and Stop keeps reporting the first
// fault, on every call.
func TestStopAfterLatchedError(t *testing.T) {
	const src = `
variables {
  message 0x42 probe;
  int d = 0;
  int cleaned = 0;
}
on message 0x100 { d = 1 / d; }
on stopMeasurement { cleaned = 1; output(probe); }
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	driver := sim.Bus.Attach("driver", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Bus.Transmit(driver, canbus.Frame{ID: 0x100, Data: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	sim.Bus.RunAll(100)
	runErr := sim.Err()
	if runErr == nil || !strings.Contains(runErr.Error(), "division by zero") {
		t.Fatalf("handler error = %v, want division by zero", runErr)
	}

	stopErr := sim.Stop()
	if stopErr == nil || stopErr.Error() != runErr.Error() {
		t.Errorf("Stop = %v, want the latched run error %v", stopErr, runErr)
	}
	if again := sim.Stop(); again == nil || again.Error() != runErr.Error() {
		t.Errorf("repeated Stop = %v, want the latched run error", again)
	}
	if got, _ := node.Global("cleaned"); got != int64(0) {
		t.Error("stop handler ran on a faulted node")
	}
	if len(node.Sent) != 0 {
		t.Errorf("faulted node emitted %d frames during Stop, want 0", len(node.Sent))
	}
}

// TestStopRunsHealthyNodesAfterFault pins that one faulted node cannot
// leak another node's cleanup: healthy nodes' stop handlers still run.
func TestStopRunsHealthyNodesAfterFault(t *testing.T) {
	const bad = `
variables { int d = 0; }
on message 0x100 { d = 1 / d; }
`
	const good = `
variables { int cleaned = 0; }
on stopMeasurement { cleaned = 1; }
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("Bad", bad); err != nil {
		t.Fatal(err)
	}
	goodNode, err := sim.AddNode("Good", good)
	if err != nil {
		t.Fatal(err)
	}
	driver := sim.Bus.Attach("driver", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Bus.Transmit(driver, canbus.Frame{ID: 0x100, Data: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	sim.Bus.RunAll(100)
	if sim.Err() == nil {
		t.Fatal("bad node did not fault")
	}
	if err := sim.Stop(); err == nil {
		t.Error("Stop did not report the faulted node")
	}
	if got, _ := goodNode.Global("cleaned"); got != int64(1) {
		t.Error("healthy node's stop handler did not run after another node faulted")
	}
}

// TestRunBoundedBudgetAndHorizonOnSameEvent pins the edge where the
// event budget is exhausted by the event that also reaches the horizon:
// with nothing further scheduled inside the horizon the run is done
// (the budget was sufficient), while another event pending at the same
// timestamp means the budget genuinely cut the run short and a
// follow-up call finishes it without re-running anything.
func TestRunBoundedBudgetAndHorizonOnSameEvent(t *testing.T) {
	ctx := context.Background()
	sim := NewSimulation(canbus.Config{})
	fired := 0
	for _, at := range []canbus.Time{100, 200} {
		if err := sim.Bus.Schedule(at, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := sim.RunBounded(ctx, 200, 2); err != nil || n != 2 {
		t.Errorf("budget == events within horizon: RunBounded = %d, %v, want 2, nil", n, err)
	}
	if fired != 2 || sim.Bus.Now() != 200 {
		t.Errorf("fired = %d at t=%d, want 2 at t=200", fired, sim.Bus.Now())
	}

	// Same shape, but a third event shares the horizon timestamp: the
	// budget runs out with work still pending at t <= until.
	sim2 := NewSimulation(canbus.Config{})
	fired2 := 0
	for _, at := range []canbus.Time{100, 200, 200} {
		if err := sim2.Bus.Schedule(at, func() { fired2++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := sim2.RunBounded(ctx, 200, 2); !errors.Is(err, ErrEventBudget) || n != 2 {
		t.Errorf("pending event at the horizon: RunBounded = %d, %v, want 2, ErrEventBudget", n, err)
	}
	if fired2 != 2 {
		t.Errorf("fired = %d, want exactly the budget of 2", fired2)
	}
	if n, err := sim2.RunBounded(ctx, 200, 10); err != nil || n != 1 || fired2 != 3 {
		t.Errorf("follow-up run: RunBounded = %d, %v, fired=%d, want 1, nil, 3", n, err, fired2)
	}
}

// TestRunBoundedForeverDrainsWithoutMovingClock pins the drain mode:
// a run to canbus.Forever that needs exactly its budget is complete,
// leaves the clock at the last event and can be followed by traffic.
func TestRunBoundedForeverDrainsWithoutMovingClock(t *testing.T) {
	sim := NewSimulation(canbus.Config{})
	for _, at := range []canbus.Time{100, 300} {
		if err := sim.Bus.Schedule(at, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := sim.RunBounded(context.Background(), canbus.Forever, 2); err != nil || n != 2 {
		t.Fatalf("RunBounded = %d, %v, want 2, nil", n, err)
	}
	if now := sim.Bus.Now(); now != 300 {
		t.Errorf("clock at %d after draining, want 300", now)
	}
	if n, err := sim.RunBounded(context.Background(), canbus.Forever, 0); err != nil || n != 0 {
		t.Errorf("drained bus with no budget left: RunBounded = %d, %v, want 0, nil", n, err)
	}
}

// TestRunBoundedStopsOnContext checks that a done context stops the
// run with its cause before any event.
func TestRunBoundedStopsOnContext(t *testing.T) {
	sim := NewSimulation(canbus.Config{})
	if err := sim.Bus.Schedule(100, func() { t.Error("event ran under a cancelled context") }); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(stop)
	if n, err := sim.RunBounded(ctx, 1000, 10); !errors.Is(err, stop) || n != 0 {
		t.Errorf("RunBounded = %d, %v, want 0, the context's cause", n, err)
	}
}

// TestRunBoundedSpan pins the canoe.run span, named after the
// benchmark's simulation layer, and its attributes.
func TestRunBoundedSpan(t *testing.T) {
	o := obs.New()
	sim := NewSimulation(canbus.Config{Obs: o})
	tx := sim.Bus.Attach("tx", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
	if err := sim.Bus.Transmit(tx, canbus.Frame{ID: 0x10}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Millisecond, 100); err != nil {
		t.Fatal(err)
	}
	spans := o.Spans()
	if len(spans) != 1 || spans[0].Name != "canoe.run" {
		t.Fatalf("spans = %+v, want one canoe.run", spans)
	}
	want := map[string]any{"events": int64(1), "frames": int64(1), "outcome": "done"}
	if !reflect.DeepEqual(spans[0].Attrs, want) {
		t.Errorf("canoe.run attrs = %v, want %v", spans[0].Attrs, want)
	}
}
