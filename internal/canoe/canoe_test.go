package canoe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/canbus"
)

func TestPingPongNodes(t *testing.T) {
	const pinger = `
variables {
  message 0x100 ping;
  message 0x200 pong;
  int pongs = 0;
}
on start { output(ping); }
on message pong {
  pongs = pongs + 1;
  if (pongs < 3) {
    output(ping);
  }
}
`
	const ponger = `
variables {
  message 0x100 ping;
  message 0x200 pong;
}
on message ping { output(pong); }
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("Pinger", pinger); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddNode("Ponger", ponger); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 1000); err != nil {
		t.Fatal(err)
	}
	ids := traceIDs(sim)
	want := []uint32{0x100, 0x200, 0x100, 0x200, 0x100, 0x200}
	if len(ids) != len(want) {
		t.Fatalf("trace = %#x, want %#x", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("frame %d id = %#x, want %#x", i, ids[i], want[i])
		}
	}
	n, err := sim.Node("Pinger")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := n.globals["pongs"].v.(int64); got != 3 {
		t.Errorf("pongs = %d, want 3", got)
	}
}

func TestTimersDriveTraffic(t *testing.T) {
	const src = `
variables {
  message 0x123 beat;
  msTimer heart;
  int beats = 0;
}
on start { setTimer(heart, 10); }
on timer heart {
  beats = beats + 1;
  output(beat);
  if (beats < 4) {
    setTimer(heart, 10);
  }
}
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("N", src); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 1000); err != nil {
		t.Fatal(err)
	}
	trace := sim.Trace()
	if len(trace) != 4 {
		t.Fatalf("beats on bus = %d, want 4", len(trace))
	}
	// Beats at 10, 20, 30, 40 ms (plus transmission time ~<1ms).
	for i, tf := range trace {
		expectAfter := canbus.Time(10*(i+1)) * canbus.Millisecond
		if tf.At < expectAfter || tf.At > expectAfter+canbus.Millisecond {
			t.Errorf("beat %d at %dus, want within 1ms after %dus", i, tf.At, expectAfter)
		}
	}
}

func TestCancelTimer(t *testing.T) {
	const src = `
variables {
  message 0x1 m;
  msTimer tmr;
}
on start {
  setTimer(tmr, 10);
  cancelTimer(tmr);
}
on timer tmr { output(m); }
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("N", src); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	if len(sim.Trace()) != 0 {
		t.Error("cancelled timer still fired")
	}
}

func TestMessageDataAndThis(t *testing.T) {
	const producer = `
variables { message 0x10 req; }
on start {
  req.byte(0) = 7;
  req.byte(1) = 0x2A;
  output(req);
}
`
	const consumer = `
variables {
  message 0x10 req;
  message 0x20 resp;
}
on message req {
  resp.byte(0) = this.byte(0) + this.byte(1);
  resp.DLC = 1;
  output(resp);
}
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("P", producer); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddNode("C", consumer); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	trace := sim.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace length = %d, want 2", len(trace))
	}
	resp := trace[1].Frame
	if resp.ID != 0x20 || len(resp.Data) != 1 || resp.Data[0] != 7+0x2A {
		t.Errorf("response frame = %s, want 020#31", resp)
	}
}

func TestFunctionsControlFlowAndWrite(t *testing.T) {
	const src = `
variables {
  message 0x5 m;
  int table[4];
}
on start {
  int i, total;
  for (i = 0; i < 4; i++) {
    table[i] = square(i);
  }
  total = 0;
  i = 0;
  while (i < 4) {
    total += table[i];
    i++;
  }
  switch (total) {
    case 14:
      write("total is %d", total);
      break;
    default:
      write("unexpected");
  }
  m.byte(0) = total;
  m.DLC = 1;
  output(m);
}
int square(int x) { return x * x; }
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	if len(node.Log) != 1 || node.Log[0] != "total is 14" {
		t.Errorf("log = %v", node.Log)
	}
	if len(node.Sent) != 1 || node.Sent[0].Data[0] != 14 {
		t.Errorf("sent = %v", node.Sent)
	}
}

func TestRunawayLoopCaught(t *testing.T) {
	const src = `
variables { message 0x1 m; }
on start {
  while (1) { }
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	node.MaxSteps = 1000
	err = sim.Start()
	if err == nil {
		t.Fatal("runaway loop not detected")
	}
	if !strings.Contains(err.Error(), "steps") {
		t.Errorf("error = %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", "on start { x = 1; }", "undefined variable"},
		{"bad output", "on start { output(5); }", "not a message"},
		{"div by zero", "variables { int z = 0; }\non start { z = 1 / z; }", "division by zero"},
		{"bad timer", "on start { setTimer(nope, 10); }", "not a declared timer"},
		{"index range", "variables { int a[2]; }\non start { a[5] = 1; }", "out of range"},
		{"this outside handler", "on start { write(\"%d\", this.byte(0)); }", "outside an on message"},
		{"undefined function", "on start { frob(); }", "undefined function"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSimulation(canbus.Config{})
			if _, err := sim.AddNode("N", tc.src); err != nil {
				t.Fatalf("parse/init: %v", err)
			}
			err := sim.Start()
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWildcardAndIDHandlers(t *testing.T) {
	const src = `
variables {
  message 0x300 out1;
  int any = 0;
  int exact = 0;
}
on message * { any = any + 1; }
on message 0x300 { exact = exact + 1; }
`
	sim := NewSimulation(canbus.Config{})
	listener, err := sim.AddNode("L", src)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := sim.AddNode("S", `
variables { message 0x300 m; message 0x301 n; }
on start { output(m); output(n); }
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = sender
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	if got, _ := listener.globals["any"].v.(int64); got != 2 {
		t.Errorf("wildcard count = %d, want 2", got)
	}
	if got, _ := listener.globals["exact"].v.(int64); got != 1 {
		t.Errorf("exact count = %d, want 1", got)
	}
}

func TestCompoundAssignAndTernary(t *testing.T) {
	const src = `
variables {
  int a = 10;
  int b = 0;
}
on start {
  a += 5;
  a <<= 1;
  b = a > 20 ? 1 : 2;
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if got, _ := node.globals["a"].v.(int64); got != 30 {
		t.Errorf("a = %d, want 30", got)
	}
	if got, _ := node.globals["b"].v.(int64); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
}

func TestFloatArithmetic(t *testing.T) {
	const src = `
variables {
  float ratio = 0;
  int whole = 0;
}
on start {
  ratio = 7.5 / 2.5;
  whole = ratio;
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if got, _ := node.globals["ratio"].v.(float64); got != 3.0 {
		t.Errorf("ratio = %v, want 3.0", got)
	}
	if got, _ := node.globals["whole"].v.(int64); got != 3 {
		t.Errorf("whole = %v, want 3", got)
	}
}

func TestDoWhileAndPostfix(t *testing.T) {
	const src = `
variables { int n = 0; }
on start {
  int i;
  i = 0;
  do {
    n++;
    i++;
  } while (i < 3);
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if got, _ := node.globals["n"].v.(int64); got != 3 {
		t.Errorf("n = %d, want 3", got)
	}
}

func TestKeyAndStopMeasurementHandlers(t *testing.T) {
	const src = `
variables {
  message 0x42 probe;
  int stopped = 0;
}
on key 'p' { output(probe); }
on stopMeasurement { stopped = 1; write("bye"); }
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("Panel", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := node.PressKey("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 10); err != nil {
		t.Fatal(err)
	}
	if len(node.Sent) != 1 || node.Sent[0].ID != 0x42 {
		t.Errorf("key handler did not send the probe: %v", node.Sent)
	}
	if err := node.PressKey("x"); err != nil {
		t.Fatal(err) // no handler: no-op
	}
	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	if v, _ := node.Global("stopped"); v.(int64) != 1 {
		t.Error("stopMeasurement handler did not run")
	}
	if len(node.Log) != 1 || node.Log[0] != "bye" {
		t.Errorf("log = %v", node.Log)
	}
}

func TestWordAccessAndMsgID(t *testing.T) {
	const src = `
variables {
  message 0x10 m;
  int readBack = 0;
  int theID = 0;
}
on start {
  m.word(0) = 0x1234;
  readBack = m.word(0);
  theID = m.ID;
  m.ID = 0x11;
  output(m);
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := node.Global("readBack"); v.(int64) != 0x1234 {
		t.Errorf("word round trip = %#x", v)
	}
	if v, _ := node.Global("theID"); v.(int64) != 0x10 {
		t.Errorf("ID read = %#x", v)
	}
	if node.Sent[0].ID != 0x11 {
		t.Errorf("reassigned ID = %#x", node.Sent[0].ID)
	}
	// Little-endian layout.
	if node.Sent[0].Data[0] != 0x34 || node.Sent[0].Data[1] != 0x12 {
		t.Errorf("payload = % x", node.Sent[0].Data)
	}
}

func TestMsgIndexAddressesBytes(t *testing.T) {
	const src = `
variables {
  message 0x10 m;
  int b = 0;
}
on start {
  m[3] = 0xAB;
  b = m[3];
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if v, _ := node.Global("b"); v.(int64) != 0xAB {
		t.Errorf("m[3] = %#x", v)
	}
}

func TestPrefixIncrementAndContinue(t *testing.T) {
	const src = `
variables { int total = 0; }
on start {
  int i;
  for (i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      continue;
    }
    total += i;  // 1 + 3 + 5
  }
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if v, _ := node.Global("total"); v.(int64) != 9 {
		t.Errorf("total = %d, want 9", v)
	}
}

func TestCharArrayStringGlobal(t *testing.T) {
	const src = `
variables {
  char label[16] = "ecu-7";
}
on start { write("node %s", label); }
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if len(node.Log) != 1 || node.Log[0] != "node ecu-7" {
		t.Errorf("log = %v", node.Log)
	}
}

// TestRunBoundedBudgetExhaustion converts a runaway measurement — a
// zero-period timer that re-arms itself on every firing — into a
// verdict: RunBounded must report ErrEventBudget instead of spinning
// forever.
func TestRunBoundedBudgetExhaustion(t *testing.T) {
	const src = `
variables {
  message 0x77 m;
  msTimer tick;
}
on start { setTimer(tick, 0); }
on timer tick {
  output(m);
  setTimer(tick, 0);
}
`
	sim := NewSimulation(canbus.Config{})
	if _, err := sim.AddNode("Runaway", src); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if n, err := sim.RunBounded(context.Background(), canbus.Millisecond, 50); !errors.Is(err, ErrEventBudget) || n != 50 {
		t.Errorf("zero-period timer runaway: RunBounded = %d, %v, want 50, ErrEventBudget", n, err)
	}
	// The budget bounds the measurement: the re-arming timer kept the
	// clock pinned, so the horizon was never reached and the trace stayed
	// finite (the 50-event budget is spent on timer firings and frame
	// completions, never more).
	if n := len(sim.Trace()); n > 50 {
		t.Errorf("trace length = %d, want <= 50", n)
	}
	if sim.Bus.Now() >= canbus.Time(1)*canbus.Millisecond {
		t.Errorf("clock reached %d despite the runaway timer", sim.Bus.Now())
	}
}

// TestStopReportsFailingNode covers the Stop error path: a node whose
// stopMeasurement handler runs away must surface its step-budget error
// through Stop instead of being swallowed at measurement end.
func TestStopReportsFailingNode(t *testing.T) {
	const src = `
on stopMeasurement {
  while (1) { }
}
`
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", src)
	if err != nil {
		t.Fatal(err)
	}
	node.MaxSteps = 100
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	err = sim.Stop()
	if err == nil {
		t.Fatal("failing stopMeasurement handler not reported")
	}
	if !strings.Contains(err.Error(), "steps") || !strings.Contains(err.Error(), "node N") {
		t.Errorf("error = %v, want step-budget error naming node N", err)
	}
	// The error latches: Err keeps reporting it afterwards.
	if sim.Err() == nil {
		t.Error("node error not latched after Stop")
	}
}

// TestMonitorTapUnderInjectorDrops pins what the trace window records
// when an injector eats frames: dropped frames never reach the monitor
// tap, so the trace holds exactly the delivered traffic.
func TestMonitorTapUnderInjectorDrops(t *testing.T) {
	sim := NewSimulation(canbus.Config{Injector: &canbus.Injector{
		Drop: func(_ canbus.Time, f canbus.Frame) bool { return f.ID == 0x200 },
	}})
	const src = `
variables {
  message 0x100 keep;
  message 0x200 lose;
}
on start {
  output(keep);
  output(lose);
  output(keep);
}
`
	node, err := sim.AddNode("S", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunBounded(context.Background(), canbus.Forever, 100); err != nil {
		t.Fatal(err)
	}
	// The sender observed all three transmissions succeed...
	if len(node.Sent) != 3 {
		t.Fatalf("sent = %d frames, want 3", len(node.Sent))
	}
	// ...but the monitor only saw the two delivered frames.
	ids := traceIDs(sim)
	if len(ids) != 2 || ids[0] != 0x100 || ids[1] != 0x100 {
		t.Errorf("monitored trace = %#x, want [0x100 0x100]", ids)
	}
	if st := sim.Bus.Stats(); st.FramesDropped != 1 || st.FramesDelivered != 2 {
		t.Errorf("stats = %+v, want 1 dropped / 2 delivered", st)
	}
}

func TestGlobalAccessor(t *testing.T) {
	sim := NewSimulation(canbus.Config{})
	node, err := sim.AddNode("N", "variables { int x = 5; }")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := node.Global("x"); !ok || v.(int64) != 5 {
		t.Errorf("Global(x) = %v, %v", v, ok)
	}
	if _, ok := node.Global("nope"); ok {
		t.Error("missing global reported present")
	}
}

// traceIDs returns the identifiers of the monitor trace, in bus order.
func traceIDs(sim *Simulation) []uint32 {
	var ids []uint32
	for _, tf := range sim.Trace() {
		ids = append(ids, tf.Frame.ID)
	}
	return ids
}
