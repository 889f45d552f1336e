package canoe

import (
	"errors"
	"fmt"

	"repro/internal/canbus"
	"repro/internal/capl"
)

// Node is one simulated network node: a CAPL program attached to a bus.
type Node struct {
	Name string

	prog    *capl.Program
	bus     *canbus.Bus
	tap     *canbus.Tap
	globals map[string]*cell
	timers  map[string]*timerState

	// Log collects write() output lines.
	Log []string
	// Sent and Received record the node's frame history.
	Sent     []canbus.Frame
	Received []canbus.Frame
	// OutputsRejected counts output() calls refused because the node's
	// controller was bus-off.
	OutputsRejected int

	// MaxSteps bounds statement execution per event procedure call, to
	// catch runaway CAPL loops (default 1 << 20).
	MaxSteps int

	// TimerJitter, when set, perturbs every setTimer duration: it
	// receives the timer name and the programmed delay in milliseconds
	// and returns the delay to use instead. Negative results clamp to
	// zero. Conformance soak harnesses use it to explore schedule
	// interleavings the nominal timings never exhibit.
	TimerJitter func(name string, ms int64) int64

	// firstErr latches the first runtime error raised inside an event
	// callback (callbacks cannot return errors to the scheduler).
	firstErr error
}

// NewNode parses nothing: it takes an already parsed program, attaches
// it to the bus and initialises the variables section.
func NewNode(bus *canbus.Bus, name string, prog *capl.Program) (*Node, error) {
	n := &Node{
		Name:     name,
		prog:     prog,
		bus:      bus,
		globals:  map[string]*cell{},
		timers:   map[string]*timerState{},
		MaxSteps: 1 << 20,
	}
	n.tap = bus.Attach(name, n)
	for _, d := range prog.Variables {
		v, err := n.initialValue(d)
		if err != nil {
			return nil, fmt.Errorf("node %s: variable %s: %w", name, d.Name, err)
		}
		n.globals[d.Name] = &cell{v: v}
		if ts, ok := v.(*timerState); ok {
			n.timers[d.Name] = ts
		}
	}
	return n, nil
}

// Err returns the first runtime error raised inside an event handler.
func (n *Node) Err() error { return n.firstErr }

func (n *Node) setErr(err error) {
	if n.firstErr == nil && err != nil {
		n.firstErr = fmt.Errorf("node %s: %w", n.Name, err)
	}
}

func (n *Node) initialValue(d *capl.VarDecl) (any, error) {
	switch d.Type.Base {
	case capl.TypeMessage:
		mv := &MsgVal{DLC: canbus.MaxDataLen}
		if d.MsgID >= 0 {
			mv.ID = uint32(d.MsgID)
		}
		return mv, nil
	case capl.TypeMsTimer, capl.TypeTimer:
		return &timerState{name: d.Name}, nil
	case capl.TypeFloat, capl.TypeDouble:
		if d.Init != nil {
			in := &interp{node: n}
			v, err := in.eval(d.Init, nil)
			if err != nil {
				return nil, err
			}
			switch x := v.(type) {
			case float64:
				return x, nil
			case int64:
				return float64(x), nil
			}
			return nil, fmt.Errorf("bad float initialiser %T", v)
		}
		return float64(0), nil
	case capl.TypeChar:
		if len(d.Type.ArrayDims) > 0 {
			// Character arrays hold strings.
			if d.Init != nil {
				in := &interp{node: n}
				v, err := in.eval(d.Init, nil)
				if err != nil {
					return nil, err
				}
				if s, ok := v.(string); ok {
					return s, nil
				}
			}
			return "", nil
		}
		fallthrough
	default:
		if len(d.Type.ArrayDims) > 0 {
			size := 1
			for _, dim := range d.Type.ArrayDims {
				if dim > 0 {
					size *= dim
				}
			}
			return make([]int64, size), nil
		}
		if d.Init != nil {
			in := &interp{node: n}
			v, err := in.eval(d.Init, nil)
			if err != nil {
				return nil, err
			}
			return v, nil
		}
		return int64(0), nil
	}
}

// Start runs the node's `on start` event procedures.
func (n *Node) Start() error {
	for _, h := range n.prog.HandlersOf(capl.OnStart) {
		if err := n.runHandler(h, nil); err != nil {
			return err
		}
	}
	return nil
}

// OnFrame implements canbus.Receiver: it dispatches matching
// `on message` event procedures.
func (n *Node) OnFrame(_ canbus.Time, f canbus.Frame) {
	n.Received = append(n.Received, f.Clone())
	this := &MsgVal{ID: f.ID, DLC: len(f.Data)}
	copy(this.Data[:], f.Data)
	for _, h := range n.prog.HandlersOf(capl.OnMessage) {
		if !n.handlerMatches(h, f.ID) {
			continue
		}
		if err := n.runHandler(h, this); err != nil {
			n.setErr(err)
			return
		}
	}
}

func (n *Node) handlerMatches(h *capl.Handler, id uint32) bool {
	switch {
	case h.Target == "*":
		return true
	case h.TargetID >= 0:
		return uint32(h.TargetID) == id
	default:
		c, ok := n.globals[h.Target]
		if !ok {
			return false
		}
		mv, ok := c.v.(*MsgVal)
		return ok && mv.ID == id
	}
}

// runHandler executes one event procedure body with `this` bound.
func (n *Node) runHandler(h *capl.Handler, this *MsgVal) error {
	in := &interp{node: n, this: this, limit: n.MaxSteps}
	_, err := in.execBlock(h.Body, newScope(nil))
	return err
}

// fireTimer runs the `on timer` procedures for the named timer.
func (n *Node) fireTimer(name string, gen int) {
	ts, ok := n.timers[name]
	if !ok || !ts.armed || ts.gen != gen {
		return // cancelled or re-armed since scheduling
	}
	ts.armed = false
	for _, h := range n.prog.HandlersOf(capl.OnTimer) {
		if h.Target != name {
			continue
		}
		if err := n.runHandler(h, nil); err != nil {
			n.setErr(err)
			return
		}
	}
}

// setTimer arms the named timer to fire after ms milliseconds.
func (n *Node) setTimer(name string, ms int64) error {
	ts, ok := n.timers[name]
	if !ok {
		return fmt.Errorf("setTimer: %q is not a declared timer", name)
	}
	if n.TimerJitter != nil {
		ms = n.TimerJitter(name, ms)
		if ms < 0 {
			ms = 0
		}
	}
	ts.armed = true
	ts.gen++
	gen := ts.gen
	return n.bus.Schedule(n.bus.Now()+canbus.Time(ms)*canbus.Millisecond, func() {
		n.fireTimer(name, gen)
	})
}

func (n *Node) cancelTimer(name string) error {
	ts, ok := n.timers[name]
	if !ok {
		return fmt.Errorf("cancelTimer: %q is not a declared timer", name)
	}
	ts.armed = false
	ts.gen++
	return nil
}

// output transmits the message variable's current value. A bus-off
// controller silently refuses the frame — CAPL's output() does not
// raise, matching CANoe — and the rejection is counted instead.
func (n *Node) output(mv *MsgVal) error {
	f := mv.Frame()
	err := n.bus.Transmit(n.tap, f)
	if errors.Is(err, canbus.ErrBusOff) {
		n.OutputsRejected++
		return nil
	}
	if err == nil {
		n.Sent = append(n.Sent, f.Clone())
	}
	return err
}

// Tap returns the node's bus attachment, exposing its error-confinement
// state and frame counters.
func (n *Node) Tap() *canbus.Tap { return n.tap }

// Global returns the current value of a node global variable (int64,
// float64, string, []int64, *MsgVal or timer state).
func (n *Node) Global(name string) (any, bool) {
	c, ok := n.globals[name]
	if !ok {
		return nil, false
	}
	return c.v, true
}

// PressKey delivers a keyboard event to the node, running its matching
// `on key` procedures (CANoe's interactive panel keys).
func (n *Node) PressKey(key string) error {
	for _, h := range n.prog.HandlersOf(capl.OnKey) {
		if h.Target != key {
			continue
		}
		if err := n.runHandler(h, nil); err != nil {
			n.setErr(err)
			return n.firstErr
		}
	}
	return nil
}

// StopMeasurement runs the node's `on stopMeasurement` procedures, as
// CANoe does when a measurement ends. A node that already latched a
// runtime error is dead — its handlers do not run (they would execute
// on a faulted interpreter state and could mask the original fault) and
// the latched error is returned unchanged.
func (n *Node) StopMeasurement() error {
	if n.firstErr != nil {
		return n.firstErr
	}
	for _, h := range n.prog.HandlersOf(capl.OnStopMeasurement) {
		if err := n.runHandler(h, nil); err != nil {
			n.setErr(err)
			return n.firstErr
		}
	}
	return nil
}
