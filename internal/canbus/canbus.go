// Package canbus is a deterministic discrete-event simulator of a CAN
// bus: the substrate standing in for the physical network of the
// paper's CANoe environment (section IV-B). It models broadcast
// delivery, identifier-priority arbitration, transmission timing from
// the configured bit rate, and hook-based fault injection, all under a
// virtual clock so simulations are exactly reproducible.
package canbus

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Time is simulated time in microseconds.
type Time int64

// Millisecond and friends convert to simulated time.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// MaxDataLen is the classic CAN payload limit.
const MaxDataLen = 8

// Frame is a classic CAN data frame.
type Frame struct {
	// ID is the 11-bit (or 29-bit extended) identifier; lower wins
	// arbitration.
	ID uint32
	// Data is the payload, at most 8 bytes.
	Data []byte
	// Extended marks a 29-bit identifier frame.
	Extended bool
}

// Clone returns a deep copy of the frame. A nil payload stays nil so
// cloned frames compare deep-equal to their originals.
func (f Frame) Clone() Frame {
	if f.Data == nil {
		return Frame{ID: f.ID, Extended: f.Extended}
	}
	data := make([]byte, len(f.Data))
	copy(data, f.Data)
	return Frame{ID: f.ID, Data: data, Extended: f.Extended}
}

// String renders the frame like a candump line: three hex digits for a
// standard 11-bit identifier, eight for an extended 29-bit one.
func (f Frame) String() string {
	if f.Extended {
		return fmt.Sprintf("%08X#% X", f.ID, f.Data)
	}
	return fmt.Sprintf("%03X#% X", f.ID, f.Data)
}

// TimedFrame is one bus frame with its delivery timestamp, as a
// monitoring tap records it: one entry of a measurement.
type TimedFrame struct {
	At    Time
	Frame Frame
}

// bits returns the nominal frame size on the wire: fixed frame overhead
// plus payload plus a worst-case bit-stuffing estimate. ISO 11898 stuffs
// the region from SOF through the CRC sequence — not the payload alone —
// so the estimate covers SOF, arbitration, control, data and CRC bits
// (34 + payload for standard frames, 54 + payload for extended), at the
// worst case of one stuff bit per four stuffable bits after the first.
func (f Frame) bits() int {
	payload := 8 * len(f.Data)
	overhead, stuffable := 47, 34+payload
	if f.Extended {
		overhead, stuffable = 67, 54+payload
	}
	return overhead + payload + (stuffable-1)/4
}

// Receiver consumes frames delivered by the bus.
type Receiver interface {
	// OnFrame is called for every frame another node transmitted.
	OnFrame(t Time, f Frame)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(t Time, f Frame)

// OnFrame calls the function.
func (fn ReceiverFunc) OnFrame(t Time, f Frame) { fn(t, f) }

// Injector mutates or drops frames in flight, for failure-injection
// experiments. All hooks may be nil.
type Injector struct {
	// Observe is called for every frame whose transmission completes,
	// before any drop/corrupt/tamper decision. It is a pure observation
	// hook: conformance harnesses use it to key scheduled perturbations
	// off a deterministic per-bus transmission sequence number.
	Observe func(t Time, f Frame)
	// Drop returns true to lose the frame entirely (a receiver-side
	// loss: the transmitter still sees a successful transmission).
	Drop func(t Time, f Frame) bool
	// Corrupt may return a modified frame (e.g. flipped payload bits).
	// Without error confinement the mutated frame is delivered as-is;
	// with Config.ErrorConfinement the mutation models a wire error the
	// CRC catches, so the frame is destroyed by an error frame, error
	// counters move, and the transmitter retransmits.
	Corrupt func(t Time, f Frame) Frame
	// Tamper may return a modified frame that evades CRC detection
	// (targeted bit flips, spoofed identifiers). The mutation is always
	// delivered, even under error confinement.
	Tamper func(t Time, f Frame) Frame
}

// Config configures a bus.
type Config struct {
	// BitRate in bits/second; default 500 kbit/s, the common automotive
	// high-speed CAN rate.
	BitRate int
	// Injector optionally injects faults.
	Injector *Injector
	// ErrorConfinement enables the ISO 11898 error-confinement state
	// machine: per-node TEC/REC counters, error-active -> error-passive
	// -> bus-off transitions, automatic retransmission of frames
	// destroyed by detected errors, and bus-off recovery.
	ErrorConfinement bool
	// BusOffRecovery is the simulated time a bus-off node waits before
	// rejoining as error-active. Zero selects the ISO 11898 default of
	// 128 occurrences of 11 consecutive recessive bits at the
	// configured bit rate.
	BusOffRecovery Time
	// Obs receives bus counters (frames, arbitration losses, error
	// frames, retransmissions). nil disables them; the counters mirror —
	// never replace — the Stats the simulation itself reports, so report
	// bytes are identical with or without an observer.
	Obs *obs.Observer
}

// Stats accumulates bus counters.
type Stats struct {
	FramesRequested int
	FramesDelivered int
	FramesDropped   int
	FramesCorrupted int
	// ErrorFrames counts detected wire errors (error confinement).
	ErrorFrames int
	// Retransmissions counts automatic retransmissions after detected
	// errors (error confinement).
	Retransmissions int
	// BusOffEvents counts nodes entering bus-off (error confinement).
	BusOffEvents int
	// FramesRejected counts transmit requests refused because the
	// requesting node was bus-off.
	FramesRejected int
	BusBusy        Time
}

// Errors returned by bus operations.
var (
	ErrTooLong    = errors.New("canbus: frame payload exceeds 8 bytes")
	ErrDetached   = errors.New("canbus: tap does not belong to this bus")
	ErrTimeTravel = errors.New("canbus: cannot schedule in the past")
	// ErrBusOff is returned by Transmit when the sending node is in the
	// bus-off state; its controller cannot drive the bus until recovery.
	ErrBusOff = errors.New("canbus: node is bus-off")
)

// Tap is one node's attachment point to the bus.
type Tap struct {
	name string
	bus  *Bus
	recv Receiver
	// TxCount and RxCount are per-node frame counters.
	TxCount int
	RxCount int

	// Error-confinement state (meaningful when Config.ErrorConfinement
	// is set; a node without it stays error-active with zero counters).
	tec      int
	rec      int
	state    NodeState
	busOffAt Time
}

// Name returns the node name given at Attach time.
func (t *Tap) Name() string { return t.name }

// TEC returns the node's transmit error counter.
func (t *Tap) TEC() int { return t.tec }

// REC returns the node's receive error counter.
func (t *Tap) REC() int { return t.rec }

// State returns the node's ISO 11898 error-confinement state.
func (t *Tap) State() NodeState { return t.state }

// busMetrics holds the bus's obs counter handles, resolved once at New
// so the hot paths pay only the nil check of a disabled handle.
type busMetrics struct {
	framesRequested *obs.Counter
	framesDelivered *obs.Counter
	framesDropped   *obs.Counter
	framesCorrupted *obs.Counter
	arbLosses       *obs.Counter
	errorFrames     *obs.Counter
	retransmissions *obs.Counter
	busOffEvents    *obs.Counter
}

// Bus is a simulated CAN segment.
type Bus struct {
	cfg   Config
	now   Time
	taps  []*Tap
	stats Stats
	m     busMetrics

	// events is the time-ordered queue of pending simulation actions.
	events eventQueue
	seq    int64

	// pending holds frames queued for transmission, competing in
	// arbitration whenever the bus goes idle.
	pending []pendingFrame
	// busyUntil is when the current transmission completes.
	busyUntil Time
}

type pendingFrame struct {
	from  *Tap
	frame Frame
	seq   int64 // FIFO tie-break among equal IDs
}

type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// New creates a bus.
func New(cfg Config) *Bus {
	if cfg.BitRate <= 0 {
		cfg.BitRate = 500_000
	}
	o := cfg.Obs // nil-safe: nil Observer hands out nil no-op handles
	return &Bus{cfg: cfg, m: busMetrics{
		framesRequested: o.Counter("canbus.frames.requested"),
		framesDelivered: o.Counter("canbus.frames.delivered"),
		framesDropped:   o.Counter("canbus.frames.dropped"),
		framesCorrupted: o.Counter("canbus.frames.corrupted"),
		arbLosses:       o.Counter("canbus.arbitration.losses"),
		errorFrames:     o.Counter("canbus.error.frames"),
		retransmissions: o.Counter("canbus.retransmissions"),
		busOffEvents:    o.Counter("canbus.busoff.events"),
	}}
}

// Now returns the current simulated time.
func (b *Bus) Now() Time { return b.now }

// Stats returns a copy of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// Attach registers a receiver and returns its tap.
func (b *Bus) Attach(name string, r Receiver) *Tap {
	tap := &Tap{name: name, bus: b, recv: r}
	b.taps = append(b.taps, tap)
	return tap
}

// ReplayTap is a tap with no node behind it that fabricates traffic:
// fault harnesses use it to duplicate frames and to replay delayed
// ones. It retransmits at most a fixed number of frames, so a replayed
// frame that is replayed again cannot cascade without end.
type ReplayTap struct {
	*Tap
	left int
}

// AttachReplay registers a replay tap that fabricates at most max
// frames; r receives the frames other nodes transmit.
func (b *Bus) AttachReplay(name string, r Receiver, max int) *ReplayTap {
	return &ReplayTap{Tap: b.Attach(name, r), left: max}
}

// Replay schedules a retransmission of a copy of f from the tap at the
// given time, unless the tap's budget is spent.
func (rt *ReplayTap) Replay(at Time, f Frame) {
	if rt.left <= 0 {
		return
	}
	rt.left--
	clone := f.Clone()
	_ = rt.bus.Schedule(at, func() { _ = rt.bus.Transmit(rt.Tap, clone) })
}

// Schedule runs fn at the given absolute simulated time. It underpins
// CAPL timers.
func (b *Bus) Schedule(at Time, fn func()) error {
	if at < b.now {
		return fmt.Errorf("%w: at=%d now=%d", ErrTimeTravel, at, b.now)
	}
	b.push(at, fn)
	return nil
}

func (b *Bus) push(at Time, fn func()) {
	b.seq++
	b.events = append(b.events, event{at: at, seq: b.seq, fn: fn})
	// Keep the queue sorted; a heap would be asymptotically better but
	// simulations here are small and sorted-insert keeps replay order
	// obvious.
	sort.Sort(b.events)
}

// Transmit queues a frame for transmission from the given tap. The
// frame enters arbitration; delivery happens when it wins and its
// transmission time elapses.
func (b *Bus) Transmit(tap *Tap, f Frame) error {
	if tap == nil || tap.bus != b {
		return ErrDetached
	}
	if len(f.Data) > MaxDataLen {
		return ErrTooLong
	}
	if tap.state == BusOff {
		b.stats.FramesRejected++
		return ErrBusOff
	}
	b.stats.FramesRequested++
	b.m.framesRequested.Inc()
	b.seq++
	b.pending = append(b.pending, pendingFrame{from: tap, frame: f.Clone(), seq: b.seq})
	b.tryArbitrate()
	return nil
}

// tryArbitrate starts the highest-priority pending frame if the bus is
// idle.
func (b *Bus) tryArbitrate() {
	if len(b.pending) == 0 || b.busyUntil > b.now {
		return
	}
	// Lowest identifier wins; FIFO among equal identifiers.
	best := 0
	for i := 1; i < len(b.pending); i++ {
		p, q := b.pending[i], b.pending[best]
		if p.frame.ID < q.frame.ID || (p.frame.ID == q.frame.ID && p.seq < q.seq) {
			best = i
		}
	}
	winner := b.pending[best]
	b.pending = append(b.pending[:best], b.pending[best+1:]...)
	// Every frame still pending lost this arbitration round.
	b.m.arbLosses.Add(int64(len(b.pending)))

	duration := Time(int64(winner.frame.bits()) * int64(Second) / int64(b.cfg.BitRate))
	if duration <= 0 {
		duration = 1
	}
	done := b.now + duration
	b.busyUntil = done
	b.stats.BusBusy += duration
	b.push(done, func() { b.completeTransmission(winner) })
}

func (b *Bus) completeTransmission(p pendingFrame) {
	f := p.frame
	dropped := false
	if inj := b.cfg.Injector; inj != nil {
		if inj.Observe != nil {
			inj.Observe(b.now, f.Clone())
		}
		switch {
		case inj.Drop != nil && inj.Drop(b.now, f):
			dropped = true
			b.stats.FramesDropped++
			b.m.framesDropped.Inc()
		case inj.Corrupt != nil:
			mutated := clampFrame(inj.Corrupt(b.now, f.Clone()))
			if !framesEqual(mutated, f) {
				b.stats.FramesCorrupted++
				b.m.framesCorrupted.Inc()
				if b.cfg.ErrorConfinement {
					// A CRC-detected wire error: the frame is destroyed
					// by an error frame and never delivered.
					b.wireError(p)
					return
				}
				f = mutated
			}
		}
		if inj.Tamper != nil && !dropped {
			mutated := clampFrame(inj.Tamper(b.now, f.Clone()))
			if !framesEqual(mutated, f) {
				b.stats.FramesCorrupted++
				b.m.framesCorrupted.Inc()
			}
			f = mutated
		}
	}
	if !dropped {
		p.from.TxCount++
		b.recordTxSuccess(p.from)
		for _, tap := range b.taps {
			if tap == p.from {
				continue
			}
			tap.RxCount++
			b.stats.FramesDelivered++
			b.m.framesDelivered.Inc()
			b.recordRxSuccess(tap)
			tap.recv.OnFrame(b.now, f.Clone())
		}
	}
	// Bus is idle again: next arbitration round.
	b.tryArbitrate()
}

// clampFrame bounds an injector-mutated payload to the classic CAN
// limit, so fault hooks cannot fabricate frames the wire could not
// carry.
func clampFrame(f Frame) Frame {
	if len(f.Data) > MaxDataLen {
		f.Data = f.Data[:MaxDataLen]
	}
	return f
}

func framesEqual(a, b Frame) bool {
	if a.ID != b.ID || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// Step processes the next queued event, advancing the clock to it.
// It reports whether an event was processed.
func (b *Bus) Step() bool {
	if len(b.events) == 0 {
		return false
	}
	ev := b.events[0]
	b.events = b.events[1:]
	b.now = ev.at
	ev.fn()
	return true
}

// Forever is the horizon of a run that stops only when the bus drains:
// no event is scheduled past it, and a run to it leaves the clock at
// the last event processed.
const Forever Time = math.MaxInt64

// Run processes events until the queue drains or the clock passes
// `until`. It returns the number of events processed.
func (b *Bus) Run(until Time) int {
	n, _ := b.RunLimited(until, math.MaxInt)
	return n
}

// RunAll drains the event queue completely (with a safety cap) and
// returns the number of events processed.
func (b *Bus) RunAll(maxEvents int) int {
	n, _ := b.RunLimited(Forever, maxEvents)
	return n
}

// RunLimited processes events until the clock passes `until`, the queue
// drains, or maxEvents events have been processed — whichever comes
// first. It returns the number of events processed and whether the run
// reached `until` (or drained) within the event budget, so soak
// harnesses can stop a runaway measurement (e.g. a zero-period timer
// rearming itself at a fixed timestamp) instead of spinning forever.
func (b *Bus) RunLimited(until Time, maxEvents int) (n int, done bool) {
	for len(b.events) > 0 && b.events[0].at <= until {
		if n >= maxEvents {
			return n, false
		}
		b.Step()
		n++
	}
	if b.now < until && until != Forever {
		b.now = until
	}
	return n, true
}

// Load returns the fraction of elapsed time the bus spent transmitting.
// Committed transmissions extending past the current clock count in
// full, so the elapsed basis includes them.
func (b *Bus) Load() float64 {
	elapsed := b.now
	if b.busyUntil > elapsed {
		elapsed = b.busyUntil
	}
	if elapsed == 0 {
		return 0
	}
	return float64(b.stats.BusBusy) / float64(elapsed)
}
