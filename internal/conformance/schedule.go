// Package conformance is a seeded soak harness that checks the
// simulated CANoe network against the extracted CSP model: it generates
// randomized perturbation schedules (timer jitter, frame loss,
// duplication, delayed replay), runs them on the simulated bus, projects
// the delivered-frame trace into model events, and asks the refinement
// core whether the observed trace is a trace of the reference model
// composed with a bounded-fault channel. Divergent schedules are
// automatically shrunk to a minimal replayable reproduction. Every
// random decision derives from an explicit seed and every report is free
// of wall-clock data, so campaigns are byte-identical for a fixed master
// seed.
package conformance

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/ota"
)

// Variant selects the gateway pair riding the simulated bus and the
// reference model the trace is checked against (see ota.Variant).
type Variant = ota.Variant

// Soak variants.
const (
	VariantNaive    = ota.VariantNaive
	VariantHardened = ota.VariantHardened
	VariantFlawed   = ota.VariantFlawed
)

// Variants lists every soak variant in report order.
var Variants = ota.Variants

// OpKind is a perturbation class.
type OpKind string

// Perturbation classes. Frame ops are keyed by Nth, the 0-based index
// of the frame in the bus's completed-transmission order (fabricated
// replays count too); timer ops are keyed by Node plus Nth, the 0-based
// index among that node's setTimer calls.
const (
	// OpJitterTimer shifts the Nth setTimer interval of Node by DeltaMs
	// (clamped at zero).
	OpJitterTimer OpKind = "jitter-timer"
	// OpDropFrame destroys the Nth completed transmission.
	OpDropFrame OpKind = "drop-frame"
	// OpDupFrame re-injects a copy of the Nth completed transmission
	// DelayUs after its delivery.
	OpDupFrame OpKind = "dup-frame"
	// OpDelayFrame destroys the Nth completed transmission and
	// re-injects it DelayUs later — reordering it past later traffic.
	OpDelayFrame OpKind = "delay-frame"
)

// Op is one scheduled perturbation.
type Op struct {
	Kind    OpKind `json:"kind"`
	Nth     int    `json:"nth"`
	Node    string `json:"node,omitempty"`
	DeltaMs int64  `json:"deltaMs,omitempty"`
	DelayUs int64  `json:"delayUs,omitempty"`
}

// String renders the op compactly for reports.
func (o Op) String() string {
	switch o.Kind {
	case OpJitterTimer:
		return fmt.Sprintf("jitter-timer(%s#%d,%+dms)", o.Node, o.Nth, o.DeltaMs)
	case OpDropFrame:
		return fmt.Sprintf("drop-frame(#%d)", o.Nth)
	case OpDupFrame:
		return fmt.Sprintf("dup-frame(#%d,+%dus)", o.Nth, o.DelayUs)
	case OpDelayFrame:
		return fmt.Sprintf("delay-frame(#%d,+%dus)", o.Nth, o.DelayUs)
	}
	return string(o.Kind)
}

// Schedule is one replayable soak input: a variant, the seed it was
// generated from, a simulated-time horizon, and the perturbation list.
type Schedule struct {
	Variant   Variant `json:"variant"`
	Seed      int64   `json:"seed"`
	HorizonUs int64   `json:"horizonUs"`
	Ops       []Op    `json:"ops"`
}

// String is a one-line digest.
func (s Schedule) String() string {
	return fmt.Sprintf("%s seed=%d horizon=%dus ops=%d", s.Variant, s.Seed, s.HorizonUs, len(s.Ops))
}

// EncodeJSON renders the schedule as indented JSON, the replay file
// format of cmd/soak.
func (s Schedule) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSchedule parses a replay file.
func DecodeSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("conformance: decode schedule: %w", err)
	}
	if !slices.Contains(Variants, s.Variant) {
		return Schedule{}, fmt.Errorf("conformance: unknown variant %q in schedule", s.Variant)
	}
	if s.HorizonUs <= 0 {
		return Schedule{}, fmt.Errorf("conformance: schedule horizon must be positive, got %d", s.HorizonUs)
	}
	for i, op := range s.Ops {
		switch op.Kind {
		case OpJitterTimer, OpDropFrame, OpDupFrame, OpDelayFrame:
		default:
			return Schedule{}, fmt.Errorf("conformance: op %d has unknown kind %q", i, op.Kind)
		}
		if op.Nth < 0 {
			return Schedule{}, fmt.Errorf("conformance: op %d has negative index", i)
		}
	}
	return s, nil
}
