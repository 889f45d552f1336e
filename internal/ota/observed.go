package ota

import (
	"fmt"
	"slices"
	"strings"
)

// This file builds the observed-bus conformance composition used by the
// soak harness (internal/conformance): the extracted node models placed
// behind an explicit bounded-fault channel, projected onto the events a
// bus monitor can actually see. A CANoe-style monitor records frames as
// they are *delivered*, so the comparable CSP trace is not over the
// synchronized send/rec of the paper's SYSTEM but over the delivered
// side of each direction: sendE (frames reaching the ECU) and rec
// (frames reaching the VMG). Transmissions the fault injector consumed
// or fabricated are absorbed by per-direction drop and spurious-delivery
// budgets derived from the faults that actually fired during the run.

// Observed-trace channel names: the events a bus monitor sees, and the
// direction each protocol identifier projects onto.
const (
	// ObservedToECU is the delivered VMG->ECU direction (reqSw, reqApp).
	ObservedToECU = "sendE"
	// ObservedToVMG is the delivered ECU->VMG direction (rptSw, rptUpd).
	ObservedToVMG = "rec"
)

// ObservedProcess is the name of the conformance process: the composed
// system with undelivered and internal events hidden, so its traces
// range exactly over the monitor-visible events.
const ObservedProcess = "OBSC"

// ChannelBudgets bounds the fault channel of the observed composition.
// All four budgets are per-run totals, not rates; the zero value is the
// exact (fault-free) channel, which relays every frame unmodified.
type ChannelBudgets struct {
	// DropToECU / DropToVMG allow the channel to destroy that many
	// accepted frames in the given direction (frame loss, or the loss
	// half of a delayed replay).
	DropToECU int `json:"dropToEcu"`
	DropToVMG int `json:"dropToVmg"`
	// SpurToECU / SpurToVMG allow that many spurious deliveries — frames
	// appearing on the delivered side without a matching send, covering
	// duplicates and the late half of delayed replays.
	SpurToECU int `json:"spurToEcu"`
	SpurToVMG int `json:"spurToVmg"`
}

// IsZero reports whether the channel is exact (no fault slack).
func (b ChannelBudgets) IsZero() bool {
	return b == ChannelBudgets{}
}

// ObservedConfig selects the reference sources and fault budgets of an
// observed-bus composition.
type ObservedConfig struct {
	// ECUSource and VMGSource are the CAPL programs the reference model
	// is extracted from.
	ECUSource string
	VMGSource string
	// WithTimers hides the timer events of the extracted models (needed
	// whenever a source uses CANoe timers — they are invisible on the
	// bus).
	WithTimers bool
	// Budgets bounds the fault channel.
	Budgets ChannelBudgets
}

// ObservedConfigFor returns the standard configuration for a gateway
// variant (reference model extracted from the variant's own sources).
func ObservedConfigFor(variant LossyVariant, b ChannelBudgets) ObservedConfig {
	cfg := ObservedConfig{
		ECUSource: ECUSource,
		VMGSource: VMGSource,
		Budgets:   b,
	}
	if variant == HardenedGateway {
		cfg.ECUSource = HardenedECUSource
		cfg.VMGSource = HardenedVMGSource
		cfg.WithTimers = true
	}
	return cfg
}

// Variant selects a gateway pair of the OTA corpus for the soak and
// learning campaigns. Naive and hardened check an implementation against
// the model extracted from its own sources — the pipeline-faithfulness
// question. Flawed simulates the broken ECU (wrong reply message type)
// while checking against the model of the correct one: the
// model/implementation mismatch those campaigns exist to catch.
type Variant string

// The corpus variants.
const (
	VariantNaive    Variant = "naive"
	VariantHardened Variant = "hardened"
	VariantFlawed   Variant = "flawed"
)

// Variants lists the whole corpus in report order.
var Variants = []Variant{VariantNaive, VariantHardened, VariantFlawed}

// Sources returns the CAPL programs the simulation runs.
func (v Variant) Sources() (ecu, vmg string, err error) {
	switch v {
	case VariantNaive:
		return ECUSource, VMGSource, nil
	case VariantHardened:
		return HardenedECUSource, HardenedVMGSource, nil
	case VariantFlawed:
		return FlawedECUSource, VMGSource, nil
	}
	return "", "", fmt.Errorf("ota: unknown variant %q", v)
}

// ReferenceConfig returns the observed-model configuration the
// variant's traces are checked against (budgets are filled in per run).
// The flawed ECU is checked against the correct reference model.
func (v Variant) ReferenceConfig() (ObservedConfig, error) {
	switch v {
	case VariantNaive, VariantFlawed:
		return ObservedConfigFor(NaiveGateway, ChannelBudgets{}), nil
	case VariantHardened:
		return ObservedConfigFor(HardenedGateway, ChannelBudgets{}), nil
	}
	return ObservedConfig{}, fmt.Errorf("ota: unknown variant %q", v)
}

// HasTimers reports whether the simulated gateway uses CANoe timers
// (and therefore whether timer-jitter perturbations can fire).
func (v Variant) HasTimers() bool { return v == VariantHardened }

// ParseVariants resolves a comma-separated -variants flag; "" and "all"
// select every variant (nil).
func ParseVariants(s string) ([]Variant, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []Variant
	for _, part := range strings.Split(s, ",") {
		v := Variant(strings.TrimSpace(part))
		if !slices.Contains(Variants, v) {
			return nil, fmt.Errorf("unknown variant %q (want naive, hardened or flawed)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// observedSpecSection renders the bounded-fault channel and the
// conformance composition. Each direction is a two-deep FIFO with a
// per-run drop budget d and a spurious-delivery budget k: on accepting
// a frame it may internally discard it (consuming d), and at any point
// it may deliver an arbitrary message without a matching send
// (consuming k). With both budgets zero each direction degenerates to
// an exact order-preserving relay.
func observedSpecSection(b ChannelBudgets, withTimers bool) string {
	hidden := "{| send, recE |}"
	if withTimers {
		hidden = "{| send, recE, setTimer, cancelTimer, timeout |}"
	}
	return fmt.Sprintf(`
-- Observed-bus conformance composition (soak harness).
channel sendE, recE : Msgs
ECUC = ECU[[send <- sendE, rec <- recE]]

-- VMG -> ECU direction: accepts send, delivers sendE.
CQS0(d, k) = send?x -> CQSA(d, k, x)
           [] (if k > 0 then sendE?y -> CQS0(d, k - 1) else STOP)
CQSA(d, k, x) = if d > 0 then (CQS1(d, k, x) |~| CQS0(d - 1, k)) else CQS1(d, k, x)
CQS1(d, k, x) = sendE!x -> CQS0(d, k)
             [] send?y -> CQSB(d, k, x, y)
             [] (if k > 0 then sendE?z -> CQS1(d, k - 1, x) else STOP)
CQSB(d, k, x, y) = if d > 0 then ((CQS2(d, k, x, y) |~| CQS1(d - 1, k, x)) |~| CQS1(d - 1, k, y)) else CQS2(d, k, x, y)
CQS2(d, k, x, y) = sendE!x -> CQS1(d, k, y)
               [] sendE!y -> CQS1(d, k, x)
               [] (if k > 0 then sendE?z -> CQS2(d, k - 1, x, y) else STOP)

-- ECU -> VMG direction: accepts recE, delivers rec.
CQR0(d, k) = recE?x -> CQRA(d, k, x)
           [] (if k > 0 then rec?y -> CQR0(d, k - 1) else STOP)
CQRA(d, k, x) = if d > 0 then (CQR1(d, k, x) |~| CQR0(d - 1, k)) else CQR1(d, k, x)
CQR1(d, k, x) = rec!x -> CQR0(d, k)
             [] recE?y -> CQRB(d, k, x, y)
             [] (if k > 0 then rec?z -> CQR1(d, k - 1, x) else STOP)
CQRB(d, k, x, y) = if d > 0 then ((CQR2(d, k, x, y) |~| CQR1(d - 1, k, x)) |~| CQR1(d - 1, k, y)) else CQR2(d, k, x, y)
CQR2(d, k, x, y) = rec!x -> CQR1(d, k, y)
               [] rec!y -> CQR1(d, k, x)
               [] (if k > 0 then rec?z -> CQR2(d, k - 1, x, y) else STOP)

BUSC = CQS0(%d, %d) ||| CQR0(%d, %d)
SYSTEMC = (VMG [| {| send, rec |} |] BUSC) [| {| sendE, recE |} |] ECUC
OBSC = SYSTEMC \ %s
`, b.DropToECU, b.SpurToECU, b.DropToVMG, b.SpurToVMG, hidden)
}

// BuildObserved assembles the observed-bus conformance model: the
// Figure 1 extraction of both sources, composed behind the bounded
// fault channel, with the undelivered/internal events hidden. The
// resulting System's ObservedProcess has as its traces exactly the
// delivered-frame sequences the reference implementation could produce
// under at most the budgeted faults.
func BuildObserved(cfg ObservedConfig) (*System, error) {
	if cfg.Budgets.DropToECU < 0 || cfg.Budgets.SpurToECU < 0 ||
		cfg.Budgets.DropToVMG < 0 || cfg.Budgets.SpurToVMG < 0 {
		return nil, fmt.Errorf("ota: channel budgets must be >= 0, got %+v", cfg.Budgets)
	}
	return assemble(observedSpecSection(cfg.Budgets, cfg.WithTimers), 0,
		ecuNode(cfg.ECUSource), vmgNode(cfg.VMGSource))
}
