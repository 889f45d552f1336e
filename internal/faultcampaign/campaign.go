// Package faultcampaign is a deterministic, seeded fault-injection
// campaign engine over the simulated CAN network. It sweeps structured
// fault scenarios — frame loss, CRC-detected corruption, undetected
// tampering, duplication, delay, burst loss, babbling-idiot flooding
// and targeted-identifier attacks — across the OTA case study nodes,
// runs each scenario under the ISO 11898 error-confinement model, and
// judges the outcome: did the update protocol converge, time out, or
// violate a safety property? Every scenario carries its own seed, so a
// campaign report is exactly reproducible, and failed scenarios carry a
// counterexample tail of the delivered bus traffic.
package faultcampaign

import (
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/canoe"
	"repro/internal/obs"
	"repro/internal/ota"
)

// Kind is a fault-scenario class.
type Kind int

// Fault-scenario classes, the taxonomy of the campaign matrix.
const (
	// Drop loses frames at random with probability Prob (receiver-side
	// loss; the transmitter believes the frame made it).
	Drop Kind = iota
	// CorruptDetected flips wire bits that the CAN CRC catches: the
	// frame is destroyed by an error frame, error counters move, and the
	// controller retransmits (ISO 11898 error confinement).
	CorruptDetected
	// TamperUndetected flips bits that evade the CRC — the mutated
	// frame, possibly with a spoofed identifier, is delivered as-is.
	TamperUndetected
	// Duplicate re-injects delivered frames a short time later, the
	// classic at-least-once delivery fault retransmission layers create.
	Duplicate
	// Delay suppresses a frame and replays it after DelayBy, modelling
	// queueing jitter in a gateway.
	Delay
	// BurstLoss drops every frame inside recurring windows of Width
	// every Period, like an intermittent connector.
	BurstLoss
	// BabblingIdiot floods the bus with a high-priority identifier
	// (TargetID) every Period during the first Width of the run,
	// starving legitimate traffic through arbitration.
	BabblingIdiot
	// TargetedDrop silently kills every frame with identifier TargetID —
	// a selective denial-of-service against one message type.
	TargetedDrop

	numKinds
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case CorruptDetected:
		return "corrupt"
	case TamperUndetected:
		return "tamper"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case BurstLoss:
		return "burst-loss"
	case BabblingIdiot:
		return "babbling-idiot"
	case TargetedDrop:
		return "targeted-drop"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Variant selects which protocol implementation rides the faulty bus.
type Variant int

// Protocol variants under test.
const (
	// Naive is the paper's original VMG/ECU pair: no retransmission, no
	// duplicate suppression.
	Naive Variant = iota
	// Hardened is the retransmission variant: ack timers, bounded retry
	// with backoff, sequence-bit duplicate suppression.
	Hardened
)

// String names the variant.
func (v Variant) String() string {
	if v == Hardened {
		return "hardened"
	}
	return "naive"
}

// Scenario is one cell of the campaign matrix. The zero value is not
// runnable; scenarios come from Matrix or are built explicitly.
type Scenario struct {
	// Name uniquely identifies the scenario inside a campaign.
	Name string `json:"name"`
	// Kind is the fault class.
	Kind Kind `json:"kind"`
	// KindName is Kind.String(), carried for readable reports.
	KindName string `json:"kindName"`
	// Variant is the protocol implementation under test.
	Variant Variant `json:"variant"`
	// VariantName is Variant.String().
	VariantName string `json:"variantName"`
	// Seed drives every random decision of the scenario.
	Seed int64 `json:"seed"`
	// Prob is the per-frame fault probability (probabilistic kinds).
	Prob float64 `json:"prob,omitempty"`
	// TargetID is the attacked identifier (TargetedDrop, BabblingIdiot).
	TargetID uint32 `json:"targetId,omitempty"`
	// DelayBy is the replay delay (Delay).
	DelayBy canbus.Time `json:"delayByUs,omitempty"`
	// Period is the burst recurrence or babble interval.
	Period canbus.Time `json:"periodUs,omitempty"`
	// Width is the burst width or babble window.
	Width canbus.Time `json:"widthUs,omitempty"`
	// Horizon is how long the measurement runs (simulated time).
	Horizon canbus.Time `json:"horizonUs"`
	// TargetCycles is how many applied updates count as convergence.
	TargetCycles int `json:"targetCycles"`
}

// Verdict classifies a scenario outcome.
type Verdict int

// Scenario verdicts.
const (
	// Converged: the ECU applied at least TargetCycles updates.
	Converged Verdict = iota
	// TimedOut: the protocol made insufficient progress within Horizon.
	TimedOut
	// Violated: a monitored safety property failed (spoofed identifier,
	// unsolicited result, or more updates applied than requested).
	Violated
	// Errored: the simulation itself failed.
	Errored
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Converged:
		return "converged"
	case TimedOut:
		return "timed-out"
	case Violated:
		return "violated"
	case Errored:
		return "error"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Outcome is the judged result of one scenario run.
type Outcome struct {
	Scenario Scenario `json:"scenario"`
	Verdict  Verdict  `json:"-"`
	// VerdictName is Verdict.String(), the serialised form.
	VerdictName string `json:"verdict"`
	// UpdatesApplied is the ECU's update counter at the end of the run.
	UpdatesApplied int `json:"updatesApplied"`
	// RequestedUpdates counts apply-update frames the VMG transmitted.
	RequestedUpdates int `json:"requestedUpdates"`
	// GaveUp reports whether the hardened gateway exhausted its retries.
	GaveUp bool `json:"gaveUp,omitempty"`
	// Violation describes the failed property (Violated verdict).
	Violation string `json:"violation,omitempty"`
	// Error is the simulation error (Errored verdict).
	Error string `json:"error,omitempty"`
	// VMGState and ECUState are the final error-confinement states.
	VMGState string `json:"vmgState"`
	ECUState string `json:"ecuState"`
	// Stats is the bus counter snapshot.
	Stats canbus.Stats `json:"stats"`
	// DeliveredFrames is the total delivered-frame count of the trace.
	DeliveredFrames int `json:"deliveredFrames"`
	// TailTrace is the counterexample material: the last delivered
	// frames, rendered candump-style, for non-converged scenarios.
	TailTrace []string `json:"tailTrace,omitempty"`
}

// Config parameterises a campaign.
type Config struct {
	// Seed is the master seed; per-scenario seeds derive from it.
	Seed int64
	// SeedsPerCase replicates each matrix cell with distinct seeds
	// (default 2).
	SeedsPerCase int
	// Horizon bounds each scenario's simulated time (default 3 s).
	Horizon canbus.Time
	// TargetCycles is the convergence threshold (default 3).
	TargetCycles int
	// Variants restricts the protocol variants (default both).
	Variants []Variant
	// Workers is the number of scenarios simulated concurrently; 0 means
	// GOMAXPROCS, 1 forces sequential execution. Each scenario is a pure
	// function of its seed and outcomes are aggregated in matrix order,
	// so the report is byte-identical at any worker count.
	Workers int
	// Obs receives per-scenario spans, verdict counters and progress
	// heartbeats (and is threaded into the simulated bus). nil disables
	// instrumentation; reports are byte-identical either way.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.SeedsPerCase <= 0 {
		c.SeedsPerCase = 2
	}
	if c.Horizon <= 0 {
		c.Horizon = 3 * canbus.Second
	}
	if c.TargetCycles <= 0 {
		c.TargetCycles = 3
	}
	if len(c.Variants) == 0 {
		c.Variants = []Variant{Naive, Hardened}
	}
	return c
}

// matrixCase is one parameter point of the campaign matrix.
type matrixCase struct {
	kind     Kind
	prob     float64
	targetID uint32
	delayBy  canbus.Time
	period   canbus.Time
	width    canbus.Time
}

// matrixCases is the standard sweep: every fault kind at two parameter
// points.
var matrixCases = []matrixCase{
	{kind: Drop, prob: 0.1},
	{kind: Drop, prob: 0.3},
	{kind: CorruptDetected, prob: 0.1},
	{kind: CorruptDetected, prob: 0.3},
	{kind: TamperUndetected, prob: 0.05},
	{kind: TamperUndetected, prob: 0.15},
	{kind: Duplicate, prob: 0.2},
	{kind: Duplicate, prob: 0.4},
	{kind: Delay, prob: 0.3, delayBy: 2 * canbus.Millisecond},
	{kind: Delay, prob: 0.3, delayBy: 10 * canbus.Millisecond},
	{kind: BurstLoss, period: 100 * canbus.Millisecond, width: 20 * canbus.Millisecond},
	{kind: BurstLoss, period: 100 * canbus.Millisecond, width: 50 * canbus.Millisecond},
	{kind: BabblingIdiot, targetID: 0x001, period: canbus.Millisecond, width: 200 * canbus.Millisecond},
	{kind: BabblingIdiot, targetID: 0x001, period: 5 * canbus.Millisecond, width: 200 * canbus.Millisecond},
	{kind: TargetedDrop, targetID: idRptSw},
	{kind: TargetedDrop, targetID: idRptUpd},
}

// Matrix expands the configuration into the full scenario list:
// every fault case x protocol variant x seed replica.
func Matrix(cfg Config) []Scenario {
	cfg = cfg.withDefaults()
	var out []Scenario
	for _, mc := range matrixCases {
		for _, variant := range cfg.Variants {
			for rep := 0; rep < cfg.SeedsPerCase; rep++ {
				idx := len(out)
				sc := Scenario{
					Kind:         mc.kind,
					KindName:     mc.kind.String(),
					Variant:      variant,
					VariantName:  variant.String(),
					Seed:         campaign.Seed(cfg.Seed, idx),
					Prob:         mc.prob,
					TargetID:     mc.targetID,
					DelayBy:      mc.delayBy,
					Period:       mc.period,
					Width:        mc.width,
					Horizon:      cfg.Horizon,
					TargetCycles: cfg.TargetCycles,
				}
				sc.Name = scenarioName(sc, rep)
				out = append(out, sc)
			}
		}
	}
	return out
}

func scenarioName(sc Scenario, rep int) string {
	detail := ""
	switch sc.Kind {
	case Drop, CorruptDetected, TamperUndetected, Duplicate:
		detail = fmt.Sprintf("-p%g", sc.Prob)
	case Delay:
		detail = fmt.Sprintf("-d%dms", int64(sc.DelayBy/canbus.Millisecond))
	case BurstLoss:
		detail = fmt.Sprintf("-w%dms", int64(sc.Width/canbus.Millisecond))
	case BabblingIdiot:
		detail = fmt.Sprintf("-i%dms", int64(sc.Period/canbus.Millisecond))
	case TargetedDrop:
		detail = fmt.Sprintf("-id%03X", sc.TargetID)
	}
	return fmt.Sprintf("%s%s-%s-r%d", sc.Kind, detail, sc.Variant, rep)
}

// The protocol identifiers of the OTA case study, read from Table II.
var (
	idReqSw  = tableIIID("reqSw")
	idRptSw  = tableIIID("rptSw")
	idReqApp = tableIIID("reqApp")
	idRptUpd = tableIIID("rptUpd")
)

// tableIIID returns the CAN identifier of the Table II message type id.
func tableIIID(id string) uint32 {
	for _, m := range ota.TableII {
		if m.ID == id {
			return uint32(m.CANID)
		}
	}
	panic("faultcampaign: no Table II message type " + id)
}

// tailTraceLen bounds the counterexample tail kept per outcome.
const tailTraceLen = 12

// RunScenario executes one scenario and judges it. All randomness comes
// from the scenario seed and all time is simulated, so the outcome is a
// pure function of the scenario.
func RunScenario(sc Scenario) Outcome {
	return runScenario(sc, nil)
}

// runScenario is RunScenario with campaign instrumentation attached: a
// span per scenario (name, seed, kind, variant, verdict) and the bus
// counters, all inert when o is nil.
func runScenario(sc Scenario, o *obs.Observer) (out Outcome) {
	span := o.StartSpan("faultcampaign.scenario",
		obs.String("name", sc.Name),
		obs.Int("seed", sc.Seed),
		obs.String("kind", sc.KindName),
		obs.String("variant", sc.VariantName))
	defer func() {
		o.Counter("faultcampaign.scenarios").Inc()
		o.Counter("faultcampaign.verdict." + out.Verdict.String()).Inc()
		span.End(obs.String("verdict", out.Verdict.String()),
			obs.Int("deliveredFrames", int64(out.DeliveredFrames)))
	}()
	out = Outcome{Scenario: sc}
	if sc.Kind == BabblingIdiot && sc.Period <= 0 {
		// The flood reschedules itself Period later; at Period <= 0 it
		// would fire at the same instant forever.
		return judgeError(out, fmt.Errorf("babbling-idiot scenario needs Period > 0, got %dus", int64(sc.Period)))
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	inj := &canbus.Injector{}
	sim := canoe.NewSimulation(canbus.Config{
		Injector:         inj,
		ErrorConfinement: true,
		Obs:              o,
	})
	vmgSrc, ecuSrc := ota.VMGSource, ota.ECUSource
	if sc.Variant == Hardened {
		vmgSrc, ecuSrc = ota.HardenedVMGSource, ota.HardenedECUSource
	}
	vmg, err := sim.AddNode("VMG", vmgSrc)
	if err == nil {
		_, err = sim.AddNode("ECU", ecuSrc)
	}
	if err != nil {
		return judgeError(out, err)
	}
	installFault(sc, sim, inj, rng)
	if err := sim.Start(); err != nil {
		return judgeError(out, err)
	}
	if err := sim.Run(sc.Horizon); err != nil {
		return judgeError(out, err)
	}
	return judge(out, sim, vmg)
}

func judgeError(out Outcome, err error) Outcome {
	out.Verdict = Errored
	out.VerdictName = out.Verdict.String()
	out.Error = err.Error()
	return out
}

// judge inspects the finished measurement and assigns the verdict:
// property violations dominate, then convergence, then timeout.
func judge(out Outcome, sim *canoe.Simulation, vmg *canoe.Node) Outcome {
	ecu, err := sim.Node("ECU")
	if err != nil {
		return judgeError(out, err)
	}
	out.UpdatesApplied = nodeInt(ecu, "updatesApplied")
	for _, f := range vmg.Sent {
		if f.ID == idReqApp {
			out.RequestedUpdates++
		}
	}
	out.GaveUp = nodeInt(vmg, "gaveUp") != 0
	out.Stats = sim.Bus.Stats()
	trace := sim.Trace()
	out.DeliveredFrames = len(trace)
	out.VMGState = tapState(sim, "VMG")
	out.ECUState = tapState(sim, "ECU")

	out.Violation = checkInvariants(out.Scenario, trace, out.UpdatesApplied, out.RequestedUpdates)
	switch {
	case out.Violation != "":
		out.Verdict = Violated
	case out.UpdatesApplied >= out.Scenario.TargetCycles:
		out.Verdict = Converged
	default:
		out.Verdict = TimedOut
	}
	out.VerdictName = out.Verdict.String()
	if out.Verdict != Converged {
		start := len(trace) - tailTraceLen
		if start < 0 {
			start = 0
		}
		for _, tf := range trace[start:] {
			out.TailTrace = append(out.TailTrace, fmt.Sprintf("t=%dus %s", int64(tf.At), tf.Frame))
		}
	}
	return out
}

// checkInvariants evaluates the monitored safety properties over the
// delivered-frame trace:
//
//   - only protocol identifiers (plus the babble identifier, which is
//     overt attack traffic) may be delivered;
//   - an update result must not precede any apply-update request;
//   - the ECU must not apply more updates than the VMG requested.
func checkInvariants(sc Scenario, trace []canoe.TimedFrame, applied, requested int) string {
	allowed := map[uint32]bool{idReqSw: true, idRptSw: true, idReqApp: true, idRptUpd: true}
	if sc.Kind == BabblingIdiot {
		allowed[sc.TargetID] = true
	}
	seenReqApp := false
	for _, tf := range trace {
		id := tf.Frame.ID
		if !allowed[id] {
			return fmt.Sprintf("unknown identifier 0x%03X delivered at t=%dus", id, int64(tf.At))
		}
		if id == idReqApp {
			seenReqApp = true
		}
		if id == idRptUpd && !seenReqApp {
			return fmt.Sprintf("unsolicited update result delivered at t=%dus", int64(tf.At))
		}
	}
	if applied > requested {
		return fmt.Sprintf("ECU applied %d updates but the VMG requested only %d", applied, requested)
	}
	return ""
}

func nodeInt(n *canoe.Node, name string) int {
	v, ok := n.Global(name)
	if !ok {
		return 0
	}
	if i, ok := v.(int64); ok {
		return int(i)
	}
	return 0
}

func tapState(sim *canoe.Simulation, node string) string {
	n, err := sim.Node(node)
	if err != nil {
		return "unknown"
	}
	return n.Tap().State().String()
}

// Run executes every scenario of the configured matrix and assembles
// the campaign report. Identical configurations produce byte-identical
// reports regardless of Workers.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	scenarios := Matrix(cfg)
	return RunScenarios(cfg, scenarios)
}

// RunScenarios executes an explicit scenario list under the given
// configuration header. Scenarios run on a pool of cfg.Workers
// goroutines; outcomes are slotted by scenario index and tallied in
// list order, so the report is identical to a sequential run. A
// panicking scenario is judged Errored on its own.
func RunScenarios(cfg Config, scenarios []Scenario) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{
		MasterSeed:   cfg.Seed,
		HorizonUs:    int64(cfg.Horizon),
		TargetCycles: cfg.TargetCycles,
	}
	rep.Outcomes = campaign.Map(scenarios, cfg.Workers, cfg.Obs.Progress("faultcampaign.run"), "scenarios",
		func(_ int, sc Scenario) Outcome { return runScenario(sc, cfg.Obs) },
		func(_ int, sc Scenario, r any) Outcome {
			return judgeError(Outcome{Scenario: sc}, fmt.Errorf("panic in scenario worker: %v", r))
		})
	for _, out := range rep.Outcomes {
		switch out.Verdict {
		case Converged:
			rep.Converged++
		case TimedOut:
			rep.TimedOut++
		case Violated:
			rep.Violated++
		case Errored:
			rep.Errored++
		}
	}
	rep.Scenarios = len(rep.Outcomes)
	return rep
}
