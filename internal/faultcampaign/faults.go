package faultcampaign

import (
	"math/rand"

	"repro/internal/canbus"
	"repro/internal/canoe"
)

// maxInjectedFrames caps how many frames the gremlin may fabricate
// (duplicates, replays), so a re-duplicated duplicate cannot cascade
// unboundedly.
const maxInjectedFrames = 256

// installFault wires the scenario's fault model into the simulation:
// injector hooks for in-flight mutation and loss, and the gremlin, the
// campaign's bus-level attacker: a replay tap without a CAPL program
// that fabricates traffic (duplicates, delayed replays, babble floods).
func installFault(sc Scenario, sim *canoe.Simulation, inj *canbus.Injector, rng *rand.Rand) {
	// onFrame, when set, observes every frame the gremlin receives.
	var onFrame func(t canbus.Time, f canbus.Frame)
	g := sim.Bus.AttachReplay("__gremlin__", canbus.ReceiverFunc(func(t canbus.Time, f canbus.Frame) {
		if onFrame != nil {
			onFrame(t, f)
		}
	}), maxInjectedFrames)
	switch sc.Kind {
	case Drop:
		inj.Drop = func(canbus.Time, canbus.Frame) bool {
			return rng.Float64() < sc.Prob
		}
	case CorruptDetected:
		inj.Corrupt = func(_ canbus.Time, f canbus.Frame) canbus.Frame {
			if rng.Float64() < sc.Prob {
				flipPayloadBit(&f, rng)
			}
			return f
		}
	case TamperUndetected:
		inj.Tamper = func(_ canbus.Time, f canbus.Frame) canbus.Frame {
			if rng.Float64() >= sc.Prob {
				return f
			}
			if rng.Intn(2) == 0 {
				// Spoof the identifier: flip one of the low bits, turning
				// e.g. an inventory request into an apply-update request.
				f.ID ^= 1 << uint(rng.Intn(3))
			} else {
				flipPayloadBit(&f, rng)
			}
			return f
		}
	case Duplicate:
		onFrame = func(t canbus.Time, f canbus.Frame) {
			if rng.Float64() < sc.Prob {
				g.Replay(t+200*canbus.Microsecond, f)
			}
		}
	case Delay:
		inj.Drop = func(t canbus.Time, f canbus.Frame) bool {
			if rng.Float64() < sc.Prob {
				g.Replay(t+sc.DelayBy, f)
				return true
			}
			return false
		}
	case BurstLoss:
		inj.Drop = func(t canbus.Time, _ canbus.Frame) bool {
			return sc.Period > 0 && t%sc.Period < sc.Width
		}
	case BabblingIdiot:
		var flood func()
		flood = func() {
			_ = sim.Bus.Transmit(g.Tap, canbus.Frame{ID: sc.TargetID, Data: []byte{0xBB}})
			next := sim.Bus.Now() + sc.Period
			if next < sc.Width {
				_ = sim.Bus.Schedule(next, flood)
			}
		}
		_ = sim.Bus.Schedule(0, flood)
	case TargetedDrop:
		inj.Drop = func(_ canbus.Time, f canbus.Frame) bool {
			return f.ID == sc.TargetID
		}
	}
}

// flipPayloadBit flips one random payload bit in place (or a low ID bit
// for payload-less frames).
func flipPayloadBit(f *canbus.Frame, rng *rand.Rand) {
	if len(f.Data) == 0 {
		f.ID ^= 1
		return
	}
	i := rng.Intn(len(f.Data))
	f.Data[i] ^= 1 << uint(rng.Intn(8))
}
