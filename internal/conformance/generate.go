package conformance

import (
	"math/rand"

	"repro/internal/canbus"
)

// Generation bounds. Frame indices stay small so perturbations land in
// the early protocol window the horizon covers; at most one delayed
// replay per schedule keeps the reordering depth within what the
// bounded-fault channel model absorbs. The horizon is short on purpose:
// every perturbation fires within the first FrameSpan transmissions, so
// divergence (if any) surfaces shortly after, while checking cost grows
// with trace length times the budgeted channel's nondeterminism.
const (
	defaultMaxOps     = 4
	defaultFrameSpan  = 24
	defaultHorizon    = 50 * canbus.Millisecond
	maxDelayedReplays = 1
)

// GenConfig bounds schedule generation. The zero value selects the
// defaults.
type GenConfig struct {
	// Horizon is the simulated-time length of each run.
	Horizon canbus.Time
	// MaxOps bounds the perturbations per schedule.
	MaxOps int
	// FrameSpan bounds the completed-transmission index frame ops target.
	FrameSpan int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Horizon <= 0 {
		c.Horizon = defaultHorizon
	}
	if c.MaxOps <= 0 {
		c.MaxOps = defaultMaxOps
	}
	if c.FrameSpan <= 0 {
		c.FrameSpan = defaultFrameSpan
	}
	return c
}

// GenerateSchedule derives a perturbation schedule from the seed: every
// random decision comes from a rand.Source seeded with it, so the same
// (variant, seed, config) triple always yields the same schedule.
func GenerateSchedule(variant Variant, seed int64, cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{
		Variant:   variant,
		Seed:      seed,
		HorizonUs: int64(cfg.Horizon),
	}
	nOps := rng.Intn(cfg.MaxOps + 1)
	delays := 0
	for i := 0; i < nOps; i++ {
		var op Op
		switch pick := rng.Intn(4); {
		case pick == 0 && variant.HasTimers():
			op = Op{
				Kind: OpJitterTimer,
				Node: "VMG",
				Nth:  rng.Intn(6),
				// Skewed toward shortening, which reorders retries into
				// still-healthy traffic.
				DeltaMs: int64(rng.Intn(121)) - 40,
			}
		case pick == 1:
			op = Op{Kind: OpDropFrame, Nth: rng.Intn(cfg.FrameSpan)}
		case pick == 2 && delays < maxDelayedReplays:
			delays++
			op = Op{
				Kind:    OpDelayFrame,
				Nth:     rng.Intn(cfg.FrameSpan),
				DelayUs: 500 + int64(rng.Intn(7500)),
			}
		default:
			op = Op{
				Kind:    OpDupFrame,
				Nth:     rng.Intn(cfg.FrameSpan),
				DelayUs: 200 + int64(rng.Intn(1800)),
			}
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}
