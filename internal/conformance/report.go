package conformance

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Config parameterises a soak campaign.
type Config struct {
	// Seed is the master seed; per-schedule seeds derive from it.
	Seed int64
	// SchedulesPerVariant replicates each variant (default 4).
	SchedulesPerVariant int
	// Variants restricts the gateway variants (default all three).
	Variants []Variant
	// Gen bounds schedule generation.
	Gen GenConfig
	// MaxStates, MaxDuration, MaxSimEvents configure the Runner.
	MaxStates    int
	MaxDuration  time.Duration
	MaxSimEvents int
	// NoShrink skips minimization of diverging schedules.
	NoShrink bool
	// Workers is the number of schedules run concurrently; 0 means
	// GOMAXPROCS, 1 forces sequential execution. Schedules are pure
	// functions of their seeds and verdicts are aggregated in campaign
	// order, so the report is byte-identical at any worker count.
	Workers int
	// Obs receives campaign instrumentation (per-schedule spans, verdict
	// counters, progress heartbeats). nil disables it; the report is
	// byte-identical either way.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.SchedulesPerVariant <= 0 {
		c.SchedulesPerVariant = 4
	}
	if len(c.Variants) == 0 {
		c.Variants = Variants
	}
	c.Gen = c.Gen.withDefaults()
	return c
}

// Report is a full soak campaign result: free of wall-clock data and
// map-ordered collections, so rendering is byte-identical for a fixed
// configuration.
type Report struct {
	MasterSeed int64 `json:"masterSeed"`
	HorizonUs  int64 `json:"horizonUs"`
	Schedules  int   `json:"schedules"`
	// Verdict tallies.
	Conforms          int `json:"conforms"`
	Diverges          int `json:"diverges"`
	BudgetExceeded    int `json:"budgetExceeded"`
	InterpreterErrors int `json:"interpreterErrors"`
	// Verdicts holds every schedule result in campaign order.
	Verdicts []Verdict `json:"verdicts"`
}

// Run executes the configured campaign: for every variant, generate the
// seeded schedules, run each through the conformance pipeline (on a
// pool of cfg.Workers goroutines), and shrink whatever diverges.
// Verdicts are aggregated in campaign order, so the report is identical
// to a sequential run.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r, err := NewRunner()
	if err != nil {
		return nil, err
	}
	r.MaxStates = cfg.MaxStates
	if cfg.MaxDuration > 0 {
		r.MaxDuration = cfg.MaxDuration
	}
	if cfg.MaxSimEvents > 0 {
		r.MaxSimEvents = cfg.MaxSimEvents
	}
	r.Obs = cfg.Obs

	// The schedule list is fully determined by the seed before any run
	// starts; workers only fill verdict slots.
	type job struct {
		s    Schedule
		name string
	}
	var jobs []job
	idx := 0
	for _, variant := range cfg.Variants {
		for repNo := 0; repNo < cfg.SchedulesPerVariant; repNo++ {
			s := GenerateSchedule(variant, campaign.Seed(cfg.Seed, idx), cfg.Gen)
			idx++
			jobs = append(jobs, job{s: s, name: fmt.Sprintf("%s-r%d", variant, repNo)})
		}
	}

	verdicts := campaign.Map(jobs, cfg.Workers, cfg.Obs.Progress("conformance.run"), "schedules",
		func(_ int, j job) Verdict {
			v := r.RunSchedule(j.s)
			v.Name = j.name
			if v.Kind == Diverges && !cfg.NoShrink {
				if shrunk, sv, err := r.Shrink(j.s); err == nil && v.Divergence != nil {
					shrunkCopy := shrunk
					v.Divergence.Shrunk = &shrunkCopy
					if sv.Divergence != nil {
						v.Divergence.ShrunkFailedAt = sv.Divergence.FailedAt
					}
				}
			}
			return v
		},
		func(_ int, j job, rec any) Verdict {
			// A crashing schedule becomes an interpreter-error verdict for
			// that schedule alone.
			return Verdict{
				Name:     j.name,
				Schedule: j.s,
				Kind:     InterpreterError,
				Detail:   fmt.Sprintf("panic in schedule worker: %v", rec),
			}
		})

	rep := &Report{
		MasterSeed: cfg.Seed,
		HorizonUs:  int64(cfg.Gen.Horizon),
		Verdicts:   verdicts,
	}
	for _, v := range rep.Verdicts {
		switch v.Kind {
		case Conforms:
			rep.Conforms++
		case Diverges:
			rep.Diverges++
		case BudgetExceeded:
			rep.BudgetExceeded++
		case InterpreterError:
			rep.InterpreterErrors++
		}
	}
	rep.Schedules = len(rep.Verdicts)
	return rep, nil
}

// JSON renders the report as indented, newline-terminated JSON.
func (r *Report) JSON() ([]byte, error) {
	return campaign.JSON(r)
}

// Summary is a one-line digest.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d schedules: %d conform, %d diverge, %d budget-exceeded, %d errors",
		r.Schedules, r.Conforms, r.Diverges, r.BudgetExceeded, r.InterpreterErrors)
}

// Text renders the report as a fixed-width table plus divergence
// details with the shrunk reproduction.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance soak: %d schedules (seed %d, horizon %dus)\n",
		r.Schedules, r.MasterSeed, r.HorizonUs)
	fmt.Fprintf(&b, "verdicts: %d conform, %d diverge, %d budget-exceeded, %d errors\n\n",
		r.Conforms, r.Diverges, r.BudgetExceeded, r.InterpreterErrors)

	nameW := len("schedule")
	for _, v := range r.Verdicts {
		if len(v.Name) > nameW {
			nameW = len(v.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-16s  %6s  %4s  %s\n", nameW, "schedule", "verdict", "frames", "ops", "detail")
	for _, v := range r.Verdicts {
		detail := v.Detail
		if v.Kind == Diverges && v.Divergence != nil {
			detail = fmt.Sprintf("event %d: %s not in model (allowed: %s)",
				v.Divergence.FailedAt, v.Divergence.BadEvent, strings.Join(v.Divergence.Allowed, ", "))
		}
		fmt.Fprintf(&b, "%-*s  %-16s  %6d  %4d  %s\n",
			nameW, v.Name, string(v.Kind), v.DeliveredFrames, len(v.AppliedOps), detail)
	}

	for _, v := range r.Verdicts {
		if v.Kind != Diverges || v.Divergence == nil || v.Divergence.Shrunk == nil {
			continue
		}
		s := v.Divergence.Shrunk
		fmt.Fprintf(&b, "\n%s shrunk reproduction: seed=%d horizon=%dus ops=[", v.Name, s.Seed, s.HorizonUs)
		for i, op := range s.Ops {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(op.String())
		}
		fmt.Fprintf(&b, "] fails at event %d\n", v.Divergence.ShrunkFailedAt)
	}
	return b.String()
}
