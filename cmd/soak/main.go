// Command soak runs the conformance soak campaign: seeded randomized
// perturbation schedules (timer jitter, frame loss, duplication, delayed
// replay) executed on the simulated OTA network, with every observed bus
// trace checked for membership in the extracted CSP model composed with
// a bounded-fault channel. Diverging schedules are shrunk to a minimal
// replayable reproduction. Campaigns are deterministic: the same seed
// always produces a byte-identical report.
//
// Usage:
//
//	soak [-seed 42] [-n 4] [-variants all|naive,hardened,...]
//	     [-horizon-ms 50] [-format text|json] [-max-states N]
//	     [-deadline-ms 20000] [-sim-events 300000] [-no-shrink]
//	     [-workers 0]
//	soak -replay FILE [-format text|json] ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/conformance"
	"repro/internal/obs"
	"repro/internal/ota"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	n := fs.Int("n", 4, "schedules per variant")
	variants := fs.String("variants", "all", "comma-separated variants: naive, hardened, flawed (or all)")
	horizonMS := fs.Int64("horizon-ms", 50, "simulated horizon per schedule in milliseconds")
	maxStates := fs.Int("max-states", 0, "model-state bound of the trace check (0: checker default)")
	deadlineMS := fs.Int64("deadline-ms", 20_000, "wall-clock watchdog per schedule in milliseconds")
	simEvents := fs.Int("sim-events", 300_000, "simulator event budget per schedule")
	noShrink := fs.Bool("no-shrink", false, "skip minimization of diverging schedules")
	replay := fs.String("replay", "", "replay a schedule JSON file instead of running a campaign")
	var cf campaign.Flags
	cf.AddFlags(fs, "schedules")
	var obsFlags obs.Flags
	obsFlags.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cf.Validate(); err != nil {
		return err
	}
	if *horizonMS <= 0 {
		return fmt.Errorf("horizon must be positive, got %dms", *horizonMS)
	}
	if *n < 1 {
		return fmt.Errorf("schedules per variant must be at least 1, got %d", *n)
	}
	if *deadlineMS <= 0 {
		return fmt.Errorf("deadline must be positive, got %dms", *deadlineMS)
	}

	// Observability goes to stderr only, so reports on stdout stay
	// byte-identical with or without it.
	observer, finishObs, err := obsFlags.Build(os.Stderr)
	if err != nil {
		return err
	}

	if *replay != "" {
		if err := runReplay(stdout, *replay, cf, *maxStates, *deadlineMS, *simEvents, observer); err != nil {
			return err
		}
		return finishObs()
	}

	sel, err := ota.ParseVariants(*variants)
	if err != nil {
		return err
	}
	cfg := conformance.Config{
		Seed:                cf.Seed,
		SchedulesPerVariant: *n,
		Variants:            sel,
		Gen:                 conformance.GenConfig{Horizon: canbus.Time(*horizonMS) * canbus.Millisecond},
		MaxStates:           *maxStates,
		MaxDuration:         time.Duration(*deadlineMS) * time.Millisecond,
		MaxSimEvents:        *simEvents,
		NoShrink:            *noShrink,
		Workers:             cf.Workers,
		Obs:                 observer,
	}
	report, err := conformance.Run(cfg)
	if err != nil {
		return err
	}
	data, err := report.JSON()
	if err != nil {
		return err
	}
	if err := cf.Write(stdout, report.Text(), data); err != nil {
		return err
	}
	return finishObs()
}

// runReplay re-executes a single schedule from its JSON reproduction
// file and prints the verdict.
func runReplay(stdout io.Writer, path string, cf campaign.Flags, maxStates int, deadlineMS int64, simEvents int, observer *obs.Observer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := conformance.DecodeSchedule(data)
	if err != nil {
		return err
	}
	r, err := conformance.NewRunner()
	if err != nil {
		return err
	}
	r.MaxStates = maxStates
	r.MaxDuration = time.Duration(deadlineMS) * time.Millisecond
	r.MaxSimEvents = simEvents
	r.Obs = observer
	v := r.RunSchedule(s)
	v.Name = "replay"
	out, err := v.JSON()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "replay %s: %s\n", s, v.Kind)
	if len(v.AppliedOps) > 0 {
		fmt.Fprintf(&b, "applied: %s\n", strings.Join(v.AppliedOps, " "))
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, "detail: %s\n", v.Detail)
	}
	if v.Divergence != nil {
		fmt.Fprintf(&b, "diverges at event %d: %s not in model (allowed: %s)\n",
			v.Divergence.FailedAt, v.Divergence.BadEvent, strings.Join(v.Divergence.Allowed, ", "))
		if len(v.Divergence.Context) > 0 {
			fmt.Fprintf(&b, "context: %s\n", strings.Join(v.Divergence.Context, " "))
		}
	}
	return cf.Write(stdout, b.String(), out)
}
