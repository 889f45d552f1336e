// Command faultcheck runs the seeded fault-injection campaign over the
// simulated OTA network and, optionally, the lossy-channel refinement
// checks that back the campaign's findings with formal counterexamples.
// The campaign is deterministic: the same seed always produces a
// byte-identical report.
//
// Usage:
//
//	faultcheck [-seed 42] [-format text|json] [-horizon-ms 3000]
//	           [-cycles 3] [-reps 2] [-variant both|naive|hardened]
//	           [-model] [-loss 2] [-max-states 262144] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/faultcampaign"
	"repro/internal/fdr"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultcheck", flag.ContinueOnError)
	horizonMS := fs.Int64("horizon-ms", 3000, "per-scenario simulated horizon in milliseconds")
	cycles := fs.Int("cycles", 3, "applied-update cycles required for convergence")
	reps := fs.Int("reps", 2, "seed replicas per matrix cell")
	variant := fs.String("variant", "both", "protocol variants: both, naive or hardened")
	model := fs.Bool("model", false, "also run the lossy-channel refinement checks")
	loss := fs.Int("loss", ota.DefaultLossBudget, "per-direction loss budget of the model checks")
	maxStates := fs.Int("max-states", 1<<18, "state bound for the refinement checks")
	var cf campaign.Flags
	cf.AddFlags(fs, "scenarios")
	var obsFlags obs.Flags
	obsFlags.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate every flag before the (multi-second) campaign runs.
	if *horizonMS <= 0 {
		return fmt.Errorf("horizon must be positive, got %dms", *horizonMS)
	}
	if err := cf.Validate(); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("reps must be at least 1, got %d", *reps)
	}
	if *loss < 0 {
		return fmt.Errorf("loss budget must be >= 0, got %d", *loss)
	}

	// Observability goes to stderr only, so reports on stdout stay
	// byte-identical with or without it.
	observer, finishObs, err := obsFlags.Build(os.Stderr)
	if err != nil {
		return err
	}

	cfg := faultcampaign.Config{
		Seed:         cf.Seed,
		SeedsPerCase: *reps,
		Horizon:      canbus.Time(*horizonMS) * canbus.Millisecond,
		TargetCycles: *cycles,
		Workers:      cf.Workers,
		Obs:          observer,
	}
	switch *variant {
	case "both", "":
	case "naive":
		cfg.Variants = []faultcampaign.Variant{faultcampaign.Naive}
	case "hardened":
		cfg.Variants = []faultcampaign.Variant{faultcampaign.Hardened}
	default:
		return fmt.Errorf("unknown variant %q (want both, naive or hardened)", *variant)
	}

	report := faultcampaign.Run(cfg)
	data, err := report.JSON()
	if err != nil {
		return err
	}
	if err := cf.Write(stdout, report.Text(), data); err != nil {
		return err
	}

	if *model {
		if err := runModelChecks(stdout, *loss, *maxStates, observer); err != nil {
			return err
		}
	}
	return finishObs()
}

// runModelChecks runs the lossy-channel assertions for both gateway
// variants and prints the pass/fail table that turns the campaign's
// simulation evidence into a refinement-checked robustness claim. One
// LTS cache is shared per variant, so the spec and system terms the six
// assertions have in common are explored once.
func runModelChecks(stdout io.Writer, lossBudget, maxStates int, observer *obs.Observer) error {
	fmt.Fprintf(stdout, "\nlossy-channel refinement checks (loss budget %d per direction):\n", lossBudget)
	for _, variant := range []ota.LossyVariant{ota.NaiveGateway, ota.HardenedGateway} {
		sys, err := ota.BuildLossy(variant, lossBudget)
		if err != nil {
			return err
		}
		cache := lts.NewCache()
		cache.Obs = observer
		bgt := fdr.Budget{MaxStates: maxStates, Cache: cache, Obs: observer}
		fmt.Fprintf(stdout, "\n%s:\n", variant)
		for i, a := range sys.Model.Asserts {
			res, err := ota.CheckAssertionBudget(sys, i, bgt)
			if err != nil {
				return fmt.Errorf("%s: assertion %d: %w", variant, i, err)
			}
			status := "PASS"
			if !res.Holds {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "  %-4s  %s\n", status, a.Text)
			if !res.Holds && len(res.Counterexample) > 0 {
				fmt.Fprintf(stdout, "        counterexample: %v\n", res.Counterexample)
			}
		}
	}
	return nil
}
