// Command learncheck closes the Learn–Check–Test loop on the OTA case
// study: an L*-style active learner drives the canoe CAPL interpreter on
// a simulated CAN bus (membership queries are seeded deterministic runs,
// equivalence queries a bounded seeded suite on a worker pool), the
// learned automaton is lowered to a CSP process, and the refinement
// checker closes the triangle — learned against extracted in both trace
// directions, plus the paper's per-protocol specs on the learned
// behaviour. A learned/extracted divergence is delta-shrunk to a
// replayable witness. Campaigns are deterministic: the same seed
// produces a byte-identical report at any worker count.
//
// Usage:
//
//	learncheck [-seed 42] [-variants all|naive,hardened,...]
//	           [-profile none|drop|corrupt|tamper|duplicate|delay]
//	           [-depth 6] [-walks 64] [-max-queries 50000]
//	           [-max-rounds 32] [-workers 0] [-max-states N]
//	           [-deadline-ms 20000] [-sim-events 100000]
//	           [-format text|json]
//	learncheck -replay FILE [-format text|json] ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/ota"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "learncheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("learncheck", flag.ContinueOnError)
	variants := fs.String("variants", "all", "comma-separated variants: naive, hardened, flawed (or all)")
	profile := fs.String("profile", "none", "fault profile the teacher runs under: none, drop, corrupt, tamper, duplicate or delay")
	depth := fs.Int("depth", 6, "random-walk depth of equivalence queries")
	walks := fs.Int("walks", 64, "random equivalence words per round")
	maxQueries := fs.Int("max-queries", 50_000, "membership-query budget per variant")
	maxRounds := fs.Int("max-rounds", 32, "equivalence-round budget per variant")
	maxStates := fs.Int("max-states", 0, "model-state bound of the refinement checks (0: checker default)")
	deadlineMS := fs.Int64("deadline-ms", 20_000, "wall-clock bound per refinement check in milliseconds")
	simEvents := fs.Int("sim-events", 100_000, "simulator event budget per membership query")
	replay := fs.String("replay", "", "replay a witness JSON file instead of running a campaign")
	var cf campaign.Flags
	cf.AddFlags(fs, "equivalence queries")
	var obsFlags obs.Flags
	obsFlags.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cf.Validate(); err != nil {
		return err
	}
	if *depth < 1 {
		return fmt.Errorf("depth must be at least 1, got %d", *depth)
	}
	if *walks < 1 {
		return fmt.Errorf("walks must be at least 1, got %d", *walks)
	}
	if *deadlineMS <= 0 {
		return fmt.Errorf("deadline must be positive, got %dms", *deadlineMS)
	}
	prof, err := learn.ParseProfile(*profile)
	if err != nil {
		return err
	}
	sel, err := ota.ParseVariants(*variants)
	if err != nil {
		return err
	}

	// Observability goes to stderr only, so reports on stdout stay
	// byte-identical with or without it.
	observer, finishObs, err := obsFlags.Build(os.Stderr)
	if err != nil {
		return err
	}

	cfg := learn.CampaignConfig{
		Seed:              cf.Seed,
		Variants:          sel,
		Profile:           prof,
		Depth:             *depth,
		Walks:             *walks,
		MaxQueries:        *maxQueries,
		MaxRounds:         *maxRounds,
		Workers:           cf.Workers,
		MaxStates:         *maxStates,
		MaxDuration:       time.Duration(*deadlineMS) * time.Millisecond,
		SimEventsPerQuery: *simEvents,
		Obs:               observer,
	}

	if *replay != "" {
		if err := runReplay(stdout, *replay, cf, cfg); err != nil {
			return err
		}
		return finishObs()
	}

	report, err := learn.Run(cfg)
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

// runReplay re-derives a recorded witness's verdicts from scratch.
func runReplay(stdout io.Writer, path string, cf campaign.Flags, cfg learn.CampaignConfig) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	w, err := learn.DecodeWitness(data)
	if err != nil {
		return err
	}
	res, err := learn.ReplayWitness(w, cfg)
	if err != nil {
		return err
	}
	out, err := res.JSON()
	if err != nil {
		return err
	}
	return cf.Write(stdout, res.Text(), out)
}
