package caplgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Report is the outcome of a whole soak run. All fields are
// deterministic in the configuration — no timestamps, no wall-clock —
// so a fixed-seed report is byte-identical across runs and machines
// and can be committed as a regression baseline.
type Report struct {
	Seed     int64 `json:"seed"`
	Programs int   `json:"programs"`
	// Verdicts counts programs per verdict class.
	Verdicts map[string]int `json:"verdicts"`
	// Failures is the number of programs with any verdict but "ok".
	Failures int `json:"failures"`
	// TotalFrames and TotalStates aggregate pipeline effort; any change
	// in generator or pipeline behaviour shows up here immediately.
	TotalFrames int             `json:"totalFrames"`
	TotalStates int             `json:"totalStates"`
	Results     []ProgramResult `json:"results"`
}

// Programs generates the cfg.Programs programs of a soak. The master rng
// derives one sub-seed per program, so program i is reproducible from
// its recorded seed alone.
func Programs(cfg Config) []*Spec {
	master := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]*Spec, cfg.Programs)
	for i := range specs {
		progSeed := master.Int63()
		specs[i] = generate(rand.New(rand.NewSource(progSeed)), i, progSeed)
	}
	return specs
}

// Run executes the full differential soak over Programs(cfg): generate,
// check, shrink.
func Run(cfg Config) *Report {
	rep := &Report{Seed: cfg.Seed, Programs: cfg.Programs, Verdicts: map[string]int{}}
	for _, spec := range Programs(cfg) {
		res := RunOne(spec, cfg)
		if res.Verdict != VerdictOK && cfg.Shrink {
			if m := Shrink(spec, cfg, res.Verdict); m != nil {
				res.Shrunk = &ShrunkCase{
					Verdict:      res.Verdict,
					NodeSource:   m.NodeSource(),
					DriverSource: m.DriverSource(),
					DBC:          m.DBC(),
				}
			}
		}
		rep.Verdicts[res.Verdict]++
		if res.Verdict != VerdictOK {
			rep.Failures++
		}
		rep.TotalFrames += res.Frames
		rep.TotalStates += res.ModelStates
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// JSON renders the report as stable, indented JSON (map keys are
// emitted in sorted order by encoding/json).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Summary is the one-line human digest printed by cmd/caplgen.
func (r *Report) Summary() string {
	classes := make([]string, 0, len(r.Verdicts))
	for k := range r.Verdicts {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, k := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.Verdicts[k]))
	}
	return fmt.Sprintf("caplgen: seed %d, %d program(s): %s (%d frames, %d model states)",
		r.Seed, r.Programs, strings.Join(parts, " "), r.TotalFrames, r.TotalStates)
}
