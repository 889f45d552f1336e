package learn

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/csp"
)

// parseEventTrace decodes the witness rendering of a trace: each event
// is the channel followed by dot-separated symbolic arguments, exactly
// as csp.Event.String prints the OTA alphabet.
func parseEventTrace(events []string) (csp.Trace, error) {
	out := make(csp.Trace, 0, len(events))
	for i, s := range events {
		parts := strings.Split(s, ".")
		if parts[0] == "" {
			return nil, fmt.Errorf("learn: event %d: empty channel in %q", i, s)
		}
		ev := csp.Event{Chan: parts[0]}
		for _, p := range parts[1:] {
			if p == "" {
				return nil, fmt.Errorf("learn: event %d: empty argument in %q", i, s)
			}
			ev.Args = append(ev.Args, csp.Sym(p))
		}
		out = append(out, ev)
	}
	return out, nil
}

// DecodeWitness parses a witness reproduction file.
func DecodeWitness(data []byte) (*Witness, error) {
	var w Witness
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("learn: decode witness: %w", err)
	}
	if w.Variant == "" {
		return nil, fmt.Errorf("learn: witness names no variant")
	}
	return &w, nil
}

// ReplayResult re-derives a witness's verdicts from scratch.
type ReplayResult struct {
	Witness *Witness `json:"witness"`
	// ExtractedAccepts and SimAccepts are recomputed against a fresh
	// reference model and a fresh simulated node.
	ExtractedAccepts bool `json:"extractedAccepts"`
	SimAccepts       bool `json:"simAccepts"`
	// Reproduced is true when both recomputed verdicts match the file.
	Reproduced bool `json:"reproduced"`
}

// JSON renders the replay result.
func (r *ReplayResult) JSON() ([]byte, error) {
	return campaign.JSON(r)
}

// Text renders a human summary.
func (r *ReplayResult) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay %s (profile %s, seed %d): %s\n",
		r.Witness.Variant, r.Witness.Profile, r.Witness.Seed, strings.Join(r.Witness.Trace, " "))
	fmt.Fprintf(&b, "extracted accepts: %v (recorded %v), simulator accepts: %v (recorded %v)\n",
		r.ExtractedAccepts, r.Witness.ExtractedAccepts, r.SimAccepts, r.Witness.SimAccepts)
	if r.Reproduced {
		b.WriteString("witness reproduced\n")
	} else {
		b.WriteString("witness NOT reproduced\n")
	}
	return b.String()
}

// ReplayWitness re-checks a recorded divergence: the trace is run
// through a fresh extracted reference model and a fresh seeded
// simulation of the variant's node, independent of any learned
// automaton. Budget fields of cfg apply; identity fields (seed,
// profile, variant) come from the witness itself.
func ReplayWitness(w *Witness, cfg CampaignConfig) (*ReplayResult, error) {
	cfg.Seed = w.Seed
	profile, err := ParseProfile(string(w.Profile))
	if err != nil {
		return nil, err
	}
	cfg.Profile = profile
	v := Variant(w.Variant)
	trace, err := parseEventTrace(w.Trace)
	if err != nil {
		return nil, err
	}
	_, checker, err := BuildReference(cfg, v)
	if err != nil {
		return nil, err
	}
	res, err := checker.AcceptsTrace(csp.Call("ECU"), trace)
	if err != nil {
		return nil, err
	}
	teacher, err := NewVariantTeacher(cfg, v)
	if err != nil {
		return nil, err
	}
	simAcc, err := teacher.Membership(trace)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{
		Witness:          w,
		ExtractedAccepts: res.Accepted,
		SimAccepts:       simAcc,
		Reproduced:       res.Accepted == w.ExtractedAccepts && simAcc == w.SimAccepts,
	}, nil
}
