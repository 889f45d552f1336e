package faultcampaign

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
)

// Report is a full campaign result. It contains no wall-clock times and
// no map-ordered data, so rendering it (JSON or text) is byte-identical
// for identical configurations.
type Report struct {
	// MasterSeed is the campaign seed every scenario seed derives from.
	MasterSeed int64 `json:"masterSeed"`
	// HorizonUs and TargetCycles echo the campaign configuration.
	HorizonUs    int64 `json:"horizonUs"`
	TargetCycles int   `json:"targetCycles"`
	// Scenarios is the number of outcomes.
	Scenarios int `json:"scenarios"`
	// Verdict tallies.
	Converged int `json:"converged"`
	TimedOut  int `json:"timedOut"`
	Violated  int `json:"violated"`
	Errored   int `json:"errored"`
	// Outcomes holds every scenario result in matrix order.
	Outcomes []Outcome `json:"outcomes"`
}

// JSON renders the report as indented, newline-terminated JSON.
func (r *Report) JSON() ([]byte, error) {
	return campaign.JSON(r)
}

// Text renders the report as a fixed-width table plus detail lines for
// non-converged scenarios.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign: %d scenarios (seed %d, horizon %dus, target %d cycles)\n",
		r.Scenarios, r.MasterSeed, r.HorizonUs, r.TargetCycles)
	fmt.Fprintf(&b, "verdicts: %d converged, %d timed out, %d violated, %d errored\n\n",
		r.Converged, r.TimedOut, r.Violated, r.Errored)

	nameW := len("scenario")
	for _, o := range r.Outcomes {
		if len(o.Scenario.Name) > nameW {
			nameW = len(o.Scenario.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-10s  %7s  %7s  %s\n", nameW, "scenario", "verdict", "applied", "req", "detail")
	for _, o := range r.Outcomes {
		detail := ""
		switch o.Verdict {
		case Violated:
			detail = o.Violation
		case Errored:
			detail = o.Error
		case TimedOut:
			if o.GaveUp {
				detail = "gateway exhausted retries"
			}
		}
		fmt.Fprintf(&b, "%-*s  %-10s  %7d  %7d  %s\n",
			nameW, o.Scenario.Name, o.VerdictName, o.UpdatesApplied, o.RequestedUpdates, detail)
	}

	// Per-variant summary: the robustness headline.
	for _, v := range []Variant{Naive, Hardened} {
		conv, total := 0, 0
		for _, o := range r.Outcomes {
			if o.Scenario.Variant != v {
				continue
			}
			total++
			if o.Verdict == Converged {
				conv++
			}
		}
		if total > 0 {
			fmt.Fprintf(&b, "\n%s variant: %d/%d scenarios converged", v, conv, total)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Summary is a one-line digest for embedding in other reports.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d scenarios: %d converged, %d timed out, %d violated, %d errored",
		r.Scenarios, r.Converged, r.TimedOut, r.Violated, r.Errored)
}
