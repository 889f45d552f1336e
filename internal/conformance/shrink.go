package conformance

import (
	"fmt"

	"repro/internal/campaign"
)

// Shrink minimizes a diverging schedule to a small reproducing input:
// delta-debugging over the perturbation list (greedy removal to a
// one-minimal op set — every remaining op is necessary for the
// divergence) followed by binary-search reduction of the simulated-time
// horizon to the smallest millisecond still diverging. Shrinking is a
// pure function of the schedule: re-running the shrunk schedule
// reproduces the divergence exactly.
//
// It returns the minimal schedule and its verdict. A schedule that does
// not diverge is returned unchanged together with its verdict and an
// error.
func (r *Runner) Shrink(s Schedule) (Schedule, Verdict, error) {
	v := r.RunSchedule(s)
	if v.Kind != Diverges {
		return s, v, fmt.Errorf("conformance: schedule does not diverge (verdict %s)", v.Kind)
	}
	cur, curV := s, v

	// Phase 1: one-minimal perturbation set (keep never fails).
	cur.Ops, _ = campaign.Shrink(s.Ops, func(ops []Op) (bool, error) {
		cand := s
		cand.Ops = ops
		cv := r.RunSchedule(cand)
		if cv.Kind == Diverges {
			curV = cv
		}
		return cv.Kind == Diverges, nil
	})

	// Phase 2: smallest horizon (in whole milliseconds) still diverging.
	lo, hi := int64(1), cur.HorizonUs/1000
	for lo <= hi {
		mid := (lo + hi) / 2
		cand := cur
		cand.HorizonUs = mid * 1000
		if cv := r.RunSchedule(cand); cv.Kind == Diverges {
			cur, curV = cand, cv
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return cur, curV, nil
}
