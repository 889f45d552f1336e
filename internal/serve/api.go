// Package serve is the checking-as-a-service layer: a hardened HTTP/
// JSON front end over the cspm/fdr/refine check core, built for a
// process that runs for weeks under untrusted, bursty request traffic.
// Robustness is the headline feature:
//
//   - Cooperative cancellation: every check runs under one context,
//     the request's plus the per-request deadline, carried by
//     fdr.Budget through refine.Checker into lts.Explore, so a
//     disconnected client or a fired deadline frees the worker
//     mid-BFS-level. A resumed job counts the time its checkpoints
//     already spent against that deadline.
//   - Admission control: a fixed worker-slot pool with a bounded wait
//     queue. Past the queue watermark the server answers 429 with a
//     Retry-After hint instead of collapsing under load.
//   - Panic isolation: a panic anywhere in a check is recovered into a
//     structured error verdict; the process survives.
//   - Graceful degradation: the server keeps no model store. Each
//     request checks over its own lts.Cache, so its assertions share
//     explorations and the memory goes with the request; resident
//     size is bounded by the worker slots times the per-request
//     MaxStates / MaxMemBytes budgets.
//   - Graceful shutdown: Drain stops admitting work, lets in-flight
//     checks finish, and leaves observability sinks flushable.
package serve

import (
	"context"
	"errors"
	"time"

	"repro/internal/refine"
)

// CheckRequest is the POST /v1/check body: a CSPm script whose
// assertions are all checked, under optional per-request budgets.
type CheckRequest struct {
	// CSPM is the model source, assertions included.
	CSPM string `json:"cspm"`
	// Budget optionally tightens the per-request resource budgets. Each
	// field is clamped to the server's configured cap — a request may
	// ask for less than the cap, never more.
	Budget *BudgetSpec `json:"budget,omitempty"`
}

// BudgetSpec is the wire form of fdr.Budget. Zero fields mean "use the
// server cap".
type BudgetSpec struct {
	// MaxStates bounds each LTS exploration.
	MaxStates int `json:"maxStates,omitempty"`
	// MaxProductStates bounds the (impl, spec) pairs a refinement visits.
	MaxProductStates int `json:"maxProductStates,omitempty"`
	// MaxSteps bounds the transitions examined during a product search.
	MaxSteps int `json:"maxSteps,omitempty"`
	// MaxDurationMs bounds the wall-clock time of the whole request.
	MaxDurationMs int64 `json:"maxDurationMs,omitempty"`
}

// AssertVerdict is the outcome of one assertion. Exactly one of the
// verdict fields (Holds plus its witnesses) or Error is meaningful:
// when Error is non-empty the verdict is unknown and ErrorKind
// classifies why.
type AssertVerdict struct {
	// Assert is the assertion text as written in the script.
	Assert string `json:"assert"`
	// Holds reports the verdict (only meaningful when Error is empty).
	Holds bool `json:"holds"`
	// Counterexample is the witness trace of a failed assertion.
	Counterexample []string `json:"counterexample,omitempty"`
	// Reason explains a failed assertion.
	Reason string `json:"reason,omitempty"`
	// ImplStates / SpecNodes / ProductStates report explored sizes.
	ImplStates    int `json:"implStates,omitempty"`
	SpecNodes     int `json:"specNodes,omitempty"`
	ProductStates int `json:"productStates,omitempty"`
	// Error is set when the check produced no verdict: a budget
	// exhaustion, a cancellation, a recovered panic, or a semantic error.
	Error string `json:"error,omitempty"`
	// ErrorKind classifies Error: "budget:<phase>", "canceled", "panic"
	// or "error".
	ErrorKind string `json:"errorKind,omitempty"`
}

// CheckResponse is the POST /v1/check response body. Error is the
// request-level failure (malformed body, unparseable CSPm, internal
// panic); Results carries per-assertion outcomes when the model loaded.
type CheckResponse struct {
	// Results holds one verdict per assertion, in script order.
	Results []AssertVerdict `json:"results,omitempty"`
	// Error is the request-level error, if any.
	Error string `json:"error,omitempty"`
}

// errorKind classifies a check error for AssertVerdict.ErrorKind.
func errorKind(err error) string {
	var be *refine.BudgetError
	if errors.As(err, &be) {
		return "budget:" + be.Phase
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	return "error"
}

// retryAfter is the hint returned with 429/503 responses: long enough
// that a backlogged server is not hammered, short enough that a burst
// drains promptly.
const retryAfter = 1 * time.Second
