package ota

import "fmt"

// This file hardens the case study against the faults the paper's
// channel model abstracts away: frame loss, duplication and delay. It
// carries a retransmission variant of the VMG and ECU CAPL programs
// (ack-timeout, bounded retry with backoff, duplicate suppression via a
// sequence bit), extracts both through the Figure 1 translator
// pipeline, and composes them with an explicit bounded-loss channel so
// the refinement checker can show that SP02/SP034 survive message loss
// with retries and demonstrably fail without them — the
// Hagen-et-al-style lossy-channel verification the ROADMAP points at.

// HardenedECUSource is the retry-tolerant target ECU: inventory
// requests are idempotent, and apply-update requests carry a sequence
// bit in payload byte 0 so retransmitted requests are acknowledged
// again without applying the update twice.
const HardenedECUSource = `/*@!Encoding:1310*/
/* Target ECU update module, retransmission-hardened. */

variables
{
  message 0x101 swInventoryReq;   // reqSw:  VMG -> ECU
  message 0x102 swInventoryRpt;   // rptSw:  ECU -> VMG
  message 0x103 applyUpdateReq;   // reqApp: VMG -> ECU (byte 0: seq bit)
  message 0x104 updateResultRpt;  // rptUpd: ECU -> VMG (byte 0: seq echo)
  int lastSeq = -1;
  int updatesApplied = 0;
}

on message swInventoryReq
{
  // Inventory reports are idempotent: re-answer every (re)request.
  output(swInventoryRpt);
}

on message applyUpdateReq
{
  // Duplicate suppression: only a fresh sequence bit applies the
  // update; a retransmitted request is acknowledged again.
  if (this.byte(0) != lastSeq) {
    lastSeq = this.byte(0);
    applyUpdate();
  }
  updateResultRpt.byte(0) = this.byte(0);
  output(updateResultRpt);
}

void applyUpdate()
{
  updatesApplied = updatesApplied + 1;
}
`

// HardenedVMGSource is the retransmission-hardened gateway: every
// request arms an ack timer, unanswered requests are retransmitted with
// a linear backoff up to a bounded number of attempts, and apply-update
// requests carry an alternating sequence bit for duplicate suppression
// at the ECU.
const HardenedVMGSource = `/*@!Encoding:1310*/
/* Vehicle Mobile Gateway (VMG), retransmission-hardened. */

variables
{
  message 0x101 swInventoryReq;
  message 0x102 swInventoryRpt;
  message 0x103 applyUpdateReq;
  message 0x104 updateResultRpt;
  msTimer retryDiag;
  msTimer retryUpd;
  int seqBit = 0;
  int diagTries = 0;
  int updTries = 0;
  int cycles = 0;
  int gaveUp = 0;
}

on start
{
  output(swInventoryReq);
  setTimer(retryDiag, 50);
}

on message swInventoryRpt
{
  cancelTimer(retryDiag);
  diagTries = 0;
  applyUpdateReq.byte(0) = seqBit;
  output(applyUpdateReq);
  setTimer(retryUpd, 50);
}

on message updateResultRpt
{
  cancelTimer(retryUpd);
  updTries = 0;
  seqBit = 1 - seqBit;
  cycles = cycles + 1;
  output(swInventoryReq);
  setTimer(retryDiag, 50);
}

on timer retryDiag
{
  diagTries = diagTries + 1;
  output(swInventoryReq);
  if (diagTries < 8) {
    setTimer(retryDiag, 50 + 50 * diagTries);  // linear backoff
  }
  if (diagTries >= 8) {
    gaveUp = 1;  // bounded retry: give up, leave recovery to operator
  }
}

on timer retryUpd
{
  updTries = updTries + 1;
  applyUpdateReq.byte(0) = seqBit;
  output(applyUpdateReq);
  if (updTries < 8) {
    setTimer(retryUpd, 50 + 50 * updTries);
  }
  if (updTries >= 8) {
    gaveUp = 1;
  }
}
`

// LossyVariant selects the gateway composed with the lossy channel.
type LossyVariant int

// Lossy composition variants.
const (
	// NaiveGateway is the paper's original VMG: it sends each request
	// exactly once, so any lost frame stalls the protocol.
	NaiveGateway LossyVariant = iota
	// HardenedGateway is the retransmission variant above.
	HardenedGateway
)

// String names the variant.
func (v LossyVariant) String() string {
	if v == HardenedGateway {
		return "hardened (retry) gateway"
	}
	return "naive gateway"
}

// Assertion indices of the lossy-channel scripts. The [T= pair
// documents that the finite-trace model the paper uses cannot see
// message loss (a stalled protocol has only correct prefixes); the [F=
// pair is the decisive robustness check — the delivered interface must
// keep making progress, which requires retransmission.
const (
	LossyAssertSP02T = iota
	LossyAssertSP034T
	LossyAssertSP02F
	LossyAssertSP034F
	LossyAssertDeadlock
	LossyAssertDivergence
	numLossyAsserts
)

// DefaultLossBudget is the per-direction loss budget of the standard
// lossy composition: the channel may destroy at most this many frames
// in each direction, the classic bounded-loss abstraction of a fair
// channel (retry bounds must exceed it for convergence).
const DefaultLossBudget = 2

// lossySpecSection builds the lossy-channel composition and its
// assertions. Each direction of the channel is a single-slot CAN
// controller mailbox: it always accepts the newest frame (overwrite),
// may drop at most `budget` frames, and otherwise delivers. The ECU is
// renamed onto delivered channels sendE/recE so the specification can
// observe what the far side actually received.
func lossySpecSection(budget int, withTimers bool) string {
	hidden := "{| send, rec |}"
	if withTimers {
		hidden = "{| send, rec, setTimer, cancelTimer, timeout |}"
	}
	return fmt.Sprintf(`
-- Bounded-loss channel composition (robustness checking).
channel sendE, recE : Msgs
ECUL = ECU[[send <- sendE, rec <- recE]]

CHS(n) = send?x -> CHSF(n, x)
CHSF(n, x) = if n > 0 then (CHSD(n, x) |~| CHS(n - 1)) else CHSD(n, x)
CHSD(n, x) = send?y -> CHSF(n, y) [] sendE!x -> CHS(n)

CHR(n) = recE?x -> CHRF(n, x)
CHRF(n, x) = if n > 0 then (CHRD(n, x) |~| CHR(n - 1)) else CHRD(n, x)
CHRD(n, x) = recE?y -> CHRF(n, y) [] rec!x -> CHR(n)

LOSSY = CHS(%d) ||| CHR(%d)
SYSTEML = (VMG [| {| send, rec |} |] LOSSY) [| {| sendE, recE |} |] ECUL

-- Delivered-interface views: the protocol as the far side received it.
DELIVL = SYSTEML \ %s
DIAGL = DELIVL \ {sendE.reqApp, recE.rptUpd}
UPDL = DELIVL \ {sendE.reqSw, recE.rptSw}

SP02L = sendE.reqSw -> recE.rptSw -> SP02L
SP034L = sendE.reqApp -> recE.rptUpd -> SP034L

assert SP02L [T= DIAGL
assert SP034L [T= UPDL
assert SP02L [F= DIAGL
assert SP034L [F= UPDL
assert SYSTEML :[deadlock free]
assert SYSTEML :[divergence free]
`, budget, budget, hidden)
}

// BuildLossy assembles the lossy-channel robustness composition for the
// chosen gateway variant with a per-direction loss budget. With the
// hardened gateway every assertion holds; with the naive gateway the
// stable-failures checks and deadlock freedom fail — the counterexample
// is the lost frame the paper's fault-free channel could never exhibit.
func BuildLossy(variant LossyVariant, lossBudget int) (*System, error) {
	if lossBudget < 0 {
		return nil, fmt.Errorf("ota: loss budget must be >= 0, got %d", lossBudget)
	}
	ecuSrc, vmgSrc := ECUSource, VMGSource
	if variant == HardenedGateway {
		ecuSrc, vmgSrc = HardenedECUSource, HardenedVMGSource
	}
	return assemble(lossySpecSection(lossBudget, variant == HardenedGateway), numLossyAsserts,
		ecuNode(ecuSrc), vmgNode(vmgSrc))
}
