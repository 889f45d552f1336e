package ota

// This file implements the paper's section VIII-A future-work items on
// top of the base case study:
//
//  1. a timer-driven VMG whose extracted model uses the untimed timer
//     abstraction (setTimer/timeout events) composed with the TIMER(t)
//     lifecycle process, and
//  2. the full ITU-T X.1373 message set with an update server —
//     diagnose, update_check, update and update_report exchanged
//     between server and VMG over the cellular link, gatewayed onto the
//     CAN exchange with the ECU.

// timerSpecSection composes the timer-variant system and its checks.
// The TIMER process serialises arming and expiry, so the VMG cannot
// fire spurious timeouts.
const timerSpecSection = `
-- Timer-variant composition: the VMG paces itself with a CANoe timer.
VMGT = VMG [| {| setTimer, cancelTimer, timeout |} |] TIMER(updateCycle)
SYSTEMT = VMGT [| {| send, rec |} |] ECU

SP02 = send.reqSw -> rec.rptSw -> SP02
HIDDENT = SYSTEMT \ {| setTimer, cancelTimer, timeout |}
DIAGT = HIDDENT \ {send.reqApp, rec.rptUpd}

assert SP02 [T= DIAGT
assert SYSTEMT :[deadlock free]
assert DIAGT :[divergence free]
`

// Assertion indices of the timer-variant script.
const (
	TimerAssertSP02 = iota
	TimerAssertDeadlock
	TimerAssertDivergence
	numTimerAsserts
)

// BuildWithTimers assembles the timer-driven case-study variant: the
// VMG of VMGTimerSource drives the update cycle from a CANoe msTimer;
// the extracted model composes with the generated TIMER(t) process.
func BuildWithTimers() (*System, error) {
	vmg := vmgNode(VMGTimerSource)
	vmg.TimerProcess = true
	return assemble(timerSpecSection, numTimerAsserts, ecuNode(ECUSource), vmg)
}

// fullX1373Section models the update server and the cellular link,
// following the X.1373 message flow the paper defers to future work:
// the server drives diagnose -> update_check -> update cycles; the VMG
// gateways the diagnose onto the CAN inventory exchange and the update
// onto the CAN apply exchange.
const fullX1373Section = `
-- ITU-T X.1373 server-side message set (paper section VIII-A).
datatype SrvMsgs = diagnose | diagRpt | updateCheck | updateAvail | applyCmd | updateReport
channel toVMG, fromVMG : SrvMsgs

SERVER = toVMG!diagnose -> fromVMG.diagRpt ->
         toVMG!updateCheck -> fromVMG.updateAvail ->
         toVMG!applyCmd -> fromVMG.updateReport -> SERVER

-- The gateway VMG: each server command maps onto the CAN exchange.
GW = toVMG.diagnose -> send!reqSw -> rec.rptSw -> fromVMG!diagRpt -> GW2
GW2 = toVMG.updateCheck -> fromVMG!updateAvail -> GW3
GW3 = toVMG.applyCmd -> send!reqApp -> rec.rptUpd -> fromVMG!updateReport -> GW

FULL = SERVER [| {| toVMG, fromVMG |} |] (GW [| {| send, rec |} |] ECU)

-- End-to-end property: every server update command results in an ECU
-- update report, in order.
SPE2E = toVMG.applyCmd -> fromVMG.updateReport -> SPE2E
E2EVIEW = FULL \ union({| send, rec |}, {toVMG.diagnose, fromVMG.diagRpt, toVMG.updateCheck, fromVMG.updateAvail})

-- The CAN-side integrity property still holds under the full stack.
SP02F = send.reqSw -> rec.rptSw -> SP02F
DIAGF = FULL \ union({| toVMG, fromVMG |}, {send.reqApp, rec.rptUpd})

assert SPE2E [T= E2EVIEW
assert SP02F [T= DIAGF
assert FULL :[deadlock free]
assert FULL :[divergence free]
`

// Assertion indices of the full-X.1373 script.
const (
	FullAssertE2E = iota
	FullAssertSP02
	FullAssertDeadlock
	FullAssertDivergence
	numFullAsserts
)

// BuildFullX1373 assembles the three-tier system: update server (CSPm
// specification-level model), gateway VMG, and the ECU model extracted
// from CAPL.
func BuildFullX1373() (*System, error) {
	return assemble(fullX1373Section, numFullAsserts, ecuNode(ECUSource))
}
