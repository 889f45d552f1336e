package main

import (
	"fmt"
	"math/rand"

	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/ota"
	"repro/internal/translate"
)

// pipeline-small: the paper's Figure 1 path. Each job takes an ECU and a
// VMG CAPL program through parse, lint and typecheck, extraction, CSPm
// evaluation and every assertion of its spec section.

// tableIIISpec is the benchmark's copy of the OTA spec section: the
// Table III properties checked against SYSTEM, which %s defines.
const tableIIISpec = `
RUNALL = send?x1 -> RUNALL [] rec?x2 -> RUNALL
SP01 = send.reqSw -> RUNALL
SP02 = send.reqSw -> rec.rptSw -> SP02
SP034 = send.reqApp -> rec.rptUpd -> SP034
%s
DIAG = SYSTEM \ {send.reqApp, rec.rptUpd}
UPDATE = SYSTEM \ {send.reqSw, rec.rptSw}
assert SP01 [T= SYSTEM
assert SP02 [T= DIAG
assert SP034 [T= UPDATE
assert SYSTEM :[deadlock free]
assert SYSTEM :[divergence free]
`

// The OTA corpus composes the two nodes directly; the timer-driven VMG
// first synchronises with its TIMER process, whose events are hidden.
const (
	plainSystem = "SYSTEM = VMG [| {| send, rec |} |] ECU"
	timerSystem = "VMGT = VMG [| {| setTimer, cancelTimer, timeout |} |] TIMER(updateCycle)\n" +
		"SYSTEM = (VMGT [| {| send, rec |} |] ECU) \\ {| setTimer, cancelTimer, timeout |}"
)

// corpus lists the OTA node pairs.
var corpus = []struct {
	input, ecu, vmg string
	timer           bool
}{
	{"corpus-correct", ota.ECUSource, ota.VMGSource, false},
	{"corpus-flawed", ota.FlawedECUSource, ota.VMGSource, false},
	{"corpus-deadlocked", ota.DeadlockECUSource, ota.VMGSource, false},
	{"corpus-timer", ota.ECUSource, ota.VMGTimerSource, true},
}

// pipelineSizes are the pair counts of the generated systems in a round.
var pipelineSizes = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16}

// caplJob is one Figure 1 run.
type caplJob struct {
	input                string
	ecu, vmg             string
	ecuTokens, vmgTokens int
	lint                 caplint.Options
	ecuOpts, vmgOpts     translate.Options
	spec                 string
	want                 []string
}

func (j *caplJob) run(t *tracer) (int, error) {
	ecu, err := parse(t, j.ecu, j.ecuTokens)
	if err != nil {
		return 0, err
	}
	vmg, err := parse(t, j.vmg, j.vmgTokens)
	if err != nil {
		return 0, err
	}
	if err := analyze(t, ecu, j.lint); err != nil {
		return 0, err
	}
	if err := analyze(t, vmg, j.lint); err != nil {
		return 0, err
	}
	ecuText, err := extract(t, ecu, j.ecuOpts)
	if err != nil {
		return 0, err
	}
	vmgText, err := extract(t, vmg, j.vmgOpts)
	if err != nil {
		return 0, err
	}
	m, err := load(t, ecuText+"\n"+vmgText+j.spec)
	if err != nil {
		return 0, err
	}
	verdicts, states, err := checkAll(t, m)
	if err != nil {
		return 0, err
	}
	return states, matchVerdicts(j.input, j.want, verdicts)
}

// newCAPLJob fills in the translation options both nodes share and
// counts the tokens of each source.
func newCAPLJob(input, ecu, vmg string, msgs []string, rename map[string]string, spec string, want []string) (*caplJob, error) {
	j := &caplJob{input: input, ecu: ecu, vmg: vmg, spec: spec, want: want}
	for _, src := range []struct {
		text   string
		tokens *int
	}{{ecu, &j.ecuTokens}, {vmg, &j.vmgTokens}} {
		toks, err := capl.Lex(src.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", input, err)
		}
		*src.tokens = len(toks)
	}
	j.ecuOpts = translate.Options{NodeName: "ECU", InChannel: "send", OutChannel: "rec",
		MsgDatatype: "Msgs", MessageRename: rename, ExtraMessages: msgs, IncludeTimers: true}
	j.vmgOpts = translate.Options{NodeName: "VMG", InChannel: "rec", OutChannel: "send",
		MsgDatatype: "Msgs", MessageRename: rename, ExtraMessages: msgs, IncludeTimers: true, OmitDecls: true}
	return j, nil
}

func setupPipeline(seed int64, _ float64) (*prepared, error) {
	rng := rand.New(rand.NewSource(seed))
	db, err := ota.Database()
	if err != nil {
		return nil, err
	}
	otaMsgs := []string{"reqSw", "rptSw", "reqApp", "rptUpd"}
	var round []job
	d := newDigest()
	for _, c := range corpus {
		system := plainSystem
		if c.timer {
			system = timerSystem
		}
		spec := fmt.Sprintf(tableIIISpec, system)
		want, err := wantAsserts(c.input)
		if err != nil {
			return nil, err
		}
		j, err := newCAPLJob(c.input, c.ecu, c.vmg, otaMsgs, ota.MessageRename, spec, want)
		if err != nil {
			return nil, err
		}
		j.lint.DB = db
		if c.timer {
			j.ecuOpts.ExtraTimers = []string{"updateCycle"}
			j.vmgOpts.GenerateTimerProcess = true
		}
		d.add(c.input, c.ecu, c.vmg, spec)
		round = append(round, job{c.input, j.run})
	}
	for _, n := range pipelineSizes {
		sys := genPairSystem(rng, n)
		input := fmt.Sprintf("pairs-%d-k%d", n, sys.k)
		spec := pairSpec(n, sys.k)
		j, err := newCAPLJob(input, sys.ecu, sys.vmg, sys.msgs, nil, spec, holdsAll(pairAsserts))
		if err != nil {
			return nil, err
		}
		d.add(input, sys.ecu, sys.vmg, spec)
		round = append(round, job{input, j.run})
	}
	return closedLoopBench(rng, round, d), nil
}
