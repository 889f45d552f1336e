package learn

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
)

// Variant selects a gateway variant of the OTA corpus (see
// ota.Variant): the flawed ECU is simulated but checked against the
// reference model extracted from the *correct* sources, so a
// learned/extracted divergence on it is the expected finding, not an
// error.
type Variant = ota.Variant

// The OTA corpus variants.
const (
	VariantNaive    = ota.VariantNaive
	VariantHardened = ota.VariantHardened
	VariantFlawed   = ota.VariantFlawed
)

// Variants lists the whole corpus in campaign order.
var Variants = ota.Variants

// CampaignConfig drives a Learn–Check–Test campaign over the OTA
// corpus.
type CampaignConfig struct {
	Seed     int64
	Variants []Variant // nil: all
	Profile  FaultProfile

	Depth      int
	Walks      int
	MaxQueries int
	MaxRounds  int
	// Workers sizes the equivalence-query pool; reports are
	// byte-identical at any worker count.
	Workers int

	// MaxStates / MaxDuration budget each refinement and membership
	// check (0: checker defaults / unbounded).
	MaxStates   int
	MaxDuration time.Duration
	// SimEventsPerQuery bounds one membership simulation.
	SimEventsPerQuery int

	Obs *obs.Observer
}

// CheckOutcome is one leg of the triangle.
type CheckOutcome struct {
	Holds bool `json:"holds"`
	// Counterexample is the offending trace when the leg fails.
	Counterexample []string `json:"counterexample,omitempty"`
}

// Checks is the refinement triangle over one learned automaton: both
// trace-refinement directions against the extracted model, plus the
// paper-style per-protocol specs (SP02's diagnosis request/report
// alternation and SP034's update alternation) checked on the learned
// process with the other protocol hidden.
type Checks struct {
	LearnedRefinesExtracted CheckOutcome `json:"learnedRefinesExtracted"`
	ExtractedRefinesLearned CheckOutcome `json:"extractedRefinesLearned"`
	SpecDiag                CheckOutcome `json:"specDiag"`
	SpecUpdate              CheckOutcome `json:"specUpdate"`
}

// Witness is a delta-shrunk, replayable learned/extracted divergence:
// a minimal word on which the extracted model and the learned automaton
// disagree, with the simulator's own verdict as ground truth
// (learncheck -replay re-derives ExtractedAccepts and SimAccepts).
type Witness struct {
	Variant string   `json:"variant"`
	Profile string   `json:"profile"`
	Seed    int64    `json:"seed"`
	Check   string   `json:"check"`
	Trace   []string `json:"trace"`
	// ExtractedAccepts / LearnedAccepts disagree by construction.
	ExtractedAccepts bool `json:"extractedAccepts"`
	LearnedAccepts   bool `json:"learnedAccepts"`
	// SimAccepts arbitrates: it matches LearnedAccepts when the
	// extraction is unsound and ExtractedAccepts when the learner
	// under-converged.
	SimAccepts bool `json:"simAccepts"`
}

// VariantReport is the campaign result for one gateway variant.
type VariantReport struct {
	Variant Variant  `json:"variant"`
	Learned *DFAJSON `json:"learned,omitempty"`
	Queries Stats    `json:"queries"`
	// EquivalentToExtracted is true when both refinement directions
	// hold: the learned automaton is trace-equivalent to the extracted
	// model.
	EquivalentToExtracted bool     `json:"equivalentToExtracted"`
	Checks                *Checks  `json:"checks,omitempty"`
	Witness               *Witness `json:"witness,omitempty"`
	Error                 string   `json:"error,omitempty"`
}

// Report is a whole campaign, JSON-rendered byte-identically at any
// worker count (no wall-clock data).
type Report struct {
	Seed     int64           `json:"seed"`
	Profile  FaultProfile    `json:"profile"`
	Depth    int             `json:"depth"`
	Walks    int             `json:"walks"`
	Variants []VariantReport `json:"variants"`
}

// JSON renders the report deterministically.
func (r *Report) JSON() ([]byte, error) {
	return campaign.JSON(r)
}

// Text renders a human summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "learncheck: seed %d, profile %s, depth %d, %d walks/round\n",
		r.Seed, r.Profile, r.Depth, r.Walks)
	for _, vr := range r.Variants {
		if vr.Error != "" {
			fmt.Fprintf(&b, "%-9s ERROR: %s\n", vr.Variant, vr.Error)
			continue
		}
		verdict := "diverges from extracted model"
		if vr.EquivalentToExtracted {
			verdict = "trace-equivalent to extracted model"
		}
		fmt.Fprintf(&b, "%-9s %d states, %d membership queries (%d cached), %d equivalence words in %d rounds: %s\n",
			vr.Variant, vr.Learned.States, vr.Queries.MembershipQueries, vr.Queries.CacheHits,
			vr.Queries.EquivalenceWords, vr.Queries.EquivalenceRounds, verdict)
		if vr.Checks != nil {
			fmt.Fprintf(&b, "          checks: learned⊑extracted=%v extracted⊑learned=%v specDiag=%v specUpdate=%v\n",
				vr.Checks.LearnedRefinesExtracted.Holds, vr.Checks.ExtractedRefinesLearned.Holds,
				vr.Checks.SpecDiag.Holds, vr.Checks.SpecUpdate.Holds)
		}
		if vr.Witness != nil {
			fmt.Fprintf(&b, "          witness (%s): %s [extracted=%v learned=%v sim=%v]\n",
				vr.Witness.Check, strings.Join(vr.Witness.Trace, " "),
				vr.Witness.ExtractedAccepts, vr.Witness.LearnedAccepts, vr.Witness.SimAccepts)
		}
	}
	return b.String()
}

// Run learns every requested variant and closes the triangle on each.
func Run(cfg CampaignConfig) (*Report, error) {
	if cfg.Profile == "" {
		cfg.Profile = ProfileNone
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 6
	}
	if cfg.Walks <= 0 {
		cfg.Walks = 64
	}
	variants := cfg.Variants
	if len(variants) == 0 {
		variants = Variants
	}
	rep := &Report{Seed: cfg.Seed, Profile: cfg.Profile, Depth: cfg.Depth, Walks: cfg.Walks}
	for _, v := range variants {
		rep.Variants = append(rep.Variants, runVariant(cfg, v))
	}
	return rep, nil
}

// NewVariantTeacher builds the simulated-bus teacher for a variant —
// shared by the campaign and learncheck -replay.
func NewVariantTeacher(cfg CampaignConfig, v Variant) (*SimTeacher, error) {
	src, _, err := v.Sources()
	if err != nil {
		return nil, err
	}
	db, err := ota.Database()
	if err != nil {
		return nil, err
	}
	return NewSimTeacher(SimTeacherConfig{
		NodeName:          "ECU",
		Source:            src,
		DB:                db,
		Rename:            ota.MessageRename,
		InChannel:         "send",
		OutChannel:        "rec",
		InSender:          "VMG",
		Seed:              cfg.Seed,
		Profile:           cfg.Profile,
		MaxEventsPerQuery: cfg.SimEventsPerQuery,
		Obs:               cfg.Obs,
	})
}

// BuildReference builds the variant's reference system and a checker
// over its environment; the extracted ECU process is csp.Call("ECU").
func BuildReference(cfg CampaignConfig, v Variant) (*ota.System, *refine.Checker, error) {
	ocfg, err := v.ReferenceConfig()
	if err != nil {
		return nil, nil, err
	}
	sys, err := ota.BuildObserved(ocfg)
	if err != nil {
		return nil, nil, fmt.Errorf("learn: build %s reference: %w", v, err)
	}
	checker := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
	checker.MaxStates = cfg.MaxStates
	checker.MaxDuration = cfg.MaxDuration
	checker.Cache = lts.NewCache()
	checker.Obs = cfg.Obs
	return sys, checker, nil
}

func runVariant(cfg CampaignConfig, v Variant) (vr VariantReport) {
	vr.Variant = v
	defer func() {
		if r := recover(); r != nil {
			vr.Error = fmt.Sprintf("panic: %v", r)
		}
	}()
	span := cfg.Obs.StartSpan("learn.variant", obs.String("variant", string(v)))
	defer span.End()

	sys, checker, err := BuildReference(cfg, v)
	if err != nil {
		vr.Error = err.Error()
		return vr
	}
	teacher, err := NewVariantTeacher(cfg, v)
	if err != nil {
		vr.Error = err.Error()
		return vr
	}
	dfa, stats, err := Learn(Config{
		Teacher:    teacher,
		Seed:       cfg.Seed,
		Depth:      cfg.Depth,
		Walks:      cfg.Walks,
		Workers:    cfg.Workers,
		MaxQueries: cfg.MaxQueries,
		MaxRounds:  cfg.MaxRounds,
		Obs:        cfg.Obs,
	})
	vr.Queries = stats
	if err != nil {
		vr.Error = err.Error()
		return vr
	}
	vr.Learned = dfa.JSON()

	learned, err := dfa.Lower(sys.Model.Env, "LEARNED")
	if err != nil {
		vr.Error = err.Error()
		return vr
	}
	extracted := csp.Call("ECU")
	checks, witness, err := closeTriangle(checker, sys, extracted, learned, dfa, teacher, v, cfg)
	if err != nil {
		vr.Error = err.Error()
		return vr
	}
	vr.Checks = checks
	vr.Witness = witness
	vr.EquivalentToExtracted = checks.LearnedRefinesExtracted.Holds && checks.ExtractedRefinesLearned.Holds
	return vr
}

func eventStrings(t csp.Trace) []string {
	out := make([]string, len(t))
	for i, ev := range t {
		out[i] = ev.String()
	}
	return out
}

// closeTriangle runs the three-way check: learned ⊑T extracted,
// extracted ⊑T learned, and the learned process against the
// per-protocol specs. The first failing refinement direction is
// delta-shrunk into a replayable witness.
func closeTriangle(checker *refine.Checker, sys *ota.System, extracted, learned csp.Process,
	dfa *DFA, teacher Teacher, v Variant, cfg CampaignConfig) (*Checks, *Witness, error) {
	refinement := func(spec, impl csp.Process) (CheckOutcome, csp.Trace, error) {
		res, err := checker.RefinesTraces(spec, impl)
		if err != nil {
			return CheckOutcome{}, nil, err
		}
		if res.Holds {
			return CheckOutcome{Holds: true}, nil, nil
		}
		// Counterexample already ends with the offending event.
		bad := append(csp.Trace{}, res.Counterexample...)
		return CheckOutcome{Counterexample: eventStrings(bad)}, bad, nil
	}

	var checks Checks
	var err error
	var cex1, cex2 csp.Trace
	checks.LearnedRefinesExtracted, cex1, err = refinement(extracted, learned)
	if err != nil {
		return nil, nil, fmt.Errorf("learn: learned ⊑ extracted: %w", err)
	}
	checks.ExtractedRefinesLearned, cex2, err = refinement(learned, extracted)
	if err != nil {
		return nil, nil, fmt.Errorf("learn: extracted ⊑ learned: %w", err)
	}

	// Per-protocol specs on the learned behaviour, mirroring the
	// paper's SP02/SP034 request/report alternation: hide the other
	// protocol and require strict alternation of this one.
	env := sys.Model.Env
	if err := env.Define("LSPEC_DIAG", nil,
		csp.Send("send", csp.Send("rec", csp.Call("LSPEC_DIAG"), csp.Sym("rptSw")), csp.Sym("reqSw"))); err != nil {
		return nil, nil, err
	}
	if err := env.Define("LSPEC_UPD", nil,
		csp.Send("send", csp.Send("rec", csp.Call("LSPEC_UPD"), csp.Sym("rptUpd")), csp.Sym("reqApp"))); err != nil {
		return nil, nil, err
	}
	updEvents := csp.Events(
		csp.Event{Chan: "send", Args: []csp.Value{csp.Sym("reqApp")}},
		csp.Event{Chan: "rec", Args: []csp.Value{csp.Sym("rptUpd")}})
	diagEvents := csp.Events(
		csp.Event{Chan: "send", Args: []csp.Value{csp.Sym("reqSw")}},
		csp.Event{Chan: "rec", Args: []csp.Value{csp.Sym("rptSw")}})
	checks.SpecDiag, _, err = refinement(csp.Call("LSPEC_DIAG"), csp.Hide(learned, updEvents))
	if err != nil {
		return nil, nil, fmt.Errorf("learn: spec diag: %w", err)
	}
	checks.SpecUpdate, _, err = refinement(csp.Call("LSPEC_UPD"), csp.Hide(learned, diagEvents))
	if err != nil {
		return nil, nil, fmt.Errorf("learn: spec update: %w", err)
	}

	var witness *Witness
	name, cex := "learnedRefinesExtracted", cex1
	if cex == nil && cex2 != nil {
		name, cex = "extractedRefinesLearned", cex2
	}
	if cex != nil {
		w, werr := shrinkWitness(checker, extracted, dfa, cex)
		if werr != nil {
			return nil, nil, werr
		}
		extAcc, werr := checker.AcceptsTrace(extracted, w)
		if werr != nil {
			return nil, nil, werr
		}
		simAcc, werr := teacher.Membership(w)
		if werr != nil {
			return nil, nil, werr
		}
		witness = &Witness{
			Variant:          string(v),
			Profile:          string(cfg.Profile),
			Seed:             cfg.Seed,
			Check:            name,
			Trace:            eventStrings(w),
			ExtractedAccepts: extAcc.Accepted,
			LearnedAccepts:   dfa.Accepts(w),
			SimAccepts:       simAcc,
		}
	}
	return &checks, witness, nil
}

// shrinkWitness greedily delta-shrinks a divergence word: drop any
// event whose removal preserves the extracted/learned disagreement,
// to a fixed point. BFS counterexamples are already shortest, but
// subsequences can disagree even more simply.
func shrinkWitness(checker *refine.Checker, extracted csp.Process, dfa *DFA, w csp.Trace) (csp.Trace, error) {
	disagree := func(t csp.Trace) (bool, error) {
		res, err := checker.AcceptsTrace(extracted, t)
		if err != nil {
			return false, err
		}
		return res.Accepted != dfa.Accepts(t), nil
	}
	ok, err := disagree(w)
	if err != nil {
		return nil, err
	}
	if !ok {
		// The refinement counterexample should disagree by
		// construction; keep it unshrunk if the membership view differs.
		return w, nil
	}
	return campaign.Shrink(w, disagree)
}
