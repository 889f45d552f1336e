package learn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/canoe"
	"repro/internal/csp"
	"repro/internal/obs"
)

func variantTeacher(t *testing.T, v Variant, cfg CampaignConfig) *SimTeacher {
	t.Helper()
	teacher, err := NewVariantTeacher(cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	return teacher
}

func TestSimTeacherAlphabet(t *testing.T) {
	teacher := variantTeacher(t, VariantNaive, CampaignConfig{})
	got := teacher.Alphabet()
	want := otaAlphabet() // sorted by rendering
	if len(got) != len(want) {
		t.Fatalf("alphabet %v, want %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("alphabet[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSimTeacherMembershipNaive(t *testing.T) {
	teacher := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 1})
	for _, tc := range []struct {
		w    csp.Trace
		want bool
	}{
		{csp.Trace{}, true},
		{csp.Trace{ev("send", "reqSw")}, true},
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw")}, true},
		// The naive ECU answers an inventory request with rptSw, never
		// rptUpd.
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptUpd")}, false},
		// A report with no preceding request is not a node trace.
		{csp.Trace{ev("rec", "rptSw")}, false},
		{csp.Trace{ev("send", "reqApp"), ev("rec", "rptUpd"), ev("send", "reqSw"), ev("rec", "rptSw")}, true},
	} {
		got, err := teacher.Membership(tc.w)
		if err != nil {
			t.Fatalf("Membership(%s): %v", tc.w, err)
		}
		if got != tc.want {
			t.Errorf("Membership(%s) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

// TestSimTeacherMembershipFlawed pins the injected defect at the
// simulator level: the flawed gateway's ECU answers a software
// inventory request with an update result report.
func TestSimTeacherMembershipFlawed(t *testing.T) {
	teacher := variantTeacher(t, VariantFlawed, CampaignConfig{Seed: 1})
	got, err := teacher.Membership(csp.Trace{ev("send", "reqSw"), ev("rec", "rptUpd")})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("flawed ECU should answer reqSw with rptUpd")
	}
	got, err = teacher.Membership(csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw")})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("flawed ECU should not answer reqSw with rptSw")
	}
}

// TestSimTeacherDeterministicUnderFaults pins the teacher contract the
// learner depends on: under every fault profile, the same word gets the
// same answer on every ask.
func TestSimTeacherDeterministicUnderFaults(t *testing.T) {
	words := []csp.Trace{
		{},
		{ev("send", "reqSw")},
		{ev("send", "reqSw"), ev("rec", "rptSw")},
		{ev("send", "reqApp"), ev("rec", "rptUpd")},
		{ev("send", "reqSw"), ev("rec", "rptSw"), ev("send", "reqApp"), ev("rec", "rptUpd")},
	}
	for _, p := range Profiles() {
		teacher := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 99, Profile: p})
		for _, w := range words {
			first, err := teacher.Membership(w)
			if err != nil {
				t.Fatalf("profile %s, word %s: %v", p, w, err)
			}
			for i := 0; i < 3; i++ {
				again, err := teacher.Membership(w)
				if err != nil {
					t.Fatalf("profile %s, word %s: %v", p, w, err)
				}
				if again != first {
					t.Fatalf("profile %s, word %s: answer flipped %v -> %v", p, w, first, again)
				}
			}
		}
	}
}

// TestSimTeacherDropLosesTraffic sanity-checks that fault profiles
// actually change behaviour: under a dropping bus, some request/report
// word the exact bus accepts must be rejected.
func TestSimTeacherDropLosesTraffic(t *testing.T) {
	exact := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 5})
	lossy := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 5, Profile: ProfileDrop})
	w := csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw")}
	diverged := false
	for i := 0; i < 32 && !diverged; i++ {
		// Vary the word by prefixing completed exchanges so the per-word
		// fault seed changes.
		got1, err := exact.Membership(w)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := lossy.Membership(w)
		if err != nil {
			t.Fatal(err)
		}
		if got1 != got2 {
			diverged = true
		}
		w = append(csp.Trace{ev("send", "reqApp"), ev("rec", "rptUpd")}, w...)
	}
	if !diverged {
		t.Fatal("drop profile never changed any answer over 32 words")
	}
}

// recordingTeacher records every word the learner asks the wrapped
// teacher, with its answer.
type recordingTeacher struct {
	Teacher
	mu    sync.Mutex
	asked []answer
}

type answer struct {
	w   csp.Trace
	ok  bool
	err string
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (r *recordingTeacher) Membership(w csp.Trace) (bool, error) {
	ok, err := r.Teacher.Membership(w)
	r.mu.Lock()
	r.asked = append(r.asked, answer{w: append(csp.Trace(nil), w...), ok: ok, err: errString(err)})
	r.mu.Unlock()
	return ok, err
}

// TestSimTeacherMatchesFreshSimulation is the differential oracle for
// the teacher's run memo: every word L* asks at seed 1 gets the answer
// and error of a fresh teacher that simulates that word alone, on an
// exact and on a dropping bus, sequentially and with a worker pool.
func TestSimTeacherMatchesFreshSimulation(t *testing.T) {
	for _, p := range []FaultProfile{ProfileNone, ProfileDrop} {
		for _, v := range Variants {
			cfg := CampaignConfig{Seed: 1, Profile: p}
			fresh := map[string]answer{}
			for _, workers := range []int{1, 4} {
				rec := &recordingTeacher{Teacher: variantTeacher(t, v, cfg)}
				// A fault-injected node need not be learnable: only the
				// asked words matter here, not convergence.
				_, _, _ = Learn(Config{Teacher: rec, Seed: 1, Workers: workers})
				if len(rec.asked) == 0 {
					t.Fatalf("%s/%s: learner asked nothing", p, v)
				}
				for _, got := range rec.asked {
					key := got.w.String()
					want, seen := fresh[key]
					if !seen {
						ok, err := variantTeacher(t, v, cfg).Membership(got.w)
						want = answer{ok: ok, err: errString(err)}
						fresh[key] = want
					}
					if got.ok != want.ok || got.err != want.err {
						t.Fatalf("%s/%s workers=%d: Membership(%s) = %v, %q; fresh simulation says %v, %q",
							p, v, workers, got.w, got.ok, got.err, want.ok, want.err)
					}
				}
			}
		}
	}
}

// TestSimTeacherSingleFlight asks words sharing one stimulus sequence
// from many goroutines at once: exactly one simulation runs, and every
// word still gets its own answer.
func TestSimTeacherSingleFlight(t *testing.T) {
	o := obs.New()
	teacher := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 1, Obs: o})
	words := []struct {
		w    csp.Trace
		want bool
	}{
		{csp.Trace{ev("send", "reqSw")}, true},
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw")}, true},
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptUpd")}, false},
		{csp.Trace{ev("rec", "rptSw"), ev("send", "reqSw")}, false},
	}
	const n = 16
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tc struct {
			w    csp.Trace
			want bool
		}) {
			defer wg.Done()
			<-start
			got, err := teacher.Membership(tc.w)
			if err == nil && got != tc.want {
				err = fmt.Errorf("Membership(%s) = %v, want %v", tc.w, got, tc.want)
			}
			errs <- err
		}(words[i%len(words)])
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if runs := o.Counter("learn.sim.runs").Value(); runs != 1 {
		t.Fatalf("learn.sim.runs = %d for %d asks of one stimulus sequence, want 1", runs, n)
	}
}

// TestSimTeacherStimulusByIdentity pins the teacher's event identity:
// an event that renders as send.reqSw but is not Equal to it is a
// response, so it injects no frame and adds nothing to the stimulus
// sequence.
func TestSimTeacherStimulusByIdentity(t *testing.T) {
	o := obs.New()
	teacher := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 1, Obs: o})
	reqSw := ev("send", "reqSw")
	pun := csp.Event{Chan: "send", Args: []csp.Value{csp.NewDotted("reqSw")}}
	if pun.String() != reqSw.String() || pun.Equal(reqSw) {
		t.Fatalf("%s must render like %s without being Equal to it", pun, reqSw)
	}
	if got, err := teacher.Membership(csp.Trace{reqSw}); err != nil || !got {
		t.Fatalf("Membership(<send.reqSw>) = %v, %v; want true", got, err)
	}
	got, err := teacher.Membership(csp.Trace{reqSw, pun})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("a punned event matched the node's observed trace")
	}
	if runs := o.Counter("learn.sim.runs").Value(); runs != 1 {
		t.Fatalf("learn.sim.runs = %d, want 1: the punned event was injected as a second stimulus", runs)
	}
}

// TestNewSimTeacherRejectsBadCAPL pins where the one parse happens: a
// teacher over bad CAPL fails to build, naming the node, before any
// query is asked.
func TestNewSimTeacherRejectsBadCAPL(t *testing.T) {
	_, err := NewSimTeacher(SimTeacherConfig{NodeName: "ECU", Source: "on message {"})
	if err == nil || !strings.HasPrefix(err.Error(), "node ECU: ") {
		t.Fatalf("NewSimTeacher over bad CAPL: err = %v, want a node ECU: parse error", err)
	}
}

// TestSimTeacherPanicAnswersEveryAsker pins the memo's failure path: a
// simulation that panics becomes the error of every word sharing its
// stimulus sequence, and no asker waits forever.
func TestSimTeacherPanicAnswersEveryAsker(t *testing.T) {
	teacher := variantTeacher(t, VariantNaive, CampaignConfig{Seed: 1})
	teacher.prog = nil // attaching a nil program panics inside the run
	words := []csp.Trace{
		{ev("send", "reqSw")},
		{ev("send", "reqSw"), ev("rec", "rptSw")},
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = teacher.Membership(words[i%len(words)])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "membership run panicked") {
			t.Fatalf("ask %d: err = %v, want the run's panic", i, err)
		}
	}
}

// TestSimTeacherExactEventBudget pins the budget edge of a membership
// run: send.reqSw on the naive ECU takes two bus events, so a budget
// of two answers the query and a budget of one is exceeded.
func TestSimTeacherExactEventBudget(t *testing.T) {
	w := csp.Trace{ev("send", "reqSw")}
	exact := variantTeacher(t, VariantNaive, CampaignConfig{SimEventsPerQuery: 2})
	if got, err := exact.Membership(w); err != nil || !got {
		t.Errorf("budget 2: Membership(%s) = %v, %v, want true, nil", w, got, err)
	}
	short := variantTeacher(t, VariantNaive, CampaignConfig{SimEventsPerQuery: 1})
	if _, err := short.Membership(w); !errors.Is(err, canoe.ErrEventBudget) {
		t.Errorf("budget 1: Membership(%s) err = %v, want canoe.ErrEventBudget", w, err)
	}
}
