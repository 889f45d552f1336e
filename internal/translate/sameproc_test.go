package translate_test

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/caplgen"
	"repro/internal/cspm"
	"repro/internal/ota"
	"repro/internal/translate"
)

// TestSameProcAgreesWithPrint checks structural equality against the
// print comparison it replaced, on every pair of processes the
// translator compares (if and switch arms) over the caplgen soak's 200
// programs and the OTA builders, and pins the translated texts of the
// soak's programs (the OTA texts are pinned in internal/ota).
func TestSameProcAgreesWithPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program translation skipped in -short mode")
	}
	var mu sync.Mutex
	pairs, equal := 0, 0
	structural := *translate.SameProc
	*translate.SameProc = func(a, b cspm.ProcExpr) bool {
		same := structural(a, b)
		printed := cspm.PrintProc(a) == cspm.PrintProc(b)
		mu.Lock()
		defer mu.Unlock()
		pairs++
		if same {
			equal++
		}
		if same != printed {
			t.Errorf("EqualProc = %v, print comparison = %v:\n  %s\n  %s", same, printed, cspm.PrintProc(a), cspm.PrintProc(b))
		}
		return same
	}
	defer func() { *translate.SameProc = structural }()

	digest := sha256.New()
	for _, spec := range caplgen.Programs(caplgen.DefaultConfig()) {
		db, err := candb.Parse(spec.DBC())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := capl.Parse(spec.NodeSource())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := translate.Translate(prog, translate.Options{
			NodeName: "NODE", InChannel: "stim", OutChannel: "resp",
			IncludeTimers: true, Strict: true, DB: db, SourceFile: "gen.can",
		})
		if err != nil {
			t.Fatalf("program %d: %v", spec.Index, err)
		}
		digest.Write([]byte(tr.Text))
	}
	const soakTexts = "5fffda7cbabf6c1f65577ab76ddaf9dd0db9f2fc5683729af3a7c5944aeef151"
	if got := fmt.Sprintf("%x", digest.Sum(nil)); got != soakTexts {
		t.Errorf("caplgen soak translations sha256 = %s, want %s", got, soakTexts)
	}
	for _, build := range []func() (*ota.System, error){
		ota.Build, ota.BuildFlawed, ota.BuildDeadlocked, ota.BuildWithTimers, ota.BuildFullX1373,
		func() (*ota.System, error) { return ota.BuildLossy(ota.NaiveGateway, 1) },
		func() (*ota.System, error) { return ota.BuildLossy(ota.HardenedGateway, 1) },
	} {
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d pairs compared, %d equal", pairs, equal)
	if equal == 0 || equal == pairs {
		t.Errorf("%d of %d pairs equal: the corpus must exercise both outcomes", equal, pairs)
	}
}
