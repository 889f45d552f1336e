package ota

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/cspm"
	"repro/internal/fdr"
)

// TestBuilderOutputPinned pins the SHA-256 of every builder's combined
// script and per-node models: the OTA corpus's behavioural contract.
// Each row is Source, ECUText, VMGText (an ECU-only build has an empty
// VMGText). The combined Source must also parse back to the script the
// builder evaluated, with the same verdicts.
func TestBuilderOutputPinned(t *testing.T) {
	hardBudgets := ChannelBudgets{DropToECU: 1, DropToVMG: 2, SpurToECU: 1, SpurToVMG: 1}
	observed := func(v LossyVariant, b ChannelBudgets) func() (*System, error) {
		return func() (*System, error) { return BuildObserved(ObservedConfigFor(v, b)) }
	}
	lossy := func(v LossyVariant, b int) func() (*System, error) {
		return func() (*System, error) { return BuildLossy(v, b) }
	}
	const (
		ecu      = "d71b550e1d382603e7c10a80b173cf58bba975505da2f8d80a8fb11197d22146"
		vmg      = "dee735b1c35d54827cb97825b16ed763990c7b9842fc2f15de92a5d9ec7469fb"
		hardECU  = "59d109bd2811e08c84efe3a52bf468698ed32f11ef1b9fee3fac53221a4850bc"
		hardVMG  = "b661ac3107d87ee98459b957d7d1203b636d726d17cbeeb009f72a382b49912b"
		emptyVMG = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	)
	for _, tc := range []struct {
		name               string
		build              func() (*System, error)
		source, ecuT, vmgT string
	}{
		{"Build", Build, "ba515fde9d5b7b2c3b1a69f38fec4c0f7c54725583efa3347b758385a3369db4", ecu, vmg},
		{"BuildFlawed", BuildFlawed, "2933ad3bbec8bec6ef69cb99165325d8f3719985c5ab8edfe7edfe15687889c5",
			"97c67a21807f1a47fc527a9e1dc3566fa1e76183f6a7cf86c5539442e250cdd4", vmg},
		{"BuildDeadlocked", BuildDeadlocked, "fb89586a175f10fa42d7f30d3a45c085f32c21f67f4e6d1e1399f2105ca325fa",
			"6b90b6356f141d25e1c99603f7ac8ddba488a6a00a7c5e6ecc568111f3d92097", vmg},
		{"BuildWithTimers", BuildWithTimers, "7938cb2beb3fec1607dfd97161a142105a74e78efda66ca0df1e5a6acb52b9c5",
			"16ea8809abd82b7b81ca12e4846d71f7191f5f289f5f6a50aeb7ac01ad8bb6ef",
			"c051dd79fecd4b213e7cded2e7c9741e24ba83063365827efd0b34772c10f322"},
		{"BuildFullX1373", BuildFullX1373, "69f24c5ad82c764f3036223de4f67c88084e736065130aba6aad02bb398b1c53", ecu, emptyVMG},
		{"BuildLossy/naive/0", lossy(NaiveGateway, 0), "cab7e4673b7f34401d3ea9c3c87842ccf80b256632b9a6271cd350f14324a7b1", ecu, vmg},
		{"BuildLossy/naive/1", lossy(NaiveGateway, 1), "2362850e6ea96649873c6769250b057c2239e37f4c358213dd1c9c84047ebc00", ecu, vmg},
		{"BuildLossy/naive/2", lossy(NaiveGateway, 2), "06ace6e7326a9a7c0b38eb62188a4e07de423676e1eff4b8e885ce6427da3ea4", ecu, vmg},
		{"BuildLossy/naive/3", lossy(NaiveGateway, 3), "1ac78c159f6cad1fd02f62aaef16dca52b77c6fd8eb10fe052396e81db2813ce", ecu, vmg},
		{"BuildLossy/hardened/0", lossy(HardenedGateway, 0), "5da9956694a8785c4ac81efcadd28b9675f3c9f0076c1dbc588a398173777464", hardECU, hardVMG},
		{"BuildLossy/hardened/1", lossy(HardenedGateway, 1), "b76caee71ffe2feb5207f4b1e17f6040ea44cd10c870ca44aef1948305c0a612", hardECU, hardVMG},
		{"BuildLossy/hardened/2", lossy(HardenedGateway, 2), "22e177c2aad66df2bf2f4a8693e1235048bed0be563b7d4d570e67b02fd6613b", hardECU, hardVMG},
		{"BuildLossy/hardened/3", lossy(HardenedGateway, 3), "942127455f776e65deacc4f4d1b085de5d0f405c7d87ac60994c42822dfb411a", hardECU, hardVMG},
		{"BuildObserved/naive/exact", observed(NaiveGateway, ChannelBudgets{}), "ae58c15650e707a2bbd9d831ec3a6e865035d84f2981f998632586e54646e031", ecu, vmg},
		{"BuildObserved/naive/faulty", observed(NaiveGateway, hardBudgets), "76de2c2cee89f608d15bc826624c1fad003ffe389828d4692c7dd3c77b2c5feb", ecu, vmg},
		{"BuildObserved/hardened/exact", observed(HardenedGateway, ChannelBudgets{}), "e23916bb50337e49c8be370a6e16e31d686a85b13b4136fb331ae76f0ff161d1", hardECU, hardVMG},
		{"BuildObserved/hardened/faulty", observed(HardenedGateway, hardBudgets), "7b3d2506e495f1df13fbed93b67abd2b7947ad5c20357837d52606bc39523365", hardECU, hardVMG},
	} {
		sys, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, part := range []struct{ field, text, want string }{
			{"Source", sys.Source, tc.source},
			{"ECUText", sys.ECUText, tc.ecuT},
			{"VMGText", sys.VMGText, tc.vmgT},
		} {
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(part.text))); got != part.want {
				t.Errorf("%s: %s sha256 = %s, want %s", tc.name, part.field, got, part.want)
			}
		}
		checkSourceRoundTrip(t, tc.name, sys)
	}
}

// checkSourceRoundTrip checks that sys.Source parses to the script sys
// evaluated and that both give every assertion the same verdict.
func checkSourceRoundTrip(t *testing.T, name string, sys *System) {
	t.Helper()
	parsed, err := cspm.Parse(sys.Source)
	if err != nil {
		t.Fatalf("%s: Source does not parse: %v", name, err)
	}
	if !cspm.EqualScript(parsed, sys.Model.Script) {
		t.Fatalf("%s: Source parses to a different script than the one evaluated", name)
	}
	loaded, err := cspm.Evaluate(parsed)
	if err != nil {
		t.Fatalf("%s: parsed Source does not evaluate: %v", name, err)
	}
	want, err := fdr.RunAll(sys.Model, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := fdr.RunAll(loaded, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range want {
		if got[i].Result.Holds != want[i].Result.Holds {
			t.Errorf("%s: %s holds = %v from parsed Source, %v as built", name, want[i].Assert.Text, got[i].Result.Holds, want[i].Result.Holds)
		}
	}
}
