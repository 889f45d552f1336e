package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// jsonResult is the last line of a run.
type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the command in-process and splits its output into the
// metric lines (name → "value unit") and the JSON result.
func runBench(t *testing.T, args ...string) (int, map[string]string, jsonResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", args, err, &stdout, &stderr)
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if name, rest, ok := strings.Cut(l, " "); ok {
			printed[name] = rest
		}
	}
	return code, printed, res
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := readBenchSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []string{"0", "1"} {
				// -seconds 0 runs the minimum: minJobs jobs, a round at a time.
				code, printed, res := runBench(t, "-workload", w.name, "-seed", "3", "-seconds", "0", "-trace", traced)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < minJobs {
					t.Fatalf("trace %s: exit %d, result %+v", traced, code, res)
				}
				if printed["failed_ratio"] != "0 failed/attempted" {
					t.Errorf("trace %s: failed_ratio %q", traced, printed["failed_ratio"])
				}
				want := map[string]string{}
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced == "1" {
					want = map[string]string{}
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					if f := strings.Fields(printed[name]); len(f) != 2 || f[1] != unit {
						t.Errorf("trace %s: %s printed as %q, want a value in %s", traced, name, printed[name], unit)
					}
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("trace %s: JSON metric %s = %+v, want unit %s", traced, name, got, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %s: JSON has %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				if traced == "1" {
					checkShares(t, printed)
				}
			}
		})
	}
}

// checkShares: the layers' self times sum to at most the wall time. (The
// primed-cache search seeing no misses is checked on every traced
// assertion; a miss fails the job, which the test above already
// rejects.)
func checkShares(t *testing.T, printed map[string]string) {
	t.Helper()
	sum := 0.0
	for _, l := range layers {
		v, err := strconv.ParseFloat(strings.Fields(printed[l+".share"])[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum <= 0 || sum > 1 {
		t.Errorf("layer shares sum to %g, want (0, 1]", sum)
	}
}

func TestInputsDigest(t *testing.T) {
	for _, w := range workloads {
		digestOf := func(seed int64) string {
			p, err := w.setup(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.close()
			return p.digest
		}
		a, b, c := digestOf(7), digestOf(7), digestOf(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.name)
		}
	}
}

func TestWrongKnownAnswerFailsTheRun(t *testing.T) {
	saved := expected.Asserts["corpus-correct"]
	defer func() { expected.Asserts["corpus-correct"] = saved }()
	wrong := append([]string(nil), saved...)
	wrong[1] = "fails"
	expected.Asserts["corpus-correct"] = wrong

	code, printed, res := runBench(t, "-workload", "pipeline-small", "-seconds", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong known answer passed: exit %d, result %+v", code, res)
	}
	if printed["failed_ratio"] == "0 failed/attempted" {
		t.Error("failed_ratio is 0 although verdicts mismatched")
	}
}

func TestCompare(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	for i := 0; i < 4; i++ {
		var out bytes.Buffer
		if code := run([]string{"-workload", "pipeline-small", "-seed", strconv.Itoa(i), "-seconds", "0"}, &out, &bytes.Buffer{}); code != 0 {
			t.Fatalf("run %d exited %d", i, code)
		}
		if err := os.WriteFile(filepath.Join(dirs[i%2], strconv.Itoa(i)), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareDirs(&out, dirs[0], dirs[1]); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[0] == "pipeline-small" {
			verdicts[f[1]] = f[len(f)-1]
		}
	}
	for _, m := range readBenchSpec(t).EndToEnd {
		if v := verdicts[m.Name]; v != "ok" && v != "WORSE" && v != "unresolved" {
			t.Errorf("%s has verdict %q:\n%s", m.Name, v, &out)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pipeline-small", "-trace", "2"},
		{"-compare", "only-one-dir"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
			t.Errorf("%v exited 0", args)
		}
	}
}
