package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

//go:embed testdata/expected.json
var expectedJSON []byte

// answers are the known verdicts of testdata/expected.json.
type answers struct {
	Asserts     map[string][]string `json:"asserts"`
	Xval        map[string]string   `json:"xval"`
	Learn       map[string]string   `json:"learn"`
	Conformance map[string]string   `json:"conformance"`
}

// expected is read once at start-up; tests may alter it.
var expected = mustAnswers()

func mustAnswers() answers {
	var a answers
	if err := json.Unmarshal(expectedJSON, &a); err != nil {
		panic(fmt.Sprintf("testdata/expected.json: %v", err))
	}
	return a
}

// holdsAll is the known answer of a generated system: n assertions that
// hold by construction.
func holdsAll(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "holds"
	}
	return out
}

// matchVerdicts compares verdicts with the known answers: a bare "fails"
// accepts any counterexample.
func matchVerdicts(input string, want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d verdicts, want %d", input, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(want[i] == "fails" && strings.HasPrefix(got[i], "fails ")) {
			return fmt.Errorf("%s: assertion %d is %q, want %q", input, i+1, got[i], want[i])
		}
	}
	return nil
}

// wantAsserts looks up the known verdicts of a fixed input.
func wantAsserts(input string) ([]string, error) {
	want, ok := expected.Asserts[input]
	if !ok {
		return nil, fmt.Errorf("%s: no known answer", input)
	}
	return want, nil
}

// known looks an answer up, failing when there is none.
func known(table map[string]string, kind, key string) (string, error) {
	if a, ok := table[key]; ok {
		return a, nil
	}
	return "", fmt.Errorf("%s %s: no known answer", kind, key)
}
