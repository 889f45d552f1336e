package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strings"
)

// The generators in this file are the benchmark's own, so a change to
// the program under test cannot change the workload; inputs_sha256 is
// the digest of everything they and the set-up produce.

// digest accumulates the SHA-256 of a workload's inputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

// add hashes each part with a length prefix, so part boundaries count.
func (d *digest) add(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%d:", len(p))
		io.WriteString(d.h, p)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pairSystem is a generated request/response system: an ECU that answers
// each of n requests with its response, and a VMG that starts with req0
// and answers rsp(i) with req(i+1 mod n). Message identifiers and handler
// order are drawn from the seed; pair k is the one the spec checks.
type pairSystem struct {
	k        int
	ecu, vmg string // CAPL
	msgs     []string
}

func genPairSystem(rng *rand.Rand, n int) pairSystem {
	ids := rng.Perm(0x600)[:2*n]
	var decl strings.Builder
	decl.WriteString("variables\n{\n")
	msgs := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&decl, "  message 0x%03X req%d;\n  message 0x%03X rsp%d;\n",
			0x100+ids[2*i], i, 0x100+ids[2*i+1], i)
		msgs = append(msgs, fmt.Sprintf("req%d", i), fmt.Sprintf("rsp%d", i))
	}
	decl.WriteString("}\n")
	var ecu, vmg strings.Builder
	ecu.WriteString(decl.String())
	for _, i := range rng.Perm(n) {
		fmt.Fprintf(&ecu, "\non message req%d\n{\n  output(rsp%d);\n}\n", i, i)
	}
	vmg.WriteString(decl.String())
	vmg.WriteString("\non start\n{\n  output(req0);\n}\n")
	for _, i := range rng.Perm(n) {
		fmt.Fprintf(&vmg, "\non message rsp%d\n{\n  output(req%d);\n}\n", i, (i+1)%n)
	}
	return pairSystem{k: rng.Intn(n), ecu: ecu.String(), vmg: vmg.String(), msgs: msgs}
}

// pairSpec composes SYSTEM and checks pair k on a view that hides every
// other pair, plus deadlock and divergence freedom: three assertions
// that hold by construction.
func pairSpec(n, k int) string {
	var hidden []string
	for i := 0; i < n; i++ {
		if i != k {
			hidden = append(hidden, fmt.Sprintf("send.req%d, rec.rsp%d", i, i))
		}
	}
	view := "SYSTEM"
	if len(hidden) > 0 {
		view = "SYSTEM \\ {" + strings.Join(hidden, ", ") + "}"
	}
	return fmt.Sprintf(`
SYSTEM = VMG [| {| send, rec |} |] ECU
SP = send.req%[1]d -> rec.rsp%[1]d -> SP
VIEW = %[2]s
assert SP [T= VIEW
assert SYSTEM :[deadlock free]
assert VIEW :[divergence free]
`, k, view)
}

// pairAsserts is the number of assertions pairSpec writes.
const pairAsserts = 3

// pairCSPm writes an n-pair system directly as a CSPm script, in the
// shape the translator extracts, with constructor and choice order
// drawn from the seed.
func pairCSPm(rng *rand.Rand, n int) string {
	ctors := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		ctors = append(ctors, fmt.Sprintf("req%d", i), fmt.Sprintf("rsp%d", i))
	}
	rng.Shuffle(len(ctors), func(i, j int) { ctors[i], ctors[j] = ctors[j], ctors[i] })
	var ecu, vmg []string
	for _, i := range rng.Perm(n) {
		ecu = append(ecu, fmt.Sprintf("send.req%d -> rec!rsp%d -> ECU", i, i))
	}
	for _, i := range rng.Perm(n) {
		vmg = append(vmg, fmt.Sprintf("rec.rsp%d -> send!req%d -> VMG_RUN", i, (i+1)%n))
	}
	return fmt.Sprintf("datatype Msgs = %s\nchannel send, rec : Msgs\nECU = %s\nVMG = send!req0 -> VMG_RUN\nVMG_RUN = %s\n%s",
		strings.Join(ctors, " | "), strings.Join(ecu, " [] "), strings.Join(vmg, " [] "), pairSpec(n, rng.Intn(n)))
}
