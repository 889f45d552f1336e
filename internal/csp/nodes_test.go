package csp_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/ota"
)

var update = flag.Bool("update", false, "rewrite testdata/exercise_all.nodes from the current encoding")

// exerciseAll builds a term covering every Process, Expr and Value kind
// a node table must round-trip (checkpoint frontiers can contain any of
// them).
func exerciseAll() csp.Process {
	sync := csp.NewEventSet().
		AddChannel("net").
		AddEvent(csp.Event{Chan: "upd", Args: []csp.Value{csp.Sym("fw"), csp.Int(2)}})
	hide := csp.NewEventSet().AddChannel("internal")

	knowledge := csp.Lit{Val: csp.NewSet(csp.Sym("k1"), csp.Dotted{Head: "mac", Args: []csp.Value{csp.Sym("k1"), csp.Int(7)}})}
	cond := csp.Binary{
		Op: csp.OpAnd,
		L:  csp.MemberExpr{Elem: csp.Var{Name: "x"}, Set: knowledge},
		R:  csp.Unary{Op: csp.OpNot, X: csp.LitBool(false)},
	}
	inner := csp.PrefixProc{
		Chan: "net",
		Fields: []csp.CommField{
			csp.In("x"),
			csp.InSuchThat("y", csp.Binary{Op: csp.OpLt, L: csp.Var{Name: "y"}, R: csp.LitInt(3)}),
			csp.Out(csp.DotExpr{Head: "msg", Args: []csp.Expr{csp.Var{Name: "x"}, csp.LitInt(1)}}),
			csp.OutVal(csp.Bool(true)),
		},
		Cont: csp.CallProc{
			Name: "P",
			Args: []csp.Expr{
				csp.Binary{Op: csp.OpAdd, L: csp.Var{Name: "x"}, R: csp.Unary{Op: csp.OpNeg, X: csp.LitInt(4)}},
				csp.SetAddExpr{Base: knowledge, Elem: csp.Var{Name: "x"}},
			},
		},
	}
	return csp.HideProc{
		P: csp.ParProc{
			L: csp.RenameProc{
				P:       csp.SeqProc{L: inner, R: csp.SkipProc{}},
				Mapping: map[string]string{"net": "wire", "upd": "flash"},
			},
			R: csp.ExtChoiceProc{
				L: csp.IntChoiceProc{
					L: csp.IfProc{Cond: cond, Then: csp.StopProc{}, Else: csp.OmegaProc{}},
					R: csp.SkipProc{},
				},
				R: csp.StopProc{},
			},
			Sync: sync,
		},
		Set: hide,
	}
}

// decode decodes keys, failing the test on error, and checks that the
// decoded table re-interns to exactly the same keys.
func decode(t testing.TB, keys [][]byte) *csp.Nodes {
	t.Helper()
	nodes, err := csp.DecodeNodes(keys)
	if err != nil {
		t.Fatalf("DecodeNodes: %v", err)
	}
	requireSameKeys(t, keys, csp.ReinternKeys(nodes))
	return nodes
}

func requireSameKeys(t testing.TB, want, got [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("re-interned table has %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("node %d re-interned to %x, want %x", i, got[i], want[i])
		}
	}
}

// roundTrip interns p into a node table, decodes it, and requires the
// decoded term to intern to p's own ID in a fresh interner over the same
// table — interned identity, which (unlike Key) tells Sym("5") from
// Int(5).
func roundTrip(t *testing.T, ps ...csp.Process) {
	t.Helper()
	in := csp.NewInterner()
	ids := make([]csp.TermID, len(ps))
	for i, p := range ps {
		ids[i] = in.Process(p)
	}
	nodes := decode(t, in.Keys())
	for i, id := range ids {
		got, ok := nodes.Process(id)
		if !ok {
			t.Fatalf("node %d of %s is not a process", id, ps[i].Key())
		}
		if again := in.Process(got); again != id {
			t.Fatalf("decoded %s interns to %d, want %d", got.Key(), again, id)
		}
	}
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	roundTrip(t, exerciseAll())
	// Terms that Key() cannot tell apart keep their own identity.
	roundTrip(t,
		csp.Prefix("c", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop()),
		csp.Prefix("c", []csp.CommField{csp.OutVal(csp.Int(5))}, csp.Stop()),
		csp.ParProc{L: csp.Stop(), R: csp.Skip()}, // nil sync set
	)
}

func TestCodecRoundTripEvents(t *testing.T) {
	events := []csp.Event{
		{Chan: "a"},
		{Chan: "upd", Args: []csp.Value{csp.Sym("fw"), csp.Int(-3), csp.Bool(true)}},
		{Chan: "k", Args: []csp.Value{csp.Dotted{Head: "mac", Args: []csp.Value{csp.Sym("k1"), csp.Int(0)}}}},
		{Chan: "s", Args: []csp.Value{csp.NewSet(csp.Int(2), csp.Int(1), csp.Int(2))}},
		{Chan: "n", Args: []csp.Value{csp.Int(-1 << 62), csp.Int(1<<62 + 1)}},
		{Chan: "p", Args: []csp.Value{csp.Sym("5")}},
		{Chan: "p", Args: []csp.Value{csp.Int(5)}},
		csp.Tau(),
		csp.Tick(),
	}
	in := csp.NewInterner()
	ids := make([]csp.TermID, len(events))
	for i, e := range events {
		ids[i] = in.Event(e)
	}
	nodes := decode(t, in.Keys())
	for i, id := range ids {
		got, ok := nodes.Event(id)
		if !ok {
			t.Fatalf("node %d of %s is not an event", id, events[i].String())
		}
		if again := in.Event(got); again != id {
			t.Fatalf("decoded event %s interns to %d, want %d", got.String(), again, id)
		}
	}
	if _, ok := nodes.Process(ids[0]); ok {
		t.Error("an event node decoded as a process")
	}
}

// TestNodeTableGolden pins the node-table bytes of exerciseAll. The table
// is what checkpoints persist: if this fails because an itag or a
// payload changed, bump lts.snapshotVersion, then regenerate with
// go test ./internal/csp -run TestNodeTableGolden -update.
func TestNodeTableGolden(t *testing.T) {
	keys := csp.NewInterner()
	keys.Process(exerciseAll())
	var sb strings.Builder
	for _, k := range keys.Keys() {
		sb.WriteString(hex.EncodeToString(k))
		sb.WriteByte('\n')
	}
	path := filepath.Join("testdata", "exercise_all.nodes")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("node encoding changed; bump lts.snapshotVersion and rerun with -update.\ngot:\n%swant:\n%s", sb.String(), want)
	}
}

// TestInternerResetMatchesFresh pins that a reset interner assigns
// exactly the keys a fresh one does.
func TestInternerResetMatchesFresh(t *testing.T) {
	fresh := csp.NewInterner()
	fresh.Process(exerciseAll())
	reused := csp.NewInterner()
	reused.Process(csp.Call("OTHER", csp.LitInt(7)))
	reused.Reset()
	reused.Process(exerciseAll())
	if !reflect.DeepEqual(fresh.Keys(), reused.Keys()) || fresh.Bytes() != reused.Bytes() || fresh.Len() != reused.Len() {
		t.Fatalf("reset interner diverges from a fresh one: %d vs %d keys, %d vs %d bytes",
			reused.Len(), fresh.Len(), reused.Bytes(), fresh.Bytes())
	}
}

// TestKeyTableBytesCountsRecordedKeys pins that the interner's size
// estimate covers its node table: every key's bytes, once, plus its
// index entry and its slot in the table.
func TestKeyTableBytesCountsRecordedKeys(t *testing.T) {
	in := csp.NewInterner()
	in.Process(exerciseAll())
	if len(in.Keys()) != in.Len() {
		t.Fatalf("node table has %d keys for %d nodes", len(in.Keys()), in.Len())
	}
	var total int64
	for _, k := range in.Keys() {
		total += int64(len(k))
	}
	if got, min := in.Bytes(), total+int64(in.Len())*(48+24); got < min {
		t.Fatalf("Bytes() = %d, want at least %d (keys %d + %d index entries and table slots)",
			got, min, total, in.Len())
	}
}

// TestCodecOverOTACorpus walks reachable states of the paper's systems,
// decodes their node table and checks every decoded state: it is the
// same interned node, and its transitions lead, under the same events,
// to the same interned successors — exactly what a resumed exploration
// relies on.
func TestCodecOverOTACorpus(t *testing.T) {
	builds := map[string]func() (*ota.System, error){
		"ota":        ota.Build,
		"ota-flawed": ota.BuildFlawed,
		"ota-lossy-hardened": func() (*ota.System, error) {
			return ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
		},
	}
	const maxStates = 400
	for name, build := range builds {
		sys, err := build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
		in := csp.NewInterner()
		var states []csp.Process
		var ids []csp.TermID
		recorded := map[csp.TermID]bool{}
		var roots []csp.Process
		for _, a := range sys.Model.Asserts {
			roots = append(roots, a.Impl)
			if a.Spec != nil {
				roots = append(roots, a.Spec)
			}
		}
		// Every root gets its own walk of up to maxStates states, so a
		// large first root cannot crowd out the ones after it.
		for _, root := range roots {
			frontier := []csp.Process{root}
			seen := map[csp.TermID]bool{}
			for len(frontier) > 0 && len(seen) < maxStates {
				p := frontier[0]
				frontier = frontier[1:]
				id := in.Process(p)
				if seen[id] {
					continue
				}
				seen[id] = true
				if !recorded[id] {
					recorded[id] = true
					states, ids = append(states, p), append(ids, id)
				}
				trs, err := sem.Transitions(p)
				if err != nil {
					t.Fatalf("%s: transitions(%s): %v", name, p.Key(), err)
				}
				for _, tr := range trs {
					frontier = append(frontier, tr.To)
				}
			}
		}
		nodes := decode(t, in.Keys())
		for i, id := range ids {
			got, ok := nodes.Process(id)
			if !ok || in.Process(got) != id {
				t.Fatalf("%s: state %s did not decode to its own node", name, states[i].Key())
			}
			want, err := sem.Transitions(states[i])
			if err != nil {
				t.Fatal(err)
			}
			have, err := sem.Transitions(got)
			if err != nil {
				t.Fatalf("%s: transitions(decoded %s): %v", name, got.Key(), err)
			}
			if len(want) != len(have) {
				t.Fatalf("%s: decoded term has %d transitions, want %d (%s)",
					name, len(have), len(want), got.Key())
			}
			for j := range want {
				if in.Event(want[j].Ev) != in.Event(have[j].Ev) ||
					in.Process(want[j].To) != in.Process(have[j].To) {
					t.Fatalf("%s: transition %d of %s differs after decoding", name, j, got.Key())
				}
			}
		}
	}
}

// joinKeys and splitKeys frame a node table as one byte string (each key
// uvarint-length-prefixed), the fuzzer's input shape.
func joinKeys(keys [][]byte) []byte {
	var out []byte
	for _, k := range keys {
		out = binary.AppendUvarint(out, uint64(len(k)))
		out = append(out, k...)
	}
	return out
}

func splitKeys(data []byte) ([][]byte, bool) {
	var keys [][]byte
	for len(data) > 0 {
		n, w := binary.Uvarint(data)
		if w <= 0 || n > uint64(len(data)-w) {
			return nil, false
		}
		keys = append(keys, data[w:w+int(n)])
		data = data[w+int(n):]
	}
	return keys, true
}

// otaSnapshotNodes explores the OTA system's first assertion with
// checkpointing on and returns the node table of its final snapshot.
func otaSnapshotNodes(f *testing.F) [][]byte {
	sys, err := ota.Build()
	if err != nil {
		f.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	dir := f.TempDir()
	if _, err := lts.Explore(sem, sys.Model.Asserts[0].Impl, lts.Options{
		Checkpoint: &lts.CheckpointOptions{Dir: dir},
	}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		f.Fatal(err)
	}
	var snap struct {
		Nodes [][]byte `json:"nodes"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		f.Fatal(err)
	}
	if len(snap.Nodes) == 0 {
		f.Fatal("snapshot has an empty node table")
	}
	return snap.Nodes
}

// FuzzDecodeNodes feeds arbitrary tables to the decoder. It must never
// panic, its allocations must stay proportional to the input rather
// than to any count or length the input claims, and every table it
// accepts must re-intern to the same keys.
func FuzzDecodeNodes(f *testing.F) {
	keys := csp.NewInterner()
	keys.Process(exerciseAll())
	f.Add(joinKeys(keys.Keys()))
	f.Add(joinKeys(otaSnapshotNodes(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, ok := splitKeys(data)
		if !ok {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nodes, err := csp.DecodeNodes(keys)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4096+1024*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		requireSameKeys(t, keys, csp.ReinternKeys(nodes))
	})
}
