// Checkpoint/resume acceptance tests. The invariant under test: an
// exploration interrupted at an arbitrary point and resumed from its
// checkpoint produces a byte-identical LTS to an uninterrupted run.
package lts_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
)

// corpusRoots returns every assertion process term of the system.
func corpusRoots(sys *ota.System) []csp.Process {
	var roots []csp.Process
	for _, a := range sys.Model.Asserts {
		roots = append(roots, a.Impl)
		if a.Spec != nil {
			roots = append(roots, a.Spec)
		}
	}
	return roots
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cs := range otaCorpus(t) {
		sem := csp.NewSemantics(cs.sys.Model.Env, cs.sys.Model.Ctx)
		for ri, root := range corpusRoots(cs.sys) {
			ref, err := lts.Explore(sem, root, lts.Options{})
			if err != nil {
				t.Fatalf("%s root %d: reference explore: %v", cs.name, ri, err)
			}
			_, evals, err := lts.ExploreCancelAfter(sem, root, lts.Options{}, 0, nil)
			if err != nil {
				t.Fatalf("%s root %d: counting explore: %v", cs.name, ri, err)
			}
			// Interrupt at a randomized leaf evaluation, from the first
			// (immediately) to the second-last: a cut at the last one
			// often lands after the last stop probe and interrupts
			// nothing.
			cut := 1 + rng.Intn(max(evals-1, 1))
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			part, _, err := lts.ExploreCancelAfter(sem, root, lts.Options{
				Ctx:        ctx,
				Checkpoint: &lts.CheckpointOptions{Dir: dir},
			}, cut, cancel)
			cancel()
			if err == nil {
				// The cut landed after the last stop probe; the completed
				// result must already match.
				requireSameLTS(t, cs.name+"-completed", ref, part)
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s root %d: interrupted explore: %v", cs.name, ri, err)
			}

			_, statErr := os.Stat(filepath.Join(dir, "checkpoint.json"))
			o := obs.New()
			got, err := lts.Explore(sem, root, lts.Options{
				Checkpoint: &lts.CheckpointOptions{Dir: dir},
				Obs:        o,
			})
			if err != nil {
				t.Fatalf("%s root %d: resumed explore: %v", cs.name, ri, err)
			}
			requireSameLTS(t, cs.name, ref, got)
			resumes := o.Counter("lts.checkpoint.resumes").Value()
			if statErr == nil {
				// A very early cut may cancel before the first level
				// completes, legitimately leaving no checkpoint; whenever
				// one was written, the second run must use it.
				if resumes != 1 {
					t.Fatalf("%s root %d (cut %d): resumes = %d, want 1", cs.name, ri, cut, resumes)
				}
			}
		}
	}
}

// stopBefore is a context whose Err reports cancellation from its
// (k+1)th call on. Explore checks its context before every state
// expansion, so stopBefore interrupts it just before expanding state k.
type stopBefore struct {
	context.Context
	k, calls int
}

func (c *stopBefore) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// levelStarts returns the ID of the first state of every BFS level of l
// after the first: states are numbered in discovery order, so level i+1
// is the states first reached from level i.
func levelStarts(l *lts.LTS) []int {
	var starts []int
	for start, end := 0, 1; end < l.NumStates(); {
		next := end
		for s := start; s < end; s++ {
			for _, e := range l.Edges[s] {
				next = max(next, e.To+1)
			}
		}
		starts = append(starts, end)
		start, end = end, next
	}
	return starts
}

// TestCheckpointResumeGeneratedEveryLevel is the generated
// checkpoint→resume oracle. For each of 100 explorable cspgen systems at
// the differential oracle's bound, an exploration is interrupted at
// every level boundary, and resuming from its snapshot must give exactly
// the uninterrupted LTS, expanding only the levels left. Generated
// systems put hiding, renaming and sequential successors — composite
// nodes that are no state's term — in the persisted node table, which
// the OTA corpus barely does. The interruption is a context, not a
// leaf-evaluation cut (lts.ExploreCancelAfter): a level whose states'
// leaves were all evaluated earlier makes no leaf evaluation, so a cut
// cannot land on the boundary before it.
func TestCheckpointResumeGeneratedEveryLevel(t *testing.T) {
	const systems, bound = 100, 250
	explored, resumed := 0, 0
	seed := int64(0)
	for ; explored < systems; seed++ {
		sem, root := cspgen.Model(seed)
		full := obs.New()
		ref, err := lts.Explore(sem, root, lts.Options{MaxStates: bound, Obs: full})
		if err != nil {
			continue // over the bound, or a semantic error: nothing to resume
		}
		explored++
		levels := full.Counter("lts.explore.levels").Value()
		starts := levelStarts(ref)
		if int64(len(starts)) != levels-1 {
			t.Fatalf("seed %d: %d level boundaries, explore reports %d levels", seed, len(starts), levels)
		}
		for done, start := range starts {
			label := fmt.Sprintf("seed %d, interrupted after level %d of %d", seed, done+1, levels)
			dir := t.TempDir()
			_, err := lts.Explore(sem, root, lts.Options{
				MaxStates:  bound,
				Ctx:        &stopBefore{Context: context.Background(), k: start},
				Checkpoint: &lts.CheckpointOptions{Dir: dir},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: interrupted explore: %v", label, err)
			}
			o := obs.New()
			got, err := lts.Explore(sem, root, lts.Options{
				MaxStates: bound, Checkpoint: &lts.CheckpointOptions{Dir: dir}, Obs: o,
			})
			if err != nil {
				t.Fatalf("%s: resumed explore: %v", label, err)
			}
			requireSameLTS(t, label, ref, got)
			if r := o.Counter("lts.checkpoint.resumes").Value(); r != 1 {
				t.Fatalf("%s: resumes = %d, want 1", label, r)
			}
			if left := o.Counter("lts.explore.levels").Value(); left != levels-int64(done+1) {
				t.Fatalf("%s: resume expanded %d levels, want %d", label, left, levels-int64(done+1))
			}
			resumed++
		}
	}
	t.Logf("%d level boundaries resumed over %d systems (seeds 0-%d)", resumed, explored, seed-1)
}

// TestCheckpointResumesPreviousFormat resumes testdata/checkpoint.json,
// a version-3 snapshot written by the implementation that built its
// node table with a separate key-recording interner: cspgen seed 194
// at bound 250, interrupted after 4 of its 8 levels. It must resume to
// the uninterrupted LTS, pinning that the snapshot format and
// snapshotVersion are unchanged.
func TestCheckpointResumesPreviousFormat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sem, root := cspgen.Model(194)
	opts := lts.Options{MaxStates: 250}
	want, err := lts.Explore(sem, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	opts.Obs = o
	opts.Checkpoint = &lts.CheckpointOptions{Dir: dir}
	got, err := lts.Explore(sem, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLTS(t, "previous-format snapshot", want, got)
	if r := o.Counter("lts.checkpoint.resumes").Value(); r != 1 {
		t.Fatalf("resumes = %d, want 1", r)
	}
	// The snapshot stopped mid-exploration: the resume expands the rest.
	if levels := o.Counter("lts.explore.levels").Value(); levels != 4 {
		t.Fatalf("resume expanded %d levels, want the 4 left", levels)
	}
}

func TestCheckpointFinalSnapshotResumesInstantly(t *testing.T) {
	sys, err := ota.Build()
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	root := sys.Model.Asserts[0].Impl
	dir := t.TempDir()
	ref, err := lts.Explore(sem, root, lts.Options{Checkpoint: &lts.CheckpointOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	got, err := lts.Explore(sem, root, lts.Options{
		Checkpoint: &lts.CheckpointOptions{Dir: dir},
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameLTS(t, "final-snapshot", ref, got)
	if o.Counter("lts.checkpoint.resumes").Value() != 1 {
		t.Fatal("completed exploration was not resumed from its final snapshot")
	}
	// The resumed run had nothing to expand, so no fresh levels.
	if o.Counter("lts.explore.levels").Value() != 0 {
		t.Fatalf("resume from final snapshot expanded %d levels, want 0",
			o.Counter("lts.explore.levels").Value())
	}
}

func TestCheckpointIgnoresCorruptAndMismatched(t *testing.T) {
	sys, err := ota.Build()
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	roots := corpusRoots(sys)
	ref, err := lts.Explore(sem, roots[0], lts.Options{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte(`{"version":1,"rootKey":`), 0o644); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, roots[0], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameLTS(t, "corrupt-ignored", ref, got)
		if o.Counter("lts.checkpoint.ignored").Value() != 1 {
			t.Fatal("corrupt snapshot was not counted as ignored")
		}
	})

	t.Run("truncated-digest", func(t *testing.T) {
		// A structurally valid JSON document whose digest doesn't match
		// (simulating a torn write that still parses).
		dir := t.TempDir()
		if _, err := lts.Explore(sem, roots[0], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
		}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "checkpoint.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the document body.
		data[len(data)/2]++
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, roots[0], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameLTS(t, "digest-ignored", ref, got)
		if o.Counter("lts.checkpoint.ignored").Value() != 1 {
			t.Fatal("digest-mismatched snapshot was not counted as ignored")
		}
	})

	t.Run("old-version", func(t *testing.T) {
		// A well-formed document from a previous snapshot schema must be
		// ignored (version mismatch), never misread into a resume.
		dir := t.TempDir()
		v1 := `{"version":1,"rootKey":"X","maxStates":1048576,"levels":1,"elapsedNs":0,` +
			`"init":0,"keys":["X"],"events":[],"edges":[[]],"frontier":[],"frontierProcs":[],"digest":0}`
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte(v1), 0o644); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, roots[0], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameLTS(t, "v1-ignored", ref, got)
		if o.Counter("lts.checkpoint.ignored").Value() != 1 {
			t.Fatal("v1 snapshot was not counted as ignored")
		}
	})

	t.Run("v2-codec-document", func(t *testing.T) {
		// A version-2 snapshot held each state as a JSON term tree. Even
		// with a matching root and a valid digest it must be ignored.
		type v2 struct {
			Version   int               `json:"version"`
			RootKey   string            `json:"rootKey"`
			MaxStates int               `json:"maxStates"`
			Levels    int               `json:"levels"`
			ElapsedNs int64             `json:"elapsedNs"`
			Init      int               `json:"init"`
			Merged    int               `json:"merged"`
			Terms     []json.RawMessage `json:"terms"`
			Events    []json.RawMessage `json:"events"`
			Edges     [][]lts.Edge      `json:"edges"`
			Digest    uint64            `json:"digest"`
		}
		doc := v2{
			Version: 2, RootKey: "STOP", MaxStates: lts.DefaultMaxStates, Levels: 1,
			Terms: []json.RawMessage{json.RawMessage(`{"t":"stop"}`)}, Edges: [][]lts.Edge{{}}, Merged: 1,
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(body)
		doc.Digest = h.Sum64()
		if body, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, csp.Stop(), lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumStates() != 1 || o.Counter("lts.checkpoint.ignored").Value() != 1 ||
			o.Counter("lts.checkpoint.resumes").Value() != 0 {
			t.Fatal("v2 snapshot was not ignored")
		}
	})

	t.Run("same-key-different-root", func(t *testing.T) {
		// P(5) with a symbol argument and P(5) with an integer argument
		// render the same Key() but are different terms: a snapshot of
		// one must not resume the other.
		ctx := csp.NewContext()
		ctx.MustChannel("done", csp.IntRange{Lo: 0, Hi: 1})
		env := csp.NewEnv()
		env.MustDefine("P", []string{"x"},
			csp.Prefix("done", []csp.CommField{csp.Out(csp.LitInt(0))}, csp.Stop()))
		psem := csp.NewSemantics(env, ctx)
		sym := csp.Call("P", csp.Lit{Val: csp.Sym("5")})
		num := csp.Call("P", csp.Lit{Val: csp.Int(5)})
		if sym.Key() != num.Key() {
			t.Fatalf("roots render differently: %s vs %s", sym.Key(), num.Key())
		}
		dir := t.TempDir()
		if _, err := lts.Explore(psem, sym, lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
		}); err != nil {
			t.Fatal(err)
		}
		want, err := lts.Explore(psem, num, lts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(psem, num, lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameLTS(t, "same-key-root", want, got)
		if o.Counter("lts.checkpoint.resumes").Value() != 0 || o.Counter("lts.checkpoint.ignored").Value() != 1 {
			t.Fatal("snapshot of a same-Key() root with a different term was resumed")
		}
	})

	t.Run("different-root", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := lts.Explore(sem, roots[1], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
		}); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		got, err := lts.Explore(sem, roots[0], lts.Options{
			Checkpoint: &lts.CheckpointOptions{Dir: dir},
			Obs:        o,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameLTS(t, "other-root-ignored", ref, got)
		if o.Counter("lts.checkpoint.resumes").Value() != 0 {
			t.Fatal("snapshot of a different root was resumed")
		}
	})
}

func TestMemoryWatermarkReturnsStructuredError(t *testing.T) {
	sys, err := ota.Build()
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	root := corpusRoots(sys)[0]
	_, err = lts.Explore(sem, root, lts.Options{MaxMemBytes: 1})
	if !errors.Is(err, lts.ErrMemoryLimit) {
		t.Fatalf("explore under 1-byte watermark: %v, want ErrMemoryLimit", err)
	}
	var me *lts.MemoryError
	if !errors.As(err, &me) {
		t.Fatalf("error %T does not expose *MemoryError", err)
	}
	if me.Explored <= 0 || me.EstimatedBytes <= me.Limit-1 {
		t.Fatalf("MemoryError fields implausible: %+v", me)
	}
}

// TestMaxMemBytesSameWithCheckpointing pins that checkpointing holds no
// table of its own: snapshots persist the exploration's node table, so
// a checkpointing exploration trips the watermark at exactly the state
// count and estimate a plain one does.
func TestMaxMemBytesSameWithCheckpointing(t *testing.T) {
	sys, err := ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	root := csp.Call("SYSTEML")
	internBytes, err := lts.InternBytes(sem, root)
	if err != nil {
		t.Fatal(err)
	}
	limit := internBytes / 2
	_, err = lts.Explore(sem, root, lts.Options{MaxMemBytes: limit})
	var plain *lts.MemoryError
	if !errors.As(err, &plain) {
		t.Fatalf("explore under %d-byte watermark: %v, want *MemoryError", limit, err)
	}
	dir := t.TempDir()
	_, err = lts.Explore(sem, root, lts.Options{MaxMemBytes: limit, Checkpoint: &lts.CheckpointOptions{Dir: dir}})
	var ck *lts.MemoryError
	if !errors.As(err, &ck) {
		t.Fatalf("checkpointing explore under %d-byte watermark: %v, want *MemoryError", limit, err)
	}
	if *ck != *plain {
		t.Fatalf("checkpointing changed the watermark trip: %+v, plain %+v", *ck, *plain)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("no snapshot written before the trip: %v", err)
	}
}
