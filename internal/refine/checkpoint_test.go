// Crash/resume acceptance at the checker level: a refinement check
// interrupted at a randomized point (simulating a kill mid-exploration)
// and re-run over the same checkpoint directory must produce a verdict
// byte-identical to an uninterrupted run, for every assertion of every
// OTA corpus system. This file is the external-package half of the
// refine tests so it can drive the real paper models (internal/ota
// imports refine, so the in-package tests cannot import it back).
package refine_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/fdr"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
)

// tripCtx is a context that reports cancellation after its Err method
// has been polled n times — a deterministic stand-in for a process
// killed at an arbitrary point, since the exploration and product loops
// poll Err per state.
type tripCtx struct {
	context.Context
	remaining atomic.Int64
}

func newTripCtx(n int) *tripCtx {
	c := &tripCtx{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

func (c *tripCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCheckpointResumeVerdictByteIdentical(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*ota.System, error)
	}{
		{"ota", ota.Build},
		{"flawed", ota.BuildFlawed},
		{"deadlocked", ota.BuildDeadlocked},
		{"lossy-hardened", func() (*ota.System, error) {
			return ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
		}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, b := range builds {
		sys, err := b.build()
		if err != nil {
			t.Fatalf("build %s: %v", b.name, err)
		}
		for ai, a := range sys.Model.Asserts {
			ref, refErr := fdr.RunAssertBudget(sys.Model, a, fdr.Budget{})
			if refErr != nil {
				t.Fatalf("%s assert %d: reference run: %v", b.name, ai, refErr)
			}
			dir := t.TempDir()
			// Interrupt the check up to twice at randomized poll counts,
			// each re-run resuming whatever the previous one managed to
			// checkpoint — the multi-crash schedule a flaky host produces.
			for attempt := 0; attempt < 2; attempt++ {
				trips := 1 + rng.Intn(400)
				_, err := fdr.RunAssertBudget(sys.Model, a, fdr.Budget{
					Ctx:           newTripCtx(trips),
					CheckpointDir: dir,
				})
				if err == nil {
					break // finished before the trip fired
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s assert %d: interrupted run: %v", b.name, ai, err)
				}
			}
			hasSnapshot := false
			for _, role := range []string{"spec", "impl"} {
				if _, err := os.Stat(filepath.Join(dir, role, "checkpoint.json")); err == nil {
					hasSnapshot = true
				}
			}
			o := obs.New()
			got, err := fdr.RunAssertBudget(sys.Model, a, fdr.Budget{
				CheckpointDir: dir,
				Obs:           o,
			})
			if err != nil {
				t.Fatalf("%s assert %d: resumed run: %v", b.name, ai, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s assert %d (%s): resumed verdict differs:\nref: %+v\ngot: %+v",
					b.name, ai, a.Text, ref, got)
			}
			if hasSnapshot && o.Counter("lts.checkpoint.resumes").Value() == 0 {
				t.Fatalf("%s assert %d: snapshot on disk but the re-run never resumed from it",
					b.name, ai)
			}
		}
	}
}

// TestCheckpointWithMemoryWatermark runs a full check with both a hard
// memory watermark and checkpointing active — the configuration a
// memory-bounded server job runs under — and requires the reference
// verdict: the watermark, which also charges the checkpointer's node
// table, must not trip on a model that fits.
func TestCheckpointWithMemoryWatermark(t *testing.T) {
	sys, err := ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
	if err != nil {
		t.Fatal(err)
	}
	for ai, a := range sys.Model.Asserts {
		ref, err := fdr.RunAssertBudget(sys.Model, a, fdr.Budget{})
		if err != nil {
			t.Fatalf("assert %d: reference: %v", ai, err)
		}
		o := obs.New()
		got, err := fdr.RunAssertBudget(sys.Model, a, fdr.Budget{
			CheckpointDir: t.TempDir(),
			MaxMemBytes:   64 << 20,
			Obs:           o,
		})
		if err != nil {
			t.Fatalf("assert %d: checkpointed run: %v", ai, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("assert %d (%s): checkpointed verdict differs:\nref: %+v\ngot: %+v", ai, a.Text, ref, got)
		}
		if o.Counter("lts.checkpoint.writes").Value() == 0 {
			t.Fatalf("assert %d: no checkpoint written", ai)
		}
	}
}

// TestMemoryBudgetIsTypedVerdict pins the memory-pressure degradation
// path: a hard watermark yields a structured BudgetError with phase
// "memory", never a crash.
func TestMemoryBudgetIsTypedVerdict(t *testing.T) {
	sys, err := ota.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = fdr.RunAssertBudget(sys.Model, sys.Model.Asserts[0], fdr.Budget{MaxMemBytes: 1})
	if err == nil {
		t.Fatal("check under a 1-byte watermark succeeded")
	}
	var be *refine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *refine.BudgetError", err)
	}
	if be.Phase != "memory" {
		t.Fatalf("budget phase = %q, want memory", be.Phase)
	}
	if be.Explored <= 0 {
		t.Fatalf("memory budget error lost the partial exploration size: %+v", be)
	}
}
