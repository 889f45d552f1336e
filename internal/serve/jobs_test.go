package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func postJob(t *testing.T, base string, req CheckRequest) (int, *JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return resp.StatusCode, &st
}

func getJob(t *testing.T, base, id string) (int, *JobStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return resp.StatusCode, &st
}

// waitJobDone polls until the job reports done or the deadline passes.
func waitJobDone(t *testing.T, base, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, st := getJob(t, base, id)
		if code == http.StatusOK && st.State == JobDone {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never completed within %v", id, timeout)
	return nil
}

// TestJobsMatchSyncVerdicts submits the same model both synchronously
// and as a job; the verdicts must agree, and resubmission must dedup to
// the same job instead of re-running it.
func TestJobsMatchSyncVerdicts(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	req := CheckRequest{CSPM: tinyModel}

	_, syncResp := postCheck(t, context.Background(), ts.URL, req, nil)
	if syncResp.Error != "" {
		t.Fatalf("sync check error: %s", syncResp.Error)
	}

	code, st := postJob(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.State != JobPending {
		t.Fatalf("submit status = %+v", st)
	}
	done := waitJobDone(t, ts.URL, st.ID, 10*time.Second)
	if done.Response == nil {
		t.Fatal("done job carries no response")
	}
	if !reflect.DeepEqual(done.Response.Results, syncResp.Results) {
		t.Fatalf("job verdicts differ from sync check:\njob:  %+v\nsync: %+v",
			done.Response.Results, syncResp.Results)
	}

	// Resubmission of the identical request is idempotent: 200, same id,
	// already done.
	code, again := postJob(t, ts.URL, req)
	if code != http.StatusOK || again.ID != st.ID || again.State != JobDone {
		t.Fatalf("resubmit = %d %+v, want 200 done %s", code, again, st.ID)
	}

	if _, bad := getJob(t, ts.URL, "no-such-job"); bad.State == JobDone {
		t.Fatal("unknown job reported done")
	}
}

// TestJobsSurviveKill is the in-process half of the crash acceptance
// criterion: a server killed mid-job leaves the job pending on disk,
// and a new server over the same DataDir resumes and finishes it with
// verdicts identical to an undisturbed baseline — including the job
// that was still queued and the one already done.
func TestJobsSurviveKill(t *testing.T) {
	leakcheck.Check(t)
	dataDir := t.TempDir()
	cfg := Config{
		Workers:               1,
		DataDir:               dataDir,
		CheckpointEveryLevels: 1,
	}

	// Baseline verdicts from a plain sync server.
	_, baseTS := newTestServer(t, Config{Workers: 1})
	reqs := []CheckRequest{
		{CSPM: tinyModel},
		{CSPM: heavySource(7001, 10)},
		{CSPM: heavySource(7002, 10)},
	}
	want := make([]*CheckResponse, len(reqs))
	for i, r := range reqs {
		_, want[i] = postCheck(t, context.Background(), baseTS.URL, r, nil)
		if want[i].Error != "" {
			t.Fatalf("baseline %d: %s", i, want[i].Error)
		}
	}

	// First life: submit everything, let the first job land, then kill
	// the server with the heavy jobs in flight or queued.
	srv1, ts1 := newTestServer(t, cfg)
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		code, st := postJob(t, ts1.URL, r)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids[i] = st.ID
	}
	waitJobDone(t, ts1.URL, ids[0], 10*time.Second)
	srv1.Kill()
	ts1.Close()
	_ = srv1

	// Second life over the same DataDir: recovery must re-enqueue the
	// unfinished jobs and every verdict must match the baseline.
	_, ts2 := newTestServer(t, cfg)
	for i, id := range ids {
		st := waitJobDone(t, ts2.URL, id, 30*time.Second)
		if st.Response == nil {
			t.Fatalf("job %d: done without response", i)
		}
		if !reflect.DeepEqual(st.Response.Results, want[i].Results) {
			t.Fatalf("job %d: post-crash verdicts differ:\ngot:  %+v\nwant: %+v",
				i, st.Response.Results, want[i].Results)
		}
	}
}

// TestJobsCheckpointAndMemoryWatermarks runs a durable job, whose
// explorations checkpoint, under a roomy hard watermark (verdict must
// not change) and a sync check under a 1-byte hard watermark (must
// degrade to a structured budget:memory verdict).
func TestJobsCheckpointAndMemoryWatermarks(t *testing.T) {
	leakcheck.Check(t)

	_, plainTS := newTestServer(t, Config{Workers: 1})
	req := CheckRequest{CSPM: tinyModel}
	_, want := postCheck(t, context.Background(), plainTS.URL, req, nil)

	_, durableTS := newTestServer(t, Config{
		Workers:     1,
		DataDir:     t.TempDir(),
		MaxMemBytes: 64 << 20,
	})
	code, st := postJob(t, durableTS.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	done := waitJobDone(t, durableTS.URL, st.ID, 10*time.Second)
	if !reflect.DeepEqual(done.Response.Results, want.Results) {
		t.Fatalf("checkpointed job verdicts differ:\ngot:  %+v\nwant: %+v",
			done.Response.Results, want.Results)
	}

	_, hardTS := newTestServer(t, Config{Workers: 1, MaxMemBytes: 1})
	status, resp := postCheck(t, context.Background(), hardTS.URL, req, nil)
	if status != http.StatusOK {
		t.Fatalf("hard-watermark check = %d, want 200 with typed verdicts", status)
	}
	for _, v := range resp.Results {
		if v.ErrorKind != "budget:memory" {
			t.Fatalf("verdict %+v: ErrorKind = %q, want budget:memory", v, v.ErrorKind)
		}
	}
}

// TestResumeCarriesDeadline pins the one wall-clock rule: a run that
// outlives its request deadline reads "canceled", and a re-run over its
// checkpoints counts the time they already spent against its own
// deadline, so it stops with "budget:explore-deadline" that much before
// the request would time out.
func TestResumeCarriesDeadline(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := newTestServer(t, Config{Workers: 1, MaxDuration: 2 * time.Second})
	src := heavySource(7100, 20) // ~1M states: far past either budget
	ckpt := t.TempDir()
	for i, run := range []struct {
		budget *BudgetSpec
		want   string
	}{
		{&BudgetSpec{MaxDurationMs: 200}, "canceled"},
		{nil, "budget:explore-deadline"},
	} {
		resp, status := srv.runCheck(context.Background(), &CheckRequest{CSPM: src, Budget: run.budget}, false, ckpt)
		if status != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("run %d: status %d, %+v", i, status, resp)
		}
		if v := resp.Results[0]; v.ErrorKind != run.want {
			t.Fatalf("run %d: ErrorKind = %q (%s), want %q", i, v.ErrorKind, v.Error, run.want)
		}
	}
}
