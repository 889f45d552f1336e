package campaign

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

var workerCounts = []int{0, 1, 2, 8}

// TestMapIsolatesPanicsPerItem pins per-item panic isolation: when
// every item panics, every slot holds its own onPanic result in input
// order at any worker count. A pool that recovers per goroutine loses
// the worker with its first panic and leaves the unclaimed slots at the
// zero result; one that recovers nowhere on the inline path crashes.
func TestMapIsolatesPanicsPerItem(t *testing.T) {
	items := make([]int, 20)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range workerCounts {
		got := Map(items, workers, nil, "",
			func(i, item int) string { panic(fmt.Sprintf("item %d", item)) },
			func(i, item int, r any) string { return fmt.Sprintf("%d:%v", i, r) })
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(items))
		}
		for i, item := range items {
			if want := fmt.Sprintf("%d:item %d", i, item); got[i] != want {
				t.Errorf("workers=%d slot %d = %q, want %q", workers, i, got[i], want)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	for _, workers := range workerCounts {
		fn := func(i int, s string) string { return strings.ToUpper(s) }
		if got := Map(nil, workers, nil, "", fn, nil); len(got) != 0 {
			t.Errorf("workers=%d: empty input gave %v", workers, got)
		}
		if got := Map([]string{"a"}, workers, nil, "", fn, nil); len(got) != 1 || got[0] != "A" {
			t.Errorf("workers=%d: single input gave %v", workers, got)
		}
	}
}

func TestMapMoreWorkersThanItems(t *testing.T) {
	items := []int{5, 6, 7}
	calls := make([]atomic.Int64, len(items))
	got := Map(items, 16, nil, "",
		func(i, item int) int { calls[i].Add(1); return item * item }, nil)
	for i, item := range items {
		if got[i] != item*item {
			t.Errorf("slot %d = %d, want %d", i, got[i], item*item)
		}
		if n := calls[i].Load(); n != 1 {
			t.Errorf("item %d ran %d times, want once", i, n)
		}
	}
}

// TestMapReraisesOnPanicFailure: a panic Map cannot turn into a result
// reaches the caller at any worker count.
func TestMapReraisesOnPanicFailure(t *testing.T) {
	for _, workers := range workerCounts {
		func() {
			defer func() {
				if r := recover(); r != "onPanic failed" {
					t.Errorf("workers=%d: recovered %v, want the onPanic panic", workers, r)
				}
			}()
			Map([]int{1, 2, 3}, workers, nil, "",
				func(i, item int) int { panic("item") },
				func(i, item int, r any) int { panic("onPanic failed") })
		}()
	}
}

// TestMapTicksProgress: every finished item ticks once, so the closing
// heartbeat reports exactly len(items) done with the item total under
// the caller's attribute.
func TestMapTicksProgress(t *testing.T) {
	const n = 6
	items := make([]int, n)
	for _, workers := range workerCounts {
		var mu sync.Mutex
		var events []obs.ProgressEvent
		o := obs.New(obs.WithProgress(func(ev obs.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}, time.Nanosecond))
		Map(items, workers, o.Progress("test.run"), "things",
			func(i, item int) int { time.Sleep(time.Microsecond); return item }, nil)

		if len(events) == 0 {
			t.Fatalf("workers=%d: no heartbeats", workers)
		}
		if last := events[len(events)-1]; last.Name != "test.run" || last.Done != n {
			t.Errorf("workers=%d: closing heartbeat %s done=%d, want test.run done=%d",
				workers, last.Name, last.Done, n)
		}
		ticks := events[:len(events)-1]
		for _, ev := range ticks {
			if len(ev.Attrs) != 1 || ev.Attrs[0] != obs.Int("things", n) {
				t.Errorf("workers=%d: tick attrs %v, want things=%d", workers, ev.Attrs, n)
			}
		}
		if workers == 1 {
			// Inline ticks are spaced by the item's sleep, so none is
			// rate-limited away.
			for i, ev := range ticks {
				if ev.Done != int64(i+1) {
					t.Fatalf("tick %d reports done=%d; want %d ticks counting 1..%d", i, ev.Done, n, n)
				}
			}
			if len(ticks) != n {
				t.Errorf("%d ticks, want %d", len(ticks), n)
			}
		}
	}
}

// TestShrinkCandidateOrder pins the candidate order the soak's shrunk
// reproduction and the learncheck witness depend on: drop index 0, 1,
// ...; restart from index 0 after every accepted candidate; stop at a
// fixed point.
func TestShrinkCandidateOrder(t *testing.T) {
	cases := []struct {
		in, need string
		tried    []string
		want     string
	}{
		{in: "abcd", need: "bd", tried: []string{"bcd", "cd", "bd", "d", "b"}, want: "bd"},
		{in: "xyz", need: "xyz", tried: []string{"yz", "xz", "xy"}, want: "xyz"},
		{in: "aab", need: "", tried: []string{"ab", "b", ""}, want: ""},
		{in: "", need: "", tried: nil, want: ""},
	}
	for _, tc := range cases {
		var tried [][]string
		got, err := Shrink(strings.Split(tc.in, ""), func(c []string) (bool, error) {
			tried = append(tried, c) // retained: candidates must not alias
			for _, r := range tc.need {
				if !strings.Contains(strings.Join(c, ""), string(r)) {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var triedStr []string
		for _, c := range tried {
			triedStr = append(triedStr, strings.Join(c, ""))
		}
		if strings.Join(triedStr, ",") != strings.Join(tc.tried, ",") || len(triedStr) != len(tc.tried) {
			t.Errorf("Shrink(%q) tried %q, want %q", tc.in, triedStr, tc.tried)
		}
		if strings.Join(got, "") != tc.want {
			t.Errorf("Shrink(%q) = %q, want %q", tc.in, strings.Join(got, ""), tc.want)
		}
	}
}

func TestShrinkStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	got, err := Shrink([]int{1, 2, 3}, func([]int) (bool, error) {
		calls++
		if calls == 2 {
			return false, boom
		}
		return false, nil
	})
	if !errors.Is(err, boom) || got != nil || calls != 2 {
		t.Fatalf("Shrink = %v, %v after %d calls; want nil, boom after 2", got, err, calls)
	}
}

func TestFlags(t *testing.T) {
	parse := func(args ...string) Flags {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var f Flags
		f.AddFlags(fs, "items")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}
	if f := parse(); f != (Flags{Seed: 42, Workers: 0, Format: "text"}) || f.Validate() != nil {
		t.Errorf("defaults = %+v (validate %v)", f, f.Validate())
	}
	if err := parse("-format", "xml").Validate(); err == nil || err.Error() != `unknown format "xml" (want text or json)` {
		t.Errorf("bad format: %v", err)
	}
	if err := parse("-workers", "-1").Validate(); err == nil || err.Error() != "workers must be >= 0, got -1" {
		t.Errorf("bad workers: %v", err)
	}
	for format, want := range map[string]string{"text": "T", "json": "{}\n"} {
		var b bytes.Buffer
		if err := parse("-format", format).Write(&b, "T", []byte("{}\n")); err != nil || b.String() != want {
			t.Errorf("Write(%s) = %q, %v; want %q", format, b.String(), err, want)
		}
	}
}
