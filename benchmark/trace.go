package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// layers are the pipeline layers the traced run splits a workload into,
// in pipeline order. Each is timed by a wrapper around one call into the
// layer's public API (layers.go); nothing inside the library is
// instrumented.
var layers = []string{
	"capl.parse", "caplint.analyze", "translate", "cspm.load",
	"lts.explore", "lts.normalize", "refine.search", "refine.trace",
	"canoe.run", "candb.project", "conformance.schedule",
	"learn.learn", "learn.membership", "serve.request",
}

// span is one timed call into a layer. Spans of one job share Job;
// Parent is the index of the enclosing span among the run's spans (-1
// for none). Self is the duration minus the durations of the spans
// nested inside it.
type span struct {
	Job    int              `json:"job"`
	Parent int              `json:"parent"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	Dur    int64            `json:"dur_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// kv is one named count attached to a span.
type kv struct {
	name string
	n    int64
}

// tracer collects the spans of one load goroutine. A disabled tracer
// records nothing and costs a branch per call.
type tracer struct {
	on    bool
	base  time.Time
	job   int
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

func newTracer(on bool, base time.Time) *tracer { return &tracer{on: on, base: base} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(layer string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Job: t.job, Parent: parent, Layer: layer, Start: int64(time.Since(t.base))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int, counts ...kv) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.Dur = int64(time.Since(t.base)) - s.Start
	s.Self = s.Dur - s.Self // Self held the children's total until now
	if len(counts) > 0 {
		s.Counts = make(map[string]int64, len(counts))
		for _, c := range counts {
			s.Counts[c.name] += c.n
		}
	}
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].Self += s.Dur
	}
}

// merge appends the spans of several tracers, renumbering parents.
func merge(tracers []*tracer) []span {
	var out []span
	for _, t := range tracers {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// heapAllocs reads the cumulative count of heap allocations.
func heapAllocs() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums the spans of one layer.
type layerTotals struct {
	calls  int64
	self   time.Duration
	counts map[string]int64
}

func sumLayers(spans []span) map[string]*layerTotals {
	out := make(map[string]*layerTotals, len(layers))
	for _, l := range layers {
		out[l] = &layerTotals{counts: map[string]int64{}}
	}
	for _, s := range spans {
		t := out[s.Layer]
		t.calls++
		t.self += time.Duration(s.Self)
		for k, v := range s.Counts {
			t.counts[k] += v
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics derives the per-layer metrics from the spans. busy is
// the measured wall time summed over load goroutines, the denominator of
// every share. serve carries the serve-mixed numbers read from outside
// the spans (zero on the other workloads). The first list is what the
// JSON result carries; the second holds the time-valued numbers, which
// are printed only.
func perLayerMetrics(spans []span, busy time.Duration, serve serveLayer) (reported, printed []metric) {
	t := sumLayers(spans)
	for _, l := range layers {
		reported = append(reported,
			metric{l + ".calls", float64(t[l].calls), "count"},
			metric{l + ".share", ratio(float64(t[l].self), float64(busy)), "ratio"})
		printed = append(printed, metric{l + ".self_ms", ms(t[l].self), "ms"})
	}
	selfS := func(l string) float64 { return t[l].self.Seconds() }
	c := func(l, k string) float64 { return float64(t[l].counts[k]) }
	explored := c("lts.explore", "states")
	hits, queries := c("learn.learn", "hits"), c("learn.learn", "queries")
	reported = append(reported,
		metric{"capl.parse.tokens_per_s", ratio(c("capl.parse", "tokens"), selfS("capl.parse")), "tokens/s"},
		metric{"caplint.analyze.diags", c("caplint.analyze", "diags"), "count"},
		metric{"translate.out_bytes", c("translate", "out_bytes"), "bytes"},
		metric{"cspm.load.bytes_per_s", ratio(c("cspm.load", "bytes"), selfS("cspm.load")), "bytes/s"},
		metric{"lts.explore.states", explored, "count"},
		metric{"lts.explore.transitions", c("lts.explore", "transitions"), "count"},
		metric{"lts.explore.states_per_s", ratio(explored, selfS("lts.explore")), "states/s"},
		metric{"lts.explore.allocs_per_state", ratio(c("lts.explore", "allocs"), explored), "allocs/state"},
		metric{"lts.normalize.nodes", c("lts.normalize", "nodes"), "count"},
		metric{"refine.search.pairs", c("refine.search", "pairs"), "count"},
		metric{"refine.trace.states", c("refine.trace", "states"), "count"},
		metric{"canoe.frames", c("canoe.run", "frames"), "count"},
		metric{"conformance.schedule.model_states", c("conformance.schedule", "model_states"), "count"},
		metric{"conformance.schedule.diverged", c("conformance.schedule", "diverged"), "count"},
		metric{"learn.membership.hit_ratio", ratio(hits, hits+queries), "ratio"},
		metric{"learn.membership.base", hits + queries, "count"},
		metric{"serve.cache_hit_ratio", ratio(serve.cacheHits, serve.cacheHits+serve.cacheMisses), "ratio"},
		metric{"serve.cache_base", serve.cacheHits + serve.cacheMisses, "count"},
		metric{"loadgen.max_rate_rps", serve.maxRate, "req/s"},
	)
	printed = append(printed,
		metric{"serve.check_ms_mean", serve.checkMs, "ms"},
		metric{"serve.wait_ms", serve.waitMs, "ms"},
		metric{"loadgen.late_ms_p99", serve.lateP99, "ms"},
		metric{"loadgen.late_ms_max", serve.lateMax, "ms"},
	)
	return reported, printed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
