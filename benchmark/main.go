// Command benchmark is the end-to-end benchmark of the checker. It runs
// one workload for a fixed time, checks every verdict against a known
// answer, and prints the metrics:
//
//	bash benchmark/run.sh --workload pipeline-small --seed 1 --seconds 20 --trace 0
//
// Workloads: pipeline-small (CAPL source to verdict), check-large (large
// state spaces), serve-mixed (POST /v1/check to the fdrserve handler under
// open-loop load) and sim-soak (simulation, projection, trace membership
// and L*). Every metric is printed as "<name> <value> <unit>", followed by
// one JSON line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones. --tracefile F
// also writes every span to F as JSON lines.
//
//	benchmark -compare DIR_A DIR_B
//
// reads two sets of saved outputs and reports, per workload and metric,
// each side's median and quartiles and whether B is within the bound
// BENCHMARK.json sets.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"syscall"
	"time"
)

// prepared is a workload after set-up, ready to measure.
type prepared struct {
	digest  string
	measure func(seconds float64, traced bool, p *probe) result
	close   func()
}

// workload builds its inputs from the seed (and, for an open-loop
// workload, the length of the run). Set-up is everything that happens
// before the first timed job.
type workload struct {
	name  string
	setup func(seed int64, seconds float64) (*prepared, error)
}

var workloads = []workload{
	{"pipeline-small", setupPipeline},
	{"check-large", setupCheck},
	{"serve-mixed", setupServe},
	{"sim-soak", setupSim},
}

// A run sets its workload up at least minSetups times, and again while
// the set-ups so far took less than setupTime (at most maxSetups times),
// so a set-up of a few milliseconds still gives a steady median: setup_s.
const (
	minSetups = 3
	maxSetups = 25
	setupTime = time.Second
)

// result is what one measurement produced.
type result struct {
	latencies []float64 // ms per job, +Inf for a failed job
	failed    int
	failures  []string // the first few failure messages
	states    int64    // model states the checker visited
	wall      time.Duration
	// loaders is the number of load goroutines: shares divide the summed
	// self time by wall × loaders.
	loaders int
	// offered marks an open loop, whose throughput the load generator
	// sets rather than the host's speed.
	offered bool
	spans   []span
	serve   serveLayer
}

// fail records a failed job.
func (r *result) fail(input string, err error) float64 {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", input, err))
	}
	return math.Inf(1)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pipeline-small, check-large, serve-mixed or sim-soak")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.String("trace", "0", "1 reports the per-layer metrics instead of the end-to-end ones")
	tracefile := fs.String("tracefile", "", "also write every span to this file as JSON lines (implies -trace 1)")
	compare := fs.Bool("compare", false, "compare two directories of saved outputs: -compare DIR_A DIR_B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare DIR_A DIR_B")
			return 2
		}
		if err := compareDirs(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}
	traced := *trace == "1" || *tracefile != ""
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q or negative -seconds\n", *name)
		return 2
	}

	var setups []float64
	var p *prepared
	for total := 0.0; len(setups) < minSetups || (total < setupTime.Seconds() && len(setups) < maxSetups); {
		if p != nil {
			p.close()
		}
		start := time.Now()
		var err error
		if p, err = w.setup(*seed, *seconds); err != nil {
			fmt.Fprintf(stderr, "benchmark: set up %s: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	pr := newProbe()
	r := p.measure(*seconds, traced, pr)
	p.close()

	e2e, unscaled, err := endToEnd(quartiles(setups)[1], r, pr.speed())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAILED", f)
	}
	fmt.Fprintf(stdout, "workload %s\nseed %d\ninputs_sha256 %s\n", w.name, *seed, p.digest)
	printMetrics(stdout, e2e)
	fmt.Fprintf(stdout, "host_speed %s ratio\n", num(pr.speed()))
	printMetrics(stdout, unscaled)
	if p99, err := percentile(r.latencies, 0.99); err == nil { // where enough samples lie beyond it
		printMetrics(stdout, []metric{{"latency_ms_p99", p99, "ms"}})
	}
	fmt.Fprintf(stdout, "latency_samples %d count\n", len(r.latencies)) // behind every percentile
	fmt.Fprintf(stdout, "failed_ratio %s failed/attempted\n", num(float64(r.failed)/float64(len(r.latencies))))
	reported := e2e
	if traced {
		busy := r.wall * time.Duration(r.loaders)
		var printed []metric
		reported, printed = perLayerMetrics(r.spans, busy, r.serve)
		printMetrics(stdout, reported)
		printMetrics(stdout, printed)
		if *tracefile != "" {
			if err := writeSpans(*tracefile, r.spans); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	correct := r.failed == 0
	if err := writeJSON(stdout, correct, len(r.latencies), r.failed, reported); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// endToEnd derives the end-to-end metrics, in BENCHMARK.json order, as
// if the host ran at the speed refRate was measured at: speed is the
// probe's measured speed over that one. Times are multiplied by it and
// rates divided, except the rates an open loop's generator sets. The
// second list holds the values as measured.
func endToEnd(setup float64, r result, speed float64) (scaled, unscaled []metric, err error) {
	if len(r.latencies) == 0 {
		return nil, nil, errors.New("no job ran")
	}
	p50, err := percentile(r.latencies, 0.5)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(r.latencies, 0.9)
	if err != nil {
		return nil, nil, err
	}
	wall := r.wall.Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, nil, err
	}
	n := float64(len(r.latencies))
	rate := speed
	if r.offered {
		rate = 1
	}
	for _, m := range []struct {
		metric
		scale float64
	}{
		{metric{"setup_s", setup, "s"}, 1 / speed},
		{metric{"throughput_per_s", n / wall, "jobs/s"}, rate},
		{metric{"latency_ms_p50", p50, "ms"}, 1 / speed},
		{metric{"latency_ms_p90", p90, "ms"}, 1 / speed},
		{metric{"states_per_s", float64(r.states) / wall, "states/s"}, rate},
		{metric{"peak_rss_mb", float64(ru.Maxrss) / 1024, "MiB"}, 1}, // Maxrss is in KiB
	} {
		s := m.metric
		s.value /= m.scale
		scaled = append(scaled, s)
		if m.scale != 1 {
			m.name += ".unscaled"
			unscaled = append(unscaled, m.metric)
		}
	}
	return scaled, unscaled, nil
}

// num renders a value with all its digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s\n", m.name, num(m.value), m.unit)
	}
}

// writeJSON prints the result line.
func writeJSON(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		v := m.value
		if math.IsInf(v, 1) { // a failed job's latency; JSON has no infinity
			v = math.MaxFloat64
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
