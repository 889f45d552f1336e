package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSpec reads BENCHMARK.json from the working directory or, when run
// from inside benchmark/, its parent.
func readSpec() (*spec, error) {
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return &s, nil
		}
	}
	return nil, err
}

// runKey names one metric of one workload.
type runKey struct{ workload, metric string }

// readRuns collects the metric lines of every saved output in dir.
func readRuns(dir string) (map[runKey][]float64, map[runKey]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	values, units := map[runKey][]float64{}, map[runKey]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		workload := ""
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 2 && fields[0] == "workload" {
				workload = fields[1]
			}
			if len(fields) != 3 || workload == "" {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				continue
			}
			k := runKey{workload, fields[0]}
			values[k] = append(values[k], v)
			units[k] = fields[2]
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	return values, units, nil
}

// compareDirs prints, for every workload × metric both directories hold,
// each side's median and quartiles, the change of the median, the bound
// and a verdict: "ok" when B is not worse than A by more than the bound,
// "WORSE" when it is, "unresolved" when either side's spread (quartile
// distance over median) exceeds the bound. Per-layer metrics have no
// bound and get no verdict.
func compareDirs(w io.Writer, dirA, dirB string) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	a, units, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, _, err := readRuns(dirB)
	if err != nil {
		return err
	}
	var keys []runKey
	for k := range a {
		if len(a[k]) >= 2 && len(b[k]) >= 2 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no metric has two or more values on both sides")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, k := range keys {
		qa, qb := quartiles(a[k]), quartiles(b[k])
		change := ratio(qb[1]-qa[1], qa[1])
		bound, verdict := "-", "-"
		for _, m := range s.EndToEnd {
			if m.Name != k.metric {
				continue
			}
			bound = num(m.Bound)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			switch {
			case spread(qa) > m.Bound || spread(qb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\t%s\n",
			k.workload, k.metric, units[k], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*change, bound, verdict)
	}
	return tw.Flush()
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }
