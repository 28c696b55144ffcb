package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Metrics every untraced record carries that BENCHMARK.json cannot list
// as end-to-end: the driver's acceptance rule compares runs made with
// different seeds, and the loss trajectory is what the seed changes. Two
// sets made with the same seeds can be held to them, which is what
// -compare is for.
var recordedOnly = []metricSpec{
	{Name: "time_to_target_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "loss_at_budget", Unit: "nats", Better: "lower", Bound: 0.02},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// exactOnBarrier are the deterministic metrics: on the barrier workloads
// the same seed must give the same value to the last bit.
var exactOnBarrier = map[string]bool{"loss_at_budget": true, "wire_bytes_per_iter": true}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// values collects one metric of one workload over a set of records.
func values(recs []record, workload, name string) (vs []float64, seeds []int64) {
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vs, seeds
}

// verdict applies the benchmark's regression rule to two sets of one
// metric: worse when B's median is worse than A's by more than the bound;
// unresolved when either set's own spread (quartile distance over median)
// is wider than the bound, unless every run of B beats every run of A.
func verdict(m metricSpec, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0 // positive delta = worse
	if m.Better == "higher" {
		sign = -1
	}
	tol := m.Bound * math.Abs(ma)
	if m.Name == "loss_at_budget" {
		tol += 0.005
	}
	spread := func(xs []float64) float64 {
		q1, q2, q3 := quartiles(xs)
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(q2)
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case m.Bound > 0 && (spread(a) > m.Bound || spread(b) > m.Bound):
		return "unresolved"
	case sign*(mb-ma) > tol:
		return "worse"
	}
	return "ok"
}

// runCompare prints one row per workload and end-to-end metric and
// returns the exit code: 1 when a row is worse or a deterministic metric
// differs between runs of one seed.
func runCompare(out io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced run", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no untraced run", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	code := 0
	fmt.Fprintf(out, "%-11s %-20s %36s %36s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "verdict")
	for _, w := range workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), recordedOnly...) {
			va, sa := values(a, w.name, m.Name)
			vb, sb := values(b, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if !w.fault && exactOnBarrier[m.Name] {
				bySeed := map[int64]float64{}
				for _, set := range []struct {
					vs    []float64
					seeds []int64
				}{{va, sa}, {vb, sb}} {
					for i, x := range set.vs {
						if prev, ok := bySeed[set.seeds[i]]; ok && prev != x {
							v = "differs"
						}
						bySeed[set.seeds[i]] = x
					}
				}
			}
			if v == "worse" || v == "differs" {
				code = 1
			}
			cell := func(xs []float64) string {
				q1, q2, q3 := quartiles(xs)
				return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, len(xs))
			}
			fmt.Fprintf(out, "%-11s %-20s %36s %36s  %s\n", w.name, m.Name, cell(va), cell(vb), v)
		}
	}
	return code
}
