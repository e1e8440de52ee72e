package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is BENCHMARK.json as this program reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver's acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// worseBy is how much worse b is than a as a share of a, in the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// selfCheck is the A/A test: two interleaved sets of runs of the same
// tree (A B A B …, pair i on seed i) must agree within each metric's
// bound, and each set's quartile spread must stay within it — the
// acceptance rule the benchmark has to meet before any change can be
// judged with it.
func selfCheck(ctx context.Context, h *harness, todo []spec, runs int, seconds float64, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(h.root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if runs < 2 {
		fmt.Fprintln(stderr, "bench: -selfcheck needs -runs of at least 2")
		return 2
	}
	fmt.Fprintln(stdout, envStamp(h.root, 1, seconds))
	fmt.Fprintf(stdout, "selfcheck runs_per_side=%d seeds=1..%d order=ABAB\n", runs, runs)
	header := fmt.Sprintf("%-44s %-5s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s %s\n",
		"workload/metric", "unit", "A q1", "A median", "A q3", "A spread", "B q1", "B median", "B q3", "B spread", "B worse", "bound", "verdict")
	code := 0
	for _, s := range todo {
		var side [2]map[string][]float64
		side[0], side[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < runs; i++ {
			for ab := 0; ab < 2; ab++ {
				r, err := runWorkload(ctx, h, s, int64(i+1), seconds)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", s.name, i+1, err)
					return 1
				}
				if !r.correct() || r.failed > 0 {
					printResult(stderr, r, endToEnd)
					fmt.Fprintf(stderr, "bench: %s seed %d: wrong result or failed operations\n", s.name, i+1)
					return 1
				}
				fmt.Fprintf(stdout, "run %s side=%c seed=%d", s.name, 'A'+ab, i+1)
				for _, d := range endToEnd {
					side[ab][d.name] = append(side[ab][d.name], r.metrics[d.name].Value)
					fmt.Fprintf(stdout, " %s=%.6g", d.name, r.metrics[d.name].Value)
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprint(stdout, header)
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(side[0][m.Name])
			b1, b2, b3 := quartiles(side[1][m.Name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := worseBy(a2, b2, m.Better)
			verdict := "ok"
			switch {
			case math.Abs(worse) > m.Bound:
				verdict = "FAIL medians differ by more than the bound"
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "FAIL spread exceeds the bound"
			case m.Name != "setup_s" && (spreadA > m.Bound/3 || spreadB > m.Bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict[0] == 'F' {
				code = 1
			}
			fmt.Fprintf(stdout, "%-44s %-5s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %12.6g %12.6g %7.2f%% | %7.2f%% %5.1f%% %s\n",
				s.name+"/"+m.Name, m.Unit, a1, a2, a3, 100*spreadA, b1, b2, b3, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	if code == 0 {
		fmt.Fprintln(stdout, "selfcheck PASS")
	} else {
		fmt.Fprintln(stdout, "selfcheck FAIL")
	}
	return code
}
