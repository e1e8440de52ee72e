package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tinySeconds scales every workload down to a fraction of a second of
// measured work: the same code path as the real run, small enough for
// tier-1.
const tinySeconds = 0.3

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNormalizeArgs(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "lib_snm", "--seed", "3", "--seconds", "12", "--trace", "0"}, []string{"--workload", "lib_snm", "--seed", "3", "--seconds", "12", "--trace=0"}},
		{[]string{"--trace", "1", "--seed", "3"}, []string{"--trace=1", "--seed", "3"}},
		{[]string{"-trace", "-workload", "serve_skew"}, []string{"-trace=1", "-workload", "serve_skew"}},
		{[]string{"-selfcheck", "-runs", "5"}, []string{"-selfcheck=1", "-runs", "5"}},
	} {
		if got := normalizeArgs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the rule the acceptance test is written in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20, 50, 40}, 15, 30, 45},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestBenchmarkFileInStep holds BENCHMARK.json and the harness to each
// other: same workloads, same metrics, same units, legal names and
// bounds.
func TestBenchmarkFileInStep(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness literals are calibrated for %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is illegal or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s [s, lower] must be an end-to-end metric")
	}
}

func tinyCorpus(t *testing.T, s spec, seed int64) *corpus {
	t.Helper()
	s = s.scaled(tinySeconds)
	if s.lib {
		return generateLib(s, seed)
	}
	c, err := daemonCorpus(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// streamDigest renders an operation stream to the bytes the daemon
// would be sent.
func streamDigest(c *corpus) ([]byte, error) {
	var buf bytes.Buffer
	for _, ops := range [][]op{c.preload, c.open, c.closed, c.barrier(0)} {
		bodies, err := renderBodies(ops, closedBody)
		if err != nil {
			return nil, err
		}
		for _, b := range bodies {
			buf.Write(b.data)
		}
	}
	return buf.Bytes(), nil
}

// TestSameSeedSameStream: the same seed renders byte-identical
// operation streams, a different seed does not.
func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		a, err := streamDigest(tinyCorpus(t, s, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := streamDigest(tinyCorpus(t, s, 7))
		if err != nil {
			t.Fatal(err)
		}
		c, err := streamDigest(tinyCorpus(t, s, 8))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 rendered two different streams (%d and %d bytes)", s.name, len(a), len(b))
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 rendered the same stream", s.name)
		}
	}
}

// TestCorruptedFoldFails: a fold that equals the reference passes the
// correctness check; losing one delta, or misreading one class, fails
// it — in pair mode and in entity mode.
func TestCorruptedFoldFails(t *testing.T) {
	for _, name := range []string{"serve_skew", "churn"} {
		s, _ := specByName(name)
		c := tinyCorpus(t, s, 3)
		residents := residentsAfter(c.all())
		ref, err := buildShardReference(s, residents)
		if err != nil {
			t.Fatal(err)
		}
		if ref.heapPerResident <= 0 {
			t.Errorf("%s: reference measured no heap", name)
		}
		f := newFold(s.integrate)
		for p := range ref.matches {
			f.class[p] = "m"
		}
		for p := range ref.possible {
			f.class[p] = "p"
		}
		for id := range ref.entities {
			f.entities[id] = strings.Split(id, "+")
		}
		if err := f.check(ref); err != nil {
			t.Fatalf("%s: faithful fold rejected: %v", name, err)
		}
		if len(ref.matches) == 0 {
			t.Fatalf("%s: tiny corpus declares no match; the test cannot corrupt one", name)
		}
		if s.integrate {
			for id := range f.entities {
				delete(f.entities, id) // one lost "created" event
				break
			}
		} else {
			for p := range ref.matches {
				f.class[p] = "p" // one misread class
				break
			}
		}
		if err := f.check(ref); err == nil {
			t.Errorf("%s: corrupted fold passed the correctness check", name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at tiny scale through the
// real entry point — built daemon, HTTP, SSE, kill and recovery,
// reference step — untraced and traced, and holds the printed output
// to BENCHMARK.json: every metric once per workload, with its unit and
// a finite value, and a last line in the driver's format.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pdedupd")
	}
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	if _, err := buildDaemon(context.Background(), "..", filepath.Join(build, "bin")); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace   string
		metrics []boundedMetric
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		for _, w := range bf.Workloads {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", strconv.FormatFloat(tinySeconds, 'g', -1, 64), "--trace", mode.trace, "-build", build}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, mode.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if !strings.HasPrefix(lines[0], "env commit=") {
				t.Errorf("%s: output does not start with the environment stamp: %q", w.Name, lines[0])
			}
			printed := map[string]int{}
			for _, line := range lines {
				f := strings.Fields(line)
				if len(f) != 3 || !strings.HasPrefix(f[0], w.Name+"/") {
					continue
				}
				name := strings.TrimPrefix(f[0], w.Name+"/")
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s/%s: value %q is not a finite number", w.Name, name, f[1])
				}
				printed[name+" "+f[2]]++
			}
			for _, m := range mode.metrics {
				if n := printed[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s trace=%s: metric %s [%s] printed %d times, want once", w.Name, mode.trace, m.Name, m.Unit, n)
				}
			}
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v\n%s", w.Name, err, lines[len(lines)-1])
			}
			if last.Correct == nil || !*last.Correct || last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
				t.Errorf("%s trace=%s: result %s", w.Name, mode.trace, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(mode.metrics) {
				t.Errorf("%s trace=%s: %d metrics in the result, want %d", w.Name, mode.trace, len(last.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: result lacks %s [%s]", w.Name, mode.trace, m.Name, m.Unit)
				}
				if mode.trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
