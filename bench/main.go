// Command bench is the repository's one benchmark: it builds
// cmd/pdedupd, drives it over loopback HTTP with seeded workloads (and
// the probdedup facade in-process for the library workload), prints
// every end-to-end metric by name with its unit, checks the outputs
// against an in-process reference, and exits non-zero on a wrong
// result. BENCHMARK.json at the module root is its contract; README.md
// beside this file explains the metrics, the workloads and the noise
// protocol.
//
// Usage:
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S]   end-to-end run
//	go run ./bench -trace [-workload NAME]                   traced run: per-layer metrics
//	go run ./bench -selfcheck [-runs 5]                      A/A test against BENCHMARK.json's bounds
//
// bench/run.sh is the same program behind a build cache kept inside the
// checkout; it is what BENCHMARK.json's command names.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDeadline bounds one workload run: past it the child is
// killed, the remaining operations count as failed, and the harness
// moves on instead of hanging.
const workloadDeadline = 150 * time.Second

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run reports, in printing
// order; BENCHMARK.json's end_to_end repeats them with bounds (the
// smoke test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_ops_per_s", "ops/s"},
	{"delta_latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_bytes_per_resident", "B"},
	{"match_f1", "ratio"},
}

// selfCPU is the harness process's own user+system CPU in milliseconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1000 + float64(tv.Usec)/1000 }
	return ms(ru.Utime) + ms(ru.Stime)
}

// normalizeArgs lets -trace be given bare (go run ./bench -trace) or
// with a value (the driver's --trace 0|1): the flag package would stop
// parsing at a boolean flag's detached value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" || a == "-selfcheck" || a == "--selfcheck" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			out = append(out, a+"="+v)
			continue
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "pdedupd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no module root with cmd/pdedupd above the working directory: the benchmark measures the tree it is checked out in")
		}
		dir = parent
	}
}

// envStamp describes the measured tree and machine; it heads every
// output so numbers can be traced to what produced them.
func envStamp(root string, seed int64, seconds float64) string {
	commit, dirty := "unknown", "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		dirty = "false"
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(out))) > 0 {
			dirty = "true"
		}
	}
	return fmt.Sprintf("env commit=%s dirty=%s nproc=%d harness_gomaxprocs=%d daemon_gomaxprocs=%d shards=%d lib_workers=%d go=%s seed=%d seconds=%g scale=%.4g",
		commit, dirty, runtime.NumCPU(), runtime.GOMAXPROCS(0), daemonProcs, daemonShards, libWorkers,
		runtime.Version(), seed, seconds, seconds/runSeconds)
}

// printResult writes one run's human-readable report: literals,
// phases, then every metric as "workload/metric value unit".
func printResult(w io.Writer, r *result, defs []metricDef) {
	s := r.spec
	fmt.Fprintf(w, "workload %s: %s\n", s.name, s.why)
	fmt.Fprintf(w, "literals %s preload=%d entities=%d open_ops=%d open_rate=%d/s closed_ops=%d dup_share=%g remove_share=%g\n",
		s.name, s.preload, s.entities, s.openOps, s.openRate, s.closedOps, s.dupShare, s.removeShare)
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %s/%s %.3f s\n", r.spec.name, p.name, p.seconds)
	}
	fmt.Fprintf(w, "operations %s attempted=%d failed=%d latency_samples=%d\n", r.spec.name, r.attempted, r.failed, r.samples)
	for _, d := range defs {
		if m, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "%s/%s %.6g %s\n", r.spec.name, d.name, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "NOTE %s: %s\n", r.spec.name, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "WRONG %s: %s\n", r.spec.name, p)
	}
}

// finalLine is the machine-readable last line of a run.
func finalLine(r *result, defs []metricDef) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.spec.name, d.name)
		}
		out.Metrics[d.name] = m
	}
	return json.Marshal(out)
}

// runWorkload runs one workload under its deadline.
func runWorkload(ctx context.Context, h *harness, s spec, seed int64, seconds float64) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadDeadline)
	defer cancel()
	sc := s.scaled(seconds)
	if h.trace {
		return runTraced(ctx, h, sc, seed, seconds)
	}
	if s.lib {
		return runLib(ctx, h, sc, seed, seconds)
	}
	run, err := runDaemon(ctx, h, sc, seed, seconds)
	if err != nil {
		return nil, err
	}
	return run.res, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload (default: all four)")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", runSeconds, "measured seconds the counts are scaled to (the literals are calibrated for the default)")
		trace     = fs.Bool("trace", false, "traced run: per-layer metrics and span files instead of end-to-end metrics")
		selfcheck = fs.Bool("selfcheck", false, "A/A test: two interleaved sets of runs must agree within BENCHMARK.json's bounds")
		runs      = fs.Int("runs", 5, "runs per side for -selfcheck")
		build     = fs.String("build", "", "directory for the built pdedupd and scratch state (default .bench_build under the module root)")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments")
		return 2
	}
	var todo []spec
	if *workload == "" {
		todo = specs
	} else if s, ok := specByName(*workload); ok {
		todo = []spec{s}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *build == "" {
		*build = filepath.Join(root, ".bench_build")
	}
	scratch := filepath.Join(*build, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	// Children die with the harness: on a signal, and on every return.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer cleanupAll()
	go func() {
		<-ctx.Done()
		cleanupAll()
	}()

	bin, err := buildDaemon(ctx, root, filepath.Join(*build, "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h := &harness{root: root, bin: bin, scratch: scratch, trace: *trace, setups: setupRepeats}
	if *trace {
		h.setups = 1 // set-up time is an end-to-end metric; the traced run spends its time on the layers
	}

	if *selfcheck {
		return selfCheck(ctx, h, todo, *runs, *seconds, stdout, stderr)
	}

	defs := endToEnd
	if *trace {
		defs = perLayer
	}
	fmt.Fprintln(stdout, envStamp(root, *seed, *seconds))
	code := 0
	for _, s := range todo {
		r, err := runWorkload(ctx, h, s, *seed, *seconds)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
			code = 1
			continue
		}
		printResult(stdout, r, defs)
		line, err := finalLine(r, defs)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
			continue
		}
		if !r.correct() {
			code = 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
