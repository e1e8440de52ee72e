package main

import (
	"fmt"
	"strings"

	"probdedup"
	"probdedup/internal/cliopts"
)

// runSeconds is the measured time (open-loop plus closed-loop phase)
// the literals below were calibrated for on the 2-core reference box;
// BENCHMARK.json's run_seconds repeats it. -seconds S multiplies every
// count by S/runSeconds (rates stay fixed, so phases last S/runSeconds
// as long), which is how the smoke test gets a tiny scale from the
// same code path.
const runSeconds = 12

// daemonShards and daemonProcs pin the system under test to the box
// the protocol was sized for, so numbers are comparable on any machine
// with at least two cores.
const (
	daemonShards = 2
	daemonProcs  = 2
	libWorkers   = 2
)

// referenceShards is the shard count of the in-process reference
// engine. It differs from the daemon's on purpose: the shard-union ≡
// single-instance invariant makes the result independent of it, and
// serve_skew's hot keys (all on one of two shards) spread over two of
// four, which halves the untimed reference step on a 2-core box.
const referenceShards = 4

// Closed- and open-loop request sizes and the 429 pause (README,
// "Noise protocol").
const (
	preloadBody   = 256
	closedBody    = 64
	openBody      = 16
	senders       = 2
	retryPauseMS  = 20
	minLatSamples = 500
	minF1         = 0.5
)

// setupRepeats is how often a run times its set-up, each time from
// nothing, before the measured phases; setup_s is the median.
const setupRepeats = 3

// blockClass describes one family of blocks of a daemon corpus: how
// large each block starts, which share of the preload and of the
// arrivals the family receives, and whether its keys are pinned to
// shard 0 (the hot shard of serve_skew).
type blockClass struct {
	size         int
	preloadShare float64
	arrivalShare float64
	pinShard0    bool
}

// spec is one workload: its calibrated literals and why it exists.
// Counts are at -seconds runSeconds; changing one is a benchmark
// change, never something derived from a measured speed at run time.
type spec struct {
	name string
	why  string
	lib  bool

	// Daemon flags beyond the common set. durable puts the daemon of the
	// traced run on -state, with a SIGKILL and a WAL replay after the
	// phases; the end-to-end run never touches the disk (README, "Where
	// this departs from ISSUE 14").
	integrate bool
	durable   bool

	// Corpus.
	preload     int
	classes     []blockClass
	dupShare    float64 // planted duplicates among inserts
	twoAltShare float64 // two-alternative x-tuples among inserts
	removeShare float64 // removals among operations after the preload

	// Phases: open loop first, on the preloaded state, then closed loop.
	openOps   int
	openRate  int // tuples/s, fixed schedule
	closedOps int

	// Library workload only.
	entities int
}

// specs lists the four workloads in reporting order.
var specs = []spec{
	{
		name:    "serve_uniform",
		why:     "many tiny blocks: HTTP, codec, prepare and shard admission do the work, ssr/xmatch almost none; an enumeration fix must show nothing here",
		preload: 40000,
		classes: []blockClass{
			{size: 2, preloadShare: 1, arrivalShare: 1},
		},
		dupShare:    0.05,
		twoAltShare: 0.30,
		openOps:     20000,
		openRate:    4000,
		closedOps:   200000,
	},
	{
		name:    "serve_skew",
		why:     "hot blocks of hundreds on one shard: ssr enumeration and the pre-filter (rejecting >99%) do the work, HTTP almost none (ROADMAP 4a, 4d)",
		preload: 24000,
		classes: []blockClass{
			{size: 192, preloadShare: 0.5, arrivalShare: 0.9, pinShard0: true},
			{size: 16, preloadShare: 0.5, arrivalShare: 0.1},
		},
		dupShare:    0.15,
		twoAltShare: 0.30,
		openOps:     4000,
		openRate:    800,
		closedOps:   10000,
	},
	{
		name:      "churn",
		why:       "-integrate with 40% removals, so duplicate partners leave and entities split: resolve and the removal paths of ssr/core do the extra work; the traced run adds -state, SIGKILL and WAL replay (ROADMAP 4c)",
		integrate: true,
		durable:   true,
		preload:   30000,
		classes: []blockClass{
			{size: 32, preloadShare: 1, arrivalShare: 1},
		},
		dupShare:    0.05,
		twoAltShare: 0.30,
		removeShare: 0.40,
		openOps:     5000,
		openRate:    1000,
		closedOps:   90000,
	},
	{
		name:        "lib_snm",
		why:         "no daemon: Integrator over dataset.Generate with sorted-neighbourhood alternatives, single Add/Remove calls; verification and window maintenance do the work (ROADMAP 3c, 4b)",
		lib:         true,
		entities:    16000,
		removeShare: 0.20,
		openOps:     2000,
		openRate:    400,
		closedOps:   14000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with every count multiplied by
// seconds/runSeconds; rates and block sizes are properties of the
// workload and stay.
func (s spec) scaled(seconds float64) spec {
	f := seconds / runSeconds
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		m := int(float64(n)*f + 0.5)
		if m < 1 {
			m = 1
		}
		return m
	}
	s.preload = scale(s.preload)
	s.openOps = scale(s.openOps)
	s.closedOps = scale(s.closedOps)
	s.entities = scale(s.entities)
	return s
}

// Daemon configuration shared by the three served workloads: the flag
// list handed to pdedupd and the probdedup.Options the in-process
// reference engine is built from come from these literals, so they
// cannot drift apart (and the reference step fails if they do).
const (
	daemonSchema  = "name,job,block"
	daemonKey     = "block:8"
	daemonCompare = "levenshtein"
	daemonLambda  = 0.75
	daemonMu      = 0.9
	// pdedupd's own defaults, spelled out for the reference engine.
	daemonAltLambda = 0.4
	daemonAltMu     = 0.7
)

func daemonSchemaNames() []string { return strings.Split(daemonSchema, ",") }

// daemonArgs is the pdedupd command line for one workload; state is
// the durable directory ("" for in-memory).
func daemonArgs(s spec, state string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-schema", daemonSchema,
		"-key", daemonKey,
		"-compare", daemonCompare,
		"-lambda", fmt.Sprint(daemonLambda),
		"-mu", fmt.Sprint(daemonMu),
		"-prefilter",
		"-shards", fmt.Sprint(daemonShards),
	}
	if s.integrate {
		args = append(args, "-integrate")
	}
	if state != "" {
		args = append(args, "-state", state)
	}
	return args
}

// daemonOptions mirrors daemonArgs as engine options (the translation
// cmd/pdedupd/main.go performs on its flags).
func daemonOptions() (probdedup.Options, error) {
	schema := daemonSchemaNames()
	cmp, err := cliopts.Compare(daemonCompare)
	if err != nil {
		return probdedup.Options{}, err
	}
	compare := make([]probdedup.CompareFunc, len(schema))
	for i := range compare {
		compare[i] = cmp
	}
	def, err := probdedup.ParseKeyDef(daemonKey, schema)
	if err != nil {
		return probdedup.Options{}, err
	}
	return probdedup.Options{
		Compare: compare,
		AltModel: probdedup.WeightedSumModel{
			Weights: cliopts.EqualWeights(len(schema)),
			T:       probdedup.Thresholds{Lambda: daemonAltLambda, Mu: daemonAltMu},
		},
		Derivation: probdedup.SimilarityBased{Conditioned: true},
		Final:      probdedup.Thresholds{Lambda: daemonLambda, Mu: daemonMu},
		Reduction:  probdedup.BlockingCertain{Key: def},
		Workers:    1,
		PreFilter:  true,
	}, nil
}
