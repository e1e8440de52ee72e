package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"probdedup"
	"probdedup/internal/dataset"
)

// Library workload configuration: the paper's data model from
// dataset.Generate at low uncertainty, standardized, reduced with
// sorted-neighbourhood alternatives (Sec. V-A), pre-filter off.
const (
	libKey    = "name:9+job:2"
	libWindow = 6
	libLambda = 0.62
	libMu     = 0.76
)

// libDataset is the low-uncertainty point of the generator: typos, ⊥
// mass, maybe-tuples and correlated alternatives all present.
func libDataset(entities int, seed int64) probdedup.DatasetConfig {
	cfg := probdedup.DefaultDatasetConfig(entities, seed)
	cfg.TypoRate = 0.15
	cfg.UncertainRate = 0.15
	cfg.NullRate = 0.05
	return cfg
}

func libOptions() (probdedup.Options, error) {
	def, err := probdedup.ParseKeyDef(libKey, dataset.Schema)
	if err != nil {
		return probdedup.Options{}, err
	}
	clean := func(s string) string { return probdedup.LowerCase(probdedup.TrimSpace(s)) }
	t := probdedup.Thresholds{Lambda: libLambda, Mu: libMu}
	return probdedup.Options{
		Standardizer: probdedup.NewStandardizer(clean, clean, clean),
		Compare:      []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		AltModel:     probdedup.WeightedSumModel{Weights: []float64{0.4, 0.3, 0.3}, T: t},
		Derivation:   probdedup.SimilarityBased{Conditioned: true},
		Final:        t,
		Reduction:    probdedup.SNMAlternatives{Key: def, Window: libWindow},
		Workers:      libWorkers,
	}, nil
}

// generateLib builds the library corpus. dataset.Generate draws names
// from 32 first names, so at benchmark sizes unrelated entities would
// collide on every attribute and no quality metric could mean
// anything; each entity's name values therefore get a surname of its
// own appended (typos and wrong alternatives from the generator stay).
// Half the shuffled corpus is the preload; the rest arrives one Add at
// a time, with removeShare of the operations removing a current
// resident.
func generateLib(s spec, seed int64) *corpus {
	d := probdedup.GenerateDataset(libDataset(s.entities, seed))
	rng := rand.New(rand.NewSource(seed))

	// Entities are the connected components of the truth pairs.
	parent := map[string]string{}
	var find func(string) string
	find = func(id string) string {
		p, ok := parent[id]
		if !ok || p == id {
			return id
		}
		root := find(p)
		parent[id] = root
		return root
	}
	for _, p := range d.Truth.Sorted() {
		parent[find(p.A)] = find(p.B)
	}
	entityOf := map[string]int{}
	surname := map[int]string{}
	tuples := d.Union().Tuples
	ops := make([]op, len(tuples))
	for i, x := range tuples {
		root := find(x.ID)
		e, ok := entityOf[root]
		if !ok {
			e = len(entityOf)
			entityOf[root] = e
			surname[e] = letters(rng, 6, 6)
		}
		y := x.Clone()
		for ai := range y.Alts {
			y.Alts[ai].Values[0] = y.Alts[ai].Values[0].Map(func(v string) string { return v + surname[e] })
		}
		ops[i] = op{id: y.ID, x: y, entity: e}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	c := &corpus{schema: dataset.Schema, preload: ops[:len(ops)/2]}
	pool := ops[len(ops)/2:]
	resident := make([]string, 0, len(ops))
	for _, o := range c.preload {
		resident = append(resident, o.id)
	}
	rem := &deck{rng: rng, share: s.removeShare}
	stream := func(n int) []op {
		out := make([]op, 0, n)
		for len(out) < n {
			if len(resident) > 0 && rem.draw() || len(pool) == 0 {
				i := rng.Intn(len(resident))
				out = append(out, op{remove: true, id: resident[i]})
				resident[i] = resident[len(resident)-1]
				resident = resident[:len(resident)-1]
				continue
			}
			out = append(out, pool[0])
			resident = append(resident, pool[0].id)
			pool = pool[1:]
		}
		return out
	}
	c.open = stream(s.openOps)
	c.closed = stream(s.closedOps)
	c.barrier = func(int) []op { return nil }
	return c
}

// libEngine is one Integrator with the stream consumer the harness
// attaches to it: every entity delta is folded as it is emitted, and
// during the open loop the first delta naming the arrival being
// applied is timestamped.
type libEngine struct {
	ig      *probdedup.Integrator
	fold    *fold
	arrival string    // open loop: the tuple being added
	emitted time.Time // open loop: when the first delta naming it was emitted
	err     error
}

func newLibEngine(opts probdedup.Options) (*libEngine, error) {
	e := &libEngine{fold: newFold(true)}
	ig, err := probdedup.NewIntegrator(dataset.Schema, opts, func(ed probdedup.EntityDelta) bool {
		ids, err := e.fold.applyEntity(entityEvent{
			Event:   ed.Kind.String(),
			ID:      ed.Entity.ID,
			Members: ed.Entity.Members,
			From:    ed.From,
		})
		if err != nil && e.err == nil {
			e.err = err
		}
		if e.arrival != "" && e.emitted.IsZero() {
			for _, id := range ids {
				if id == e.arrival {
					e.emitted = now()
				}
			}
		}
		return true
	})
	e.ig = ig
	return e, err
}

func (e *libEngine) apply(o op) error {
	if o.remove {
		return e.ig.Remove(o.id)
	}
	return e.ig.Add(o.x)
}

// build constructs an engine and preloads it with one AddBatch — the
// library workload's set-up.
func buildLib(opts probdedup.Options, preload []op) (*libEngine, time.Duration, error) {
	t0 := now()
	e, err := newLibEngine(opts)
	if err != nil {
		return nil, 0, err
	}
	xs := make([]*probdedup.XTuple, len(preload))
	for i, o := range preload {
		xs[i] = o.x
	}
	if err := e.ig.AddBatch(xs); err != nil {
		return nil, 0, err
	}
	return e, now().Sub(t0), e.err
}

// runLib runs the library workload end to end, in-process.
func runLib(ctx context.Context, h *harness, s spec, seed int64, seconds float64) (*result, error) {
	res := newResult(s, seconds)
	tGen := now()
	opts, err := libOptions()
	if err != nil {
		return nil, err
	}
	c := generateLib(s, seed)
	res.stamp("generate", now().Sub(tGen))

	// Set-up, several times; the heap baseline is read just before the
	// engine that stays is built, with the earlier ones released.
	var setups []float64
	var e *libEngine
	var baseline uint64
	for rep := 0; rep < h.setups; rep++ {
		e = nil
		if rep == h.setups-1 {
			baseline = heapAlloc()
		}
		var took time.Duration
		if e, took, err = buildLib(opts, c.preload); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, took.Seconds())
		res.stamp(fmt.Sprintf("setup_%d", rep), took)
	}
	res.set("setup_s", median(setups), "s")

	// Open loop: one caller, one operation every 1/rate seconds; the
	// latency of an arrival runs from when it was due until the emit
	// callback names it.
	var lat []float64
	var lagMax time.Duration
	t0 := now()
	for i, o := range c.open {
		due := t0.Add(time.Duration(float64(i) / float64(s.openRate) * float64(time.Second)))
		for wait := due.Sub(now()); wait > 0; wait = due.Sub(now()) {
			if wait > 200*time.Microsecond {
				time.Sleep(wait - 100*time.Microsecond)
			}
		}
		lag := now().Sub(due)
		if lag > lagMax {
			lagMax = lag
		}
		e.arrival, e.emitted = "", time.Time{}
		if !o.remove {
			e.arrival = o.id
		}
		if err := e.apply(o); err != nil {
			return nil, fmt.Errorf("open loop op %d: %w", i, err)
		}
		if !e.emitted.IsZero() {
			lat = append(lat, float64(e.emitted.Sub(due))/float64(time.Millisecond))
		}
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	res.stamp("open_loop", now().Sub(t0))
	e.arrival = ""
	sort.Float64s(lat)
	res.samples = len(lat)
	res.set("delta_latency_p50_ms", quantile(lat, 0.5), "ms")
	res.layer["pdedupd.delta_latency_p90_ms"] = quantile(lat, 0.9)
	res.layer["pdedupd.delta_latency_p99_ms"] = quantile(lat, 0.99)
	res.layer["bench.gen_lag_ms_max"] = float64(lagMax) / float64(time.Millisecond)
	res.attempted += len(c.open)
	if len(lat) < minLatSamples && seconds >= runSeconds {
		res.problem("open loop sampled %d latencies, need %d", len(lat), minLatSamples)
	}

	// Closed loop: the same caller, back to back. A forced collection
	// first, so every run starts the phase with the same heap.
	runtime.GC()
	cpu0 := selfCPU()
	t0 = now()
	for i, o := range c.closed {
		if err := e.apply(o); err != nil {
			return nil, fmt.Errorf("closed loop op %d: %w", i, err)
		}
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	wall := now().Sub(t0)
	cpu := selfCPU() - cpu0
	res.stamp("closed_loop", wall)
	res.attempted += len(c.closed)
	res.set("ingest_ops_per_s", float64(len(c.closed))/wall.Seconds(), "ops/s")
	res.set("cpu_ms_per_op", cpu/float64(len(c.closed)), "ms")
	if e.err != nil {
		return nil, e.err
	}

	// The engine's own Flush against the stream it emitted, then the
	// heap reading with only the engine left alive.
	residents := residentsAfter(c.all())
	flushed, err := e.ig.Flush()
	if err != nil {
		return nil, err
	}
	final := map[string]bool{}
	for _, ent := range flushed.Entities {
		final[ent.ID] = true
	}
	if err := e.fold.check(&reference{entities: final}); err != nil {
		res.problem("%v", err)
	}
	score := f1(e.fold.matches(), truthPairs(residents))
	res.set("match_f1", score, "ratio")
	if score < minF1 {
		res.problem("match_f1 %.3f is below %.1f: the workload no longer measures detection quality", score, minF1)
	}
	if n := e.ig.Len(); n != len(residents) {
		res.problem("engine holds %d residents, expected %d", n, len(residents))
	}
	flushed, e.fold = nil, nil
	if after := heapAlloc(); after > baseline {
		res.set("heap_bytes_per_resident", float64(after-baseline)/float64(len(residents)), "B")
	}
	runtime.KeepAlive(e.ig)
	e = nil

	// Reference step: batch Detect + Resolve over the final residents
	// must give the entities the incremental engine flushed.
	t0 = now()
	xr := probdedup.NewXRelation("final", dataset.Schema...)
	for _, o := range residents {
		xr.Append(o.x)
	}
	det, err := probdedup.Detect(xr, opts)
	if err != nil {
		return nil, fmt.Errorf("reference Detect: %w", err)
	}
	tDetect := now().Sub(t0)
	if opts.Standardizer != nil {
		// Resolve fuses the tuples Detect compared: the standardized ones.
		xr = opts.Standardizer.XRelation(xr)
	}
	t1 := now()
	resolution, err := probdedup.Resolve(xr, det, opts.Final, nil)
	if err != nil {
		return nil, fmt.Errorf("reference Resolve: %w", err)
	}
	res.layer["core.detect_batch_s"] = tDetect.Seconds()
	res.layer["resolve.resolve_batch_s"] = now().Sub(t1).Seconds()
	res.stamp("reference", now().Sub(t0))
	batch := map[string]bool{}
	for _, ent := range resolution.Entities {
		batch[ent.ID] = true
	}
	if err := diffSets("batch Detect+Resolve entities", final, batch); err != nil {
		res.problem("%v", err)
	}
	return res, nil
}
