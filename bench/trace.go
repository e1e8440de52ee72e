package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"probdedup"
	"probdedup/internal/avm"
	"probdedup/internal/dataset"
	"probdedup/internal/prepare"
	"probdedup/internal/shard"
	"probdedup/internal/ssr"
	"probdedup/internal/sym"
	"probdedup/internal/wal"
	"probdedup/internal/xmatch"
)

// traceShare scales the counts of a traced run: it replays the
// operation stream through the layers several times in-process, so it
// measures a third of the end-to-end run's work. Per-layer metrics are
// per-operation costs and exact counts; they have no bound.
const traceShare = 1.0 / 3

// snmProbe is how many prepared tuples the index-only comparison of the
// four sorted-neighbourhood variants inserts (lib_snm): a fixed,
// literal count, small because snm-multipass costs four orders of
// magnitude more per insertion than snm-certain (109 ms against 2 µs
// at 1000 residents) and the cells must share one corpus.
const snmProbe = 200

// walSyncEvery is the group-commit grain of the traced log writer: one
// timed Sync per this many appended records.
const walSyncEvery = 64

// perLayer lists every per-layer metric with its unit, in printing
// order. A metric whose layer is not on a workload's path reads 0
// there (wal on the non-durable workloads, pdedupd and shard on
// lib_snm, the sorted-neighbourhood cells everywhere but lib_snm).
var perLayer = []metricDef{
	{"codec.decode_ns_per_tuple", "ns"},
	{"codec.wire_bytes_per_tuple", "B"},
	{"prepare.standardize_intern_ns_per_tuple", "ns"},
	{"sym.symbols_per_resident", "count"},
	{"shard.route_ns_per_tuple", "ns"},
	{"shard.admit_ns_per_tuple", "ns"},
	{"shard.router_ops_per_s", "ops/s"},
	{"shard.admission_reject_share", "ratio"},
	{"shard.queue_depth_p50", "count"},
	{"shard.skew_max_over_mean", "ratio"},
	{"ssr.insert_ns_per_tuple", "ns"},
	{"ssr.candidates_per_insert", "count"},
	{"ssr.prefilter_ns_per_pair", "ns"},
	{"ssr.prefilter_reject_share", "ratio"},
	{"ssr.remove_ns_per_tuple", "ns"},
	{"ssr.insert_ns_per_tuple.snm-certain", "ns"},
	{"ssr.insert_ns_per_tuple.snm-alternatives", "ns"},
	{"ssr.insert_ns_per_tuple.snm-ranked", "ns"},
	{"ssr.insert_ns_per_tuple.snm-multipass", "ns"},
	{"xmatch.compare_ns_per_pair", "ns"},
	{"avm.cache_hit_share", "ratio"},
	{"core.compared_per_op", "count"},
	{"core.addbatch_ns_per_tuple", "ns"},
	{"core.add_ns_per_tuple", "ns"},
	{"core.remove_ns_per_tuple", "ns"},
	{"core.self_ns_per_tuple", "ns"},
	{"core.enumerated_per_op", "count"},
	{"core.filtered_share", "ratio"},
	{"core.detect_batch_s", "s"},
	{"resolve.resolve_batch_s", "s"},
	{"resolve.self_ns_per_tuple", "ns"},
	{"resolve.events_per_op", "count"},
	{"wal.append_ns_per_record", "ns"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.log_bytes_per_op", "B"},
	{"wal.replay_tuples_per_s", "1/s"},
	{"wal.checkpoint_s", "s"},
	{"wal.snapshot_bytes_per_resident", "B"},
	{"wal.snapshot_restore_s", "s"},
	{"wal.recover_s", "s"},
	{"pdedupd.start_s", "s"},
	{"pdedupd.post_rtt_ms_p50", "ms"},
	{"pdedupd.http_share", "ratio"},
	{"pdedupd.sse_events_per_s", "1/s"},
	{"pdedupd.drain_s", "s"},
	{"pdedupd.delta_latency_p90_ms", "ms"},
	{"pdedupd.delta_latency_p99_ms", "ms"},
	{"pdedupd.rss_bytes_per_resident", "B"},
	{"bench.gen_lag_ms_max", "ms"},
	{"bench.gen_cpu_share", "ratio"},
	{"trace.coverage_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// span is one traced interval at a layer boundary: what ran, when, for
// which arrival, caused by which span, and the exact count made at the
// same boundary (candidates enumerated, pairs admitted, bytes logged).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Arrival string `json:"arrival,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced pass tracing overhead is measured
// against.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, arrival string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(now().Sub(t.t0)), Parent: parent, Arrival: arrival})
	return len(t.spans) - 1
}

func (t *tracer) end(i, count int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(now().Sub(t.t0))
	t.spans[i].Count = count
}

// totals sums span durations and counts by name.
func (t *tracer) totals() (ns map[string]float64, count map[string]int, calls map[string]int) {
	ns, count, calls = map[string]float64{}, map[string]int{}, map[string]int{}
	for _, s := range t.spans {
		ns[s.Name] += float64(s.End - s.Start)
		count[s.Name] += s.Count
		calls[s.Name]++
	}
	return ns, count, calls
}

// layerSet is the engine's layers held one by one, wired the way
// core.newEngine wires them, so the harness can time the call into each
// from its own files.
type layerSet struct {
	opts   probdedup.Options
	symtab *sym.Table
	idx    ssr.IncrementalIndex
	filter *ssr.PreFilter
	cmp    *xmatch.Comparer
	byID   map[string]*probdedup.XTuple
	router *shard.Router  // nil for the library workload
	log    *wal.LogWriter // nil unless the workload is durable
	seq    uint64
	synced int
	fsyncs []float64 // ms per Sync
	logged int64     // bytes
	file   *os.File
}

func newLayerSet(schema []string, opts probdedup.Options, router *shard.Router, logPath string) (*layerSet, error) {
	q := 0
	if opts.PreFilter {
		if q = opts.FilterQ; q <= 0 {
			q = 2
		}
	}
	ls := &layerSet{opts: opts, symtab: sym.NewTable(q), byID: map[string]*probdedup.XTuple{}, router: router}
	var err error
	if ls.idx, err = ssr.IncrementalOf(opts.Reduction); err != nil {
		return nil, err
	}
	nulls := avm.PaperNulls
	if opts.Nulls != nil {
		nulls = *opts.Nulls
	}
	if opts.PreFilter {
		ls.filter, err = ssr.NewPreFilter(ssr.PreFilterConfig{
			Table: ls.symtab, Funcs: opts.Compare, Model: opts.AltModel,
			Derive: opts.Derivation, Lambda: opts.Final.Lambda, Nulls: nulls,
		})
		if err != nil {
			return nil, err
		}
	}
	m := avm.NewMatcherWithCache(avm.NewCache(opts.CacheCapacity), opts.Compare...)
	m.Nulls = opts.Nulls
	ls.cmp = &xmatch.Comparer{Matcher: m, AltModel: opts.AltModel, Derive: opts.Derivation, Final: opts.Final}
	if logPath != "" {
		if ls.file, err = os.Create(logPath); err != nil {
			return nil, err
		}
		// Group commit is driven by apply, so each Sync can be timed.
		ls.log = wal.NewLogWriter(ls.file, len(schema), 1<<30)
	}
	return ls, nil
}

func (ls *layerSet) close() {
	if ls.log != nil {
		ls.log.Close()
	}
}

// apply pushes one operation through the layers in pipeline order,
// recording one span per boundary when tr is set.
func (ls *layerSet) apply(tr *tracer, o op, line []byte) error {
	root := tr.begin("arrival", -1, o.id)
	var adds []probdedup.Pair
	collect := func(pd ssr.PairDelta) bool {
		if !pd.Dropped {
			adds = append(adds, pd.Pair)
		}
		return true
	}
	rec := &wal.Record{Seq: ls.seq + 1}
	if o.remove {
		i := tr.begin("ssr.remove", root, o.id)
		ls.idx.Remove(o.id, collect)
		if ls.filter != nil {
			ls.filter.Remove(o.id)
		}
		delete(ls.byID, o.id)
		tr.end(i, 1)
		rec.Op, rec.ID = wal.OpRemove, o.id
	} else {
		i := tr.begin("codec.decode", root, o.id)
		x, err := probdedup.DecodeXTupleJSON(line)
		tr.end(i, len(line))
		if err != nil {
			return err
		}
		i = tr.begin("prepare.standardize_intern", root, o.id)
		var y *probdedup.XTuple
		if ls.opts.Standardizer != nil {
			y = ls.opts.Standardizer.XTuple(x)
		} else {
			y = x.Clone()
		}
		prepare.InternXTuple(ls.symtab, y)
		tr.end(i, 1)
		if ls.router != nil {
			i = tr.begin("shard.route", root, o.id)
			ls.router.ShardOf(x)
			tr.end(i, 1)
		}
		i = tr.begin("ssr.insert", root, o.id)
		ls.byID[y.ID] = y
		ls.idx.Insert(y, collect)
		if ls.filter != nil {
			ls.filter.Insert(y)
		}
		tr.end(i, len(adds))
		rec.Op, rec.Tuple = wal.OpAdd, x
	}
	admitted := adds
	if ls.filter != nil && len(adds) > 0 {
		i := tr.begin("ssr.prefilter", root, o.id)
		admitted = adds[:0:0]
		for _, p := range adds {
			if ls.filter.Admit(p) {
				admitted = append(admitted, p)
			}
		}
		tr.end(i, len(adds)-len(admitted)) // count = pairs rejected
	}
	if len(admitted) > 0 {
		i := tr.begin("xmatch.compare", root, o.id)
		for _, p := range admitted {
			ls.cmp.Compare(ls.byID[p.A], ls.byID[p.B])
		}
		tr.end(i, len(admitted))
	}
	if ls.log != nil {
		before, _ := ls.file.Seek(0, 1)
		i := tr.begin("wal.append", root, o.id)
		err := ls.log.Append(rec)
		after, _ := ls.file.Seek(0, 1)
		tr.end(i, int(after-before))
		if err != nil {
			return err
		}
		ls.seq++
		ls.logged += after - before
		if ls.synced++; ls.synced%walSyncEvery == 0 {
			i := tr.begin("wal.fsync", root, o.id)
			t0 := now()
			err := ls.log.Sync()
			ls.fsyncs = append(ls.fsyncs, float64(now().Sub(t0))/float64(time.Millisecond))
			tr.end(i, walSyncEvery)
			if err != nil {
				return err
			}
		}
	}
	tr.end(root, len(adds))
	return nil
}

// renderLine is the wire form of one operation.
func renderLine(o op) ([]byte, error) {
	bodies, err := renderBodies([]op{o}, 1)
	if err != nil {
		return nil, err
	}
	return bodies[0].data, nil
}

// replayLayers builds a layer set, feeds it the preload untimed and the
// measured operations timed, with spans when tr is set. It returns the
// measured wall time.
func replayLayers(ctx context.Context, schema []string, opts probdedup.Options, router *shard.Router, logPath string,
	preload, measured []op, lines map[string][]byte, tr *tracer) (*layerSet, time.Duration, error) {
	ls, err := newLayerSet(schema, opts, router, logPath)
	if err != nil {
		return nil, 0, err
	}
	for _, o := range preload {
		if err := ls.apply(nil, o, lines[o.id]); err != nil {
			return nil, 0, err
		}
	}
	if tr != nil {
		tr.t0 = now()
	}
	t0 := now()
	for i, o := range measured {
		if err := ls.apply(tr, o, lines[o.id]); err != nil {
			return nil, 0, err
		}
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
	}
	return ls, now().Sub(t0), nil
}

// engineCost is what one whole-engine replay measured over the
// measured operations.
type engineCost struct {
	addBatch       time.Duration // preload, one AddBatch
	adds, removes  time.Duration // summed single calls
	nAdds, nRemove int
	stats          probdedup.DetectorStats // delta over the measured operations
	events         int
}

func (c engineCost) total() time.Duration { return c.adds + c.removes }

// engine is the mutation surface Detector and Integrator share.
type engine interface {
	Add(*probdedup.XTuple) error
	AddBatch([]*probdedup.XTuple) error
	Remove(string) error
}

// replayEngine drives one whole engine: AddBatch for the preload, then
// single Add/Remove calls, each timed.
func replayEngine(ctx context.Context, e engine, stats func() probdedup.DetectorStats, preload, measured []op) (engineCost, error) {
	var c engineCost
	xs := make([]*probdedup.XTuple, len(preload))
	for i, o := range preload {
		xs[i] = o.x
	}
	t0 := now()
	if err := e.AddBatch(xs); err != nil {
		return c, err
	}
	c.addBatch = now().Sub(t0)
	before := stats()
	for i, o := range measured {
		t0 := now()
		if o.remove {
			if err := e.Remove(o.id); err != nil {
				return c, err
			}
			c.removes += now().Sub(t0)
			c.nRemove++
		} else {
			if err := e.Add(o.x); err != nil {
				return c, err
			}
			c.adds += now().Sub(t0)
			c.nAdds++
		}
		if i%1024 == 0 && ctx.Err() != nil {
			return c, ctx.Err()
		}
	}
	after := stats()
	c.stats = after
	c.stats.Compared -= before.Compared
	c.stats.Enumerated -= before.Enumerated
	c.stats.Filtered -= before.Filtered
	c.stats.Cache.Hits -= before.Cache.Hits
	c.stats.Cache.Misses -= before.Cache.Misses
	return c, nil
}

// replayRouter drives an in-process Router (no HTTP; durable under
// state when the workload is): the preload, a drain, then the measured
// operations from first Ingest to Drain. admitNS is the time inside the
// Ingest/Remove calls alone; waiting out a full queue is not admission.
func replayRouter(s spec, opts probdedup.Options, state string, preload, measured []op) (opsPerS, admitNS float64, err error) {
	r, err := shard.Open(shard.Config{Shards: daemonShards, Schema: daemonSchemaNames(), Opts: opts, Integrate: s.integrate, StateDir: state})
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	var inCalls time.Duration
	admit := func(o op) error {
		for {
			var err error
			t0 := now()
			if o.remove {
				err = r.Remove(o.id)
			} else {
				err = r.Ingest(o.x)
			}
			inCalls += now().Sub(t0)
			var over *shard.OverloadedError
			if !errors.As(err, &over) {
				return err
			}
			if err := r.Drain(); err != nil {
				return err
			}
		}
	}
	for _, o := range preload {
		if err := admit(o); err != nil {
			return 0, 0, err
		}
	}
	if err := r.Drain(); err != nil {
		return 0, 0, err
	}
	inCalls = 0
	t0 := now()
	for _, o := range measured {
		if err := admit(o); err != nil {
			return 0, 0, err
		}
	}
	if err := r.Drain(); err != nil {
		return 0, 0, err
	}
	wall := now().Sub(t0)
	return float64(len(measured)) / wall.Seconds(), float64(inCalls) / float64(len(measured)), nil
}

// walCycle measures the durable engine's recovery paths on a real
// directory: build by log-then-apply, abort (as a crash would), reopen
// with a full replay, checkpoint, close, reopen from the snapshot.
func walCycle(dir string, schema []string, opts probdedup.Options, preload, measured []op, layer map[string]float64) error {
	opts.Durability = probdedup.Durability{FsyncEvery: walSyncEvery}
	d, err := probdedup.OpenDurableIntegrator(dir, schema, opts, nil)
	if err != nil {
		return err
	}
	for len(preload) > 0 {
		n := preloadBody
		if n > len(preload) {
			n = len(preload)
		}
		xs := make([]*probdedup.XTuple, n)
		for i, o := range preload[:n] {
			xs[i] = o.x
		}
		if err := d.AddBatch(xs); err != nil {
			return err
		}
		preload = preload[n:]
	}
	logged := 0
	for _, o := range measured {
		if o.remove {
			err = d.Remove(o.id)
		} else {
			err = d.Add(o.x)
			logged++
		}
		if err != nil {
			return err
		}
	}
	tuples := d.Len() + (len(measured) - logged) // every tuple the log carries: survivors plus the removed
	if err := d.Abort(); err != nil {
		return err
	}
	t0 := now()
	if d, err = probdedup.OpenDurableIntegrator(dir, schema, opts, nil); err != nil {
		return err
	}
	layer["wal.replay_tuples_per_s"] = float64(tuples) / now().Sub(t0).Seconds()
	t0 = now()
	if err := d.Checkpoint(); err != nil {
		return err
	}
	layer["wal.checkpoint_s"] = now().Sub(t0).Seconds()
	residents := d.Len()
	if err := d.Close(); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		return err
	}
	var size int64
	for _, p := range snaps {
		if fi, err := os.Stat(p); err == nil && fi.Size() > size {
			size = fi.Size()
		}
	}
	layer["wal.snapshot_bytes_per_resident"] = float64(size) / float64(residents)
	t0 = now()
	if d, err = probdedup.OpenDurableIntegrator(dir, schema, opts, nil); err != nil {
		return err
	}
	layer["wal.snapshot_restore_s"] = now().Sub(t0).Seconds()
	return d.Close()
}

// snmCells times index-only insertion of the same prepared tuples into
// the four sorted-neighbourhood variants.
func snmCells(opts probdedup.Options, preload []op, layer map[string]float64) error {
	snm, ok := opts.Reduction.(probdedup.SNMAlternatives)
	if !ok {
		return nil
	}
	n := snmProbe
	if n > len(preload) {
		n = len(preload)
	}
	table := sym.NewTable(0)
	xs := make([]*probdedup.XTuple, n)
	for i, o := range preload[:n] {
		xs[i] = opts.Standardizer.XTuple(o.x)
		prepare.InternXTuple(table, xs[i])
	}
	for _, cell := range []struct {
		name   string
		method probdedup.ReductionMethod
	}{
		{"snm-certain", probdedup.SNMCertain{Key: snm.Key, Window: snm.Window}},
		{"snm-alternatives", snm},
		{"snm-ranked", probdedup.SNMRanked{Key: snm.Key, Window: snm.Window}},
		{"snm-multipass", probdedup.SNMMultiPass{Key: snm.Key, Window: snm.Window, Select: probdedup.TopWorlds, K: 8}},
	} {
		idx, err := probdedup.NewIncrementalIndex(cell.method)
		if err != nil {
			return err
		}
		t0 := now()
		for _, x := range xs {
			idx.Insert(x, func(probdedup.CandidatePairDelta) bool { return true })
		}
		layer["ssr.insert_ns_per_tuple."+cell.name] = float64(now().Sub(t0)) / float64(n)
	}
	return nil
}

func perOp(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the separate traced run: a shortened served run for the
// daemon-side diagnostics, then the operation stream replayed in-process
// through each layer's public functions with spans around the calls,
// and through the whole engines untraced. It reports per-layer metrics
// only; end-to-end metrics always come from the untraced run.
func runTraced(ctx context.Context, h *harness, s spec, seed int64, seconds float64) (*result, error) {
	seconds *= traceShare
	s = s.scaled(runSeconds * traceShare) // s arrives scaled to -seconds
	var res *result
	var c *corpus
	var opts probdedup.Options
	var err error
	var router *shard.Router
	daemonRate := 0.0
	if s.lib {
		res = newResult(s, seconds)
		if opts, err = libOptions(); err != nil {
			return nil, err
		}
		c = generateLib(s, seed)
	} else {
		run, err := runDaemon(ctx, h, s, seed, seconds)
		if err != nil {
			return nil, err
		}
		res, c = run.res, run.corpus
		daemonRate = res.metrics["ingest_ops_per_s"].Value
		if opts, err = daemonOptions(); err != nil {
			return nil, err
		}
		if router, err = shard.Open(shard.Config{Shards: daemonShards, Schema: c.schema, Opts: opts}); err != nil {
			return nil, err
		}
		defer router.Close()
	}
	layer := res.layer
	measured := append(append([]op(nil), c.open...), c.closed...)
	nOps := len(measured)
	lines := make(map[string][]byte, len(c.preload)+nOps)
	wire := 0
	for _, o := range c.all() {
		if o.remove {
			continue
		}
		line, err := renderLine(o)
		if err != nil {
			return nil, err
		}
		lines[o.id] = line
		wire += len(line)
	}
	layer["codec.wire_bytes_per_tuple"] = float64(wire) / float64(len(lines))

	// The layers one by one: an untraced pass, then the traced one.
	tLayers := now()
	logPath := ""
	if s.durable {
		dir, err := os.MkdirTemp(h.scratch, "wal-")
		if err != nil {
			return nil, err
		}
		trackDir(dir)
		defer removeDir(dir)
		logPath = filepath.Join(dir, "trace.log")
	}
	plain, untraced, err := replayLayers(ctx, c.schema, opts, router, logPath, c.preload, measured, lines, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced layer replay: %w", err)
	}
	plain.close()
	tr := &tracer{}
	ls, traced, err := replayLayers(ctx, c.schema, opts, router, logPath, c.preload, measured, lines, tr)
	if err != nil {
		return nil, fmt.Errorf("traced layer replay: %w", err)
	}
	ls.close()
	res.stamp("layer_replays", now().Sub(tLayers))
	ns, count, calls := tr.totals()
	inserts := calls["ssr.insert"]
	layer["codec.decode_ns_per_tuple"] = ratio(ns["codec.decode"], float64(inserts))
	layer["prepare.standardize_intern_ns_per_tuple"] = ratio(ns["prepare.standardize_intern"], float64(inserts))
	layer["sym.symbols_per_resident"] = ratio(float64(ls.symtab.Len()), float64(len(ls.byID)))
	layer["shard.route_ns_per_tuple"] = ratio(ns["shard.route"], float64(calls["shard.route"]))
	layer["ssr.insert_ns_per_tuple"] = ratio(ns["ssr.insert"], float64(inserts))
	layer["ssr.candidates_per_insert"] = ratio(float64(count["ssr.insert"]), float64(inserts))
	layer["ssr.remove_ns_per_tuple"] = ratio(ns["ssr.remove"], float64(calls["ssr.remove"]))
	candidates := count["arrival"] // adds over inserts and removals (window re-entries)
	if ls.filter != nil {
		layer["ssr.prefilter_ns_per_pair"] = ratio(ns["ssr.prefilter"], float64(candidates))
		layer["ssr.prefilter_reject_share"] = ratio(float64(count["ssr.prefilter"]), float64(candidates))
	}
	layer["xmatch.compare_ns_per_pair"] = ratio(ns["xmatch.compare"], float64(count["xmatch.compare"]))
	if ls.log != nil {
		layer["wal.append_ns_per_record"] = ratio(ns["wal.append"], float64(calls["wal.append"]))
		layer["wal.log_bytes_per_op"] = ratio(float64(ls.logged), float64(calls["wal.append"]))
		sort.Float64s(ls.fsyncs)
		layer["wal.fsync_ms_p50"] = quantile(ls.fsyncs, 0.5)
	}
	layer["trace.overhead_share"] = float64(traced)/float64(untraced) - 1

	// The whole engines, untraced: the Detector every workload runs on,
	// the Integrator where the workload integrates, the in-process
	// Router for the served ones.
	tEngines := now()
	det, err := probdedup.NewDetector(c.schema, opts, func(probdedup.MatchDelta) bool { return true })
	if err != nil {
		return nil, err
	}
	detCost, err := replayEngine(ctx, det, det.Stats, c.preload, measured)
	if err != nil {
		return nil, fmt.Errorf("detector replay: %w", err)
	}
	det = nil
	whole := detCost
	var resolveSelf time.Duration
	if s.integrate || s.lib {
		events := 0
		ig, err := probdedup.NewIntegrator(c.schema, opts, func(probdedup.EntityDelta) bool { events++; return true })
		if err != nil {
			return nil, err
		}
		igCost, err := replayEngine(ctx, ig, func() probdedup.DetectorStats { return ig.Stats().Detector }, c.preload, measured)
		if err != nil {
			return nil, fmt.Errorf("integrator replay: %w", err)
		}
		whole = igCost
		if resolveSelf = igCost.total() - detCost.total(); resolveSelf < 0 {
			resolveSelf = 0
		}
		layer["resolve.self_ns_per_tuple"] = perOp(resolveSelf, nOps)
		layer["resolve.events_per_op"] = ratio(float64(events), float64(len(c.preload)+nOps))
	}
	if router != nil {
		state := ""
		if s.durable {
			if state, err = os.MkdirTemp(h.scratch, "router-"); err != nil {
				return nil, err
			}
			trackDir(state)
			defer removeDir(state)
		}
		rate, admit, err := replayRouter(s, opts, state, c.preload, measured)
		if err != nil {
			return nil, fmt.Errorf("router replay: %w", err)
		}
		layer["shard.router_ops_per_s"] = rate
		layer["shard.admit_ns_per_tuple"] = admit
		layer["pdedupd.http_share"] = 1 - ratio(daemonRate, rate)
	}
	res.stamp("engine_replays", now().Sub(tEngines))
	layer["core.addbatch_ns_per_tuple"] = perOp(detCost.addBatch, len(c.preload))
	layer["core.add_ns_per_tuple"] = perOp(detCost.adds, detCost.nAdds)
	layer["core.remove_ns_per_tuple"] = perOp(detCost.removes, detCost.nRemove)
	layer["core.compared_per_op"] = ratio(float64(detCost.stats.Compared), float64(nOps))
	layer["core.enumerated_per_op"] = ratio(float64(detCost.stats.Enumerated), float64(nOps))
	layer["core.filtered_share"] = ratio(float64(detCost.stats.Filtered), float64(detCost.stats.Enumerated))
	layer["avm.cache_hit_share"] = ratio(float64(detCost.stats.Cache.Hits), float64(detCost.stats.Cache.Hits+detCost.stats.Cache.Misses))

	// Self time by subtraction, and whether the breakdown adds up: the
	// layers' self times over the measured operations against the whole
	// arrival (decode, route, the workload's engine, the log).
	children := ns["prepare.standardize_intern"] + ns["ssr.insert"] + ns["ssr.remove"] + ns["ssr.prefilter"] + ns["xmatch.compare"]
	coreSelf := float64(detCost.total()) - children
	if coreSelf < 0 {
		coreSelf = 0
	}
	layer["core.self_ns_per_tuple"] = coreSelf / float64(nOps)
	outside := ns["codec.decode"] + ns["shard.route"] + ns["wal.append"] + ns["wal.fsync"]
	sum := outside + children + coreSelf + float64(resolveSelf)
	wholeArrival := outside + float64(whole.total())
	layer["trace.coverage_share"] = ratio(sum, wholeArrival)
	if cov := layer["trace.coverage_share"]; cov < 0.8 || cov > 1.2 {
		res.note("the layer breakdown does not add up: layer self times cover %.2f of the whole-arrival time", cov)
	}

	if s.durable {
		dir, err := os.MkdirTemp(h.scratch, "walcycle-")
		if err != nil {
			return nil, err
		}
		trackDir(dir)
		defer removeDir(dir)
		t0 := now()
		if err := walCycle(dir, c.schema, opts, c.preload, measured, layer); err != nil {
			return nil, fmt.Errorf("wal cycle: %w", err)
		}
		res.stamp("wal_cycle", now().Sub(t0))
	}
	if s.lib {
		if err := snmCells(opts, c.preload, layer); err != nil {
			return nil, err
		}
		// The batch pipeline over the final residents: ROADMAP 3c's
		// batch-vs-incremental reference.
		xr := probdedup.NewXRelation("final", dataset.Schema...)
		for _, o := range residentsAfter(c.all()) {
			xr.Append(o.x)
		}
		t0 := now()
		batch, err := probdedup.Detect(xr, opts)
		if err != nil {
			return nil, err
		}
		layer["core.detect_batch_s"] = now().Sub(t0).Seconds()
		t0 = now()
		if _, err := probdedup.Resolve(opts.Standardizer.XRelation(xr), batch, opts.Final, nil); err != nil {
			return nil, err
		}
		layer["resolve.resolve_batch_s"] = now().Sub(t0).Seconds()
	}

	if err := writeSpans(h, s.name, seed, tr, count); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		res.set(d.name, layer[d.name], d.unit)
	}
	if res.attempted == 0 {
		res.attempted = nOps
	}
	return res, nil
}

// writeSpans writes the spans and the exact counts made at the same
// boundaries to bench/out/trace_<workload>.json.
func writeSpans(h *harness, workload string, seed int64, tr *tracer, counts map[string]int) error {
	dir := filepath.Join(h.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"workload\":%q,\"seed\":%d,\"counts\":{", workload, seed)
	for i, name := range sortedKeys(counts) {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%d", name, counts[name])
	}
	buf.WriteString("},\"spans\":[\n")
	enc := json.NewEncoder(&buf)
	for i, s := range tr.spans {
		if i > 0 {
			buf.Truncate(buf.Len() - 1)
			buf.WriteString(",\n")
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	buf.WriteString("]}\n")
	path := filepath.Join(dir, "trace_"+strings.ReplaceAll(workload, "/", "_")+".json")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
