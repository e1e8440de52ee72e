package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"probdedup/internal/shard"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase stamps one timed phase's wall time, so a reader can check it
// against the noise protocol.
type phase struct {
	name    string
	seconds float64
}

// result is everything one workload run reports.
type result struct {
	spec      spec // as run: scaled to -seconds (and to traceShare by a traced run)
	seconds   float64
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty means correct
	notes     []string // findings that do not make the outputs wrong
	metrics   map[string]metric
	phases    []phase
	samples   int // latency samples behind delta_latency_p50_ms
	// layer holds the diagnostics a served run collects on the side;
	// the traced run reports them as per-layer metrics.
	layer map[string]float64
}

func newResult(s spec, seconds float64) *result {
	return &result{spec: s, seconds: seconds, metrics: map[string]metric{}, layer: map[string]float64{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) stamp(name string, d time.Duration) {
	r.phases = append(r.phases, phase{name, d.Seconds()})
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// harness is what every workload run shares: where the tree is, where
// the daemon binary and the scratch space live.
type harness struct {
	root    string // module root (holds go.mod and BENCHMARK.json)
	bin     string // built pdedupd
	scratch string // parent of per-run state dirs
	trace   bool
	setups  int // set-ups per run; setup_s is their median
}

// quantile returns the q-quantile (0..1) of sorted values by the
// nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// served is one running daemon with its client and subscriber.
type served struct {
	d   *daemon
	c   *client
	sub *subscriber
	// measured marks the daemon whose state the reference step rebuilds:
	// barrier tuples admitted to it are residents too.
	measured bool
	cursor   int // events already folded
}

func (sv *served) stop() {
	if sv.sub != nil {
		sv.sub.close()
	}
	if sv.c != nil {
		sv.c.close()
	}
	if sv.d != nil {
		sv.d.kill()
	}
}

// daemonRun carries one served workload run.
type daemonRun struct {
	h      *harness
	s      spec
	res    *result
	corpus *corpus
	// Pre-rendered request bodies per phase and sender connection.
	preload [senders][]body
	open    [senders][]body
	closed  [senders][]body
	fold    *fold
	// barriers counts the barrier rounds used so far (their tuple IDs
	// must be unique); extra lists the ones admitted to the measured
	// daemon.
	barriers int
	extra    []op
}

// up starts a daemon on state (""), subscribes, ingests the preload
// over both connections and waits until it is applied and delivered.
// It returns the set-up time: process start until every preloaded
// resident is applied.
func (r *daemonRun) up(ctx context.Context, state string, measured bool) (*served, time.Duration, error) {
	d, err := startDaemon(ctx, r.h.bin, daemonArgs(r.s, state))
	if err != nil {
		return nil, 0, err
	}
	sv := &served{d: d, c: newClient(d.addr), measured: measured}
	path := "/v1/deltas"
	if r.s.integrate {
		path = "/v1/entities"
	}
	if sv.sub, err = subscribe(ctx, d.addr, path); err != nil {
		sv.stop()
		return nil, 0, err
	}
	var sc sendCounts
	if err := r.sendAll(ctx, sv, r.preload, &sc); err != nil {
		sv.stop()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	at, err := r.settled(ctx, sv)
	if err != nil {
		sv.stop()
		return nil, 0, fmt.Errorf("preload barrier: %w", err)
	}
	return sv, at.Sub(d.started), nil
}

// sendAll delivers bodies closed-loop: each connection posts its own
// sequence, retrying on 429.
func (r *daemonRun) sendAll(ctx context.Context, sv *served, bodies [senders][]body, sc *sendCounts) error {
	var wg sync.WaitGroup
	var counts [senders]sendCounts
	var errs [senders]error
	for conn := 0; conn < senders; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for _, b := range bodies[conn] {
				if errs[conn] = sv.c.sendRetry(ctx, conn, b, &counts[conn]); errs[conn] != nil {
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	for conn := range counts {
		sc.posts += counts[conn].posts
		sc.rejects += counts[conn].rejects
		sc.failed += counts[conn].failed
	}
	return errors.Join(errs[:]...)
}

// applied admits one round of barrier tuples and returns when every
// shard's barrier delta was read: everything admitted before the call
// has been applied by then (shard queues are FIFO).
func (r *daemonRun) applied(ctx context.Context, sv *served) (time.Time, error) {
	ops := r.corpus.barrier(r.barriers)
	r.barriers++
	bodies, err := renderBodies(ops, len(ops))
	if err != nil {
		return time.Time{}, err
	}
	events, _, _ := sv.sub.snapshot()
	from := len(events)
	var sc sendCounts
	if err := sv.c.sendRetry(ctx, senders, bodies[0], &sc); err != nil {
		return time.Time{}, err
	}
	if sv.measured {
		r.extra = append(r.extra, ops...)
	}
	var needles [][]byte
	for i := 1; i < len(ops); i += 2 {
		needles = append(needles, []byte(`"`+ops[i].id+`"`))
	}
	return sv.sub.await(ctx, from, needles)
}

// settled is applied plus the guarantee that every delta of the
// earlier work has been read. A second barrier round is a strictly
// later operation than the first, so once its deltas arrive, every
// delta of the operation the first round was coalesced into — which a
// batch orders by ID, not by arrival — has arrived too. It returns the
// first round's time: when the work was applied.
func (r *daemonRun) settled(ctx context.Context, sv *served) (time.Time, error) {
	at, err := r.applied(ctx, sv)
	if err != nil {
		return at, err
	}
	_, err = r.applied(ctx, sv)
	return at, err
}

// named is one folded event: the tuple IDs it names and when it was
// read.
type named struct {
	ids []string
	at  time.Time
}

// drainFold folds every event read since the last call and returns
// them in order.
func (r *daemonRun) drainFold(sv *served) ([]named, error) {
	events, _, _ := sv.sub.snapshot()
	out := make([]named, 0, len(events)-sv.cursor)
	for _, ev := range events[sv.cursor:] {
		ids, err := r.fold.applyWire(ev.data)
		if err != nil {
			return nil, err
		}
		out = append(out, named{ids, ev.at})
	}
	sv.cursor = len(events)
	return out, nil
}

// openLoop sends the open-phase bodies on a fixed schedule and samples
// due-time → delta-read latency for every arrival a delta names.
func (r *daemonRun) openLoop(ctx context.Context, sv *served) error {
	// Body k of the interleaved sequence is due when the operations
	// before it have been offered at the fixed rate.
	type slot struct {
		b   body
		due time.Duration
	}
	var plan [senders][]slot
	offered := 0
	for k := 0; ; k++ {
		any := false
		for conn := 0; conn < senders; conn++ {
			if k < len(r.open[conn]) {
				b := r.open[conn][k]
				plan[conn] = append(plan[conn], slot{b, time.Duration(float64(offered) / float64(r.s.openRate) * float64(time.Second))})
				offered += len(b.ops)
				any = true
			}
		}
		if !any {
			break
		}
	}

	dueOf := make(map[string]time.Time, offered)
	var wg sync.WaitGroup
	var counts [senders]sendCounts
	var errs [senders]error
	var lagMax [senders]time.Duration
	t0 := now()
	for conn := 0; conn < senders; conn++ {
		for _, sl := range plan[conn] {
			for _, o := range sl.b.ops {
				if !o.remove {
					dueOf[o.id] = t0.Add(sl.due)
				}
			}
		}
	}
	for conn := 0; conn < senders; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for _, sl := range plan[conn] {
				if wait := t0.Add(sl.due).Sub(now()); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						errs[conn] = ctx.Err()
						return
					}
				}
				lag := now().Sub(t0.Add(sl.due))
				if lag > lagMax[conn] {
					lagMax[conn] = lag
				}
				if errs[conn] = sv.c.sendOnce(ctx, conn, sl.b, &counts[conn]); errs[conn] != nil {
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	end, err := r.settled(ctx, sv)
	if err != nil {
		return fmt.Errorf("open-loop barrier: %w", err)
	}
	r.res.stamp("open_loop", end.Sub(t0))

	// A delta is caused by the latest arrival it names (the other tuples
	// were resident already); an arrival is sampled at the first delta
	// it causes.
	events, err := r.drainFold(sv)
	if err != nil {
		return err
	}
	var lat []float64
	sampled := make(map[string]bool, offered)
	for _, ev := range events {
		cause, latest := "", time.Time{}
		for _, id := range ev.ids {
			if due, ok := dueOf[id]; ok && due.After(latest) {
				cause, latest = id, due
			}
		}
		if cause != "" && !sampled[cause] {
			sampled[cause] = true
			lat = append(lat, float64(ev.at.Sub(latest))/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	r.res.samples = len(lat)
	r.res.set("delta_latency_p50_ms", quantile(lat, 0.5), "ms")
	r.res.layer["pdedupd.delta_latency_p90_ms"] = quantile(lat, 0.9)
	r.res.layer["pdedupd.delta_latency_p99_ms"] = quantile(lat, 0.99)
	lag := lagMax[0]
	var rtts []float64
	for conn := range counts {
		r.res.failed += counts[conn].failed
		if lagMax[conn] > lag {
			lag = lagMax[conn]
		}
		rtts = append(rtts, counts[conn].rtts...)
	}
	sort.Float64s(rtts)
	r.res.layer["pdedupd.post_rtt_ms_p50"] = quantile(rtts, 0.5)
	r.res.layer["bench.gen_lag_ms_max"] = float64(lag) / float64(time.Millisecond)
	r.res.attempted += offered
	if len(lat) < minLatSamples && r.res.seconds >= runSeconds {
		r.res.problem("open loop sampled %d latencies, need %d", len(lat), minLatSamples)
	}
	return nil
}

// closedLoop saturates the daemon with a fixed number of operations
// and times first send → last one applied (barrier read), with the
// daemon's CPU over the same interval. Cost per operation grows as the
// blocks fill, so the phase is measured whole: a median over segments
// of a rising series would be one short sample.
func (r *daemonRun) closedLoop(ctx context.Context, sv *served) error {
	n := 0
	for conn := range r.closed {
		for _, b := range r.closed[conn] {
			n += len(b.ops)
		}
	}
	stop := make(chan struct{})
	var depths []float64
	var sampler sync.WaitGroup
	if r.h.trace {
		// Queue depth is a traced-run diagnostic: polling /v1/stats walks
		// every live pair under the engine lock, which the untraced run
		// must not pay for.
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if st, err := sv.c.stats(ctx); err == nil {
						for _, ps := range st.PerShard {
							depths = append(depths, float64(ps.Queue))
						}
					}
				}
			}
		}()
	}
	harness0 := selfCPU()
	cpu0, err := sv.d.cpuMS()
	if err != nil {
		return err
	}
	var sc sendCounts
	t0 := now()
	err = r.sendAll(ctx, sv, r.closed, &sc)
	close(stop)
	sampler.Wait()
	if err != nil {
		return err
	}
	end, err := r.applied(ctx, sv)
	if err != nil {
		return fmt.Errorf("closed-loop barrier: %w", err)
	}
	cpu1, err := sv.d.cpuMS()
	if err != nil {
		return err
	}
	harness1 := selfCPU()
	if _, err := r.applied(ctx, sv); err != nil { // completes the stream, see settled
		return fmt.Errorf("closed-loop barrier: %w", err)
	}
	wall := end.Sub(t0)
	r.res.stamp("closed_loop", wall)
	r.res.attempted += n
	r.res.failed += sc.failed
	r.res.set("ingest_ops_per_s", float64(n)/wall.Seconds(), "ops/s")
	r.res.set("cpu_ms_per_op", (cpu1-cpu0)/float64(n), "ms")
	if sc.posts > 0 {
		r.res.layer["shard.admission_reject_share"] = float64(sc.rejects) / float64(sc.posts)
	}
	sort.Float64s(depths)
	if len(depths) > 0 {
		r.res.layer["shard.queue_depth_p50"] = quantile(depths, 0.5)
	}
	r.res.layer["bench.gen_cpu_share"] = (harness1 - harness0) / (wall.Seconds() * 1000) / float64(daemonProcs)
	_, err = r.drainFold(sv)
	return err
}

// checkStats requires /v1/stats to agree with what was admitted.
func (r *daemonRun) checkStats(ctx context.Context, sv *served, what string, residents int) (shard.Stats, error) {
	st, err := sv.c.stats(ctx)
	if err != nil {
		return st, err
	}
	if st.Detector.Residents != residents {
		r.res.problem("%s: /v1/stats reports %d residents, expected %d", what, st.Detector.Residents, residents)
	}
	for _, ps := range st.PerShard {
		if ps.Queue != 0 {
			r.res.problem("%s: shard %d still has %d queued operations after its barrier", what, ps.Shard, ps.Queue)
		}
		if ps.Err != "" {
			r.res.problem("%s: shard %d failed: %s", what, ps.Shard, ps.Err)
		}
	}
	return st, nil
}

// runDaemon runs one served workload end to end.
func runDaemon(ctx context.Context, h *harness, s spec, seed int64, seconds float64) (*daemonRun, error) {
	r := &daemonRun{h: h, s: s, res: newResult(s, seconds), fold: newFold(s.integrate)}

	// Inputs: generated and rendered before any timer starts.
	tGen := now()
	var err error
	if r.corpus, err = daemonCorpus(s, seed); err != nil {
		return nil, err
	}
	for _, part := range []struct {
		ops []op
		per int
		dst *[senders][]body
	}{
		{r.corpus.preload, preloadBody, &r.preload},
		{r.corpus.open, openBody, &r.open},
		{r.corpus.closed, closedBody, &r.closed},
	} {
		byConn := splitByConn(part.ops)
		for conn := range byConn {
			if part.dst[conn], err = renderBodies(byConn[conn], part.per); err != nil {
				return nil, err
			}
		}
	}
	r.res.stamp("generate", now().Sub(tGen))

	// Durable state is for the traced run alone: fsync on this box's
	// shared disk takes 0.6-8 ms by the minute, which no change to the
	// repository moves, so no end-to-end number may wait for it.
	durable := s.durable && h.trace
	newState := func() (string, error) {
		if !durable {
			return "", nil
		}
		dir, err := os.MkdirTemp(h.scratch, "state-")
		if err != nil {
			return "", err
		}
		trackDir(dir)
		return dir, nil
	}

	// Set-up, several times: the first ones are thrown away, the last
	// daemon stays up for the measured phases.
	var setups []float64
	var sv *served
	var state string
	for rep := 0; rep < h.setups; rep++ {
		if state, err = newState(); err != nil {
			return nil, err
		}
		var took time.Duration
		last := rep == h.setups-1
		if sv, took, err = r.up(ctx, state, last); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, took.Seconds())
		r.res.stamp(fmt.Sprintf("setup_%d", rep), took)
		if !last {
			sv.stop()
			if state != "" {
				removeDir(state)
			}
		}
	}
	defer func() {
		sv.stop()
		if state != "" {
			removeDir(state)
		}
	}()
	r.res.set("setup_s", median(setups), "s")
	r.res.layer["pdedupd.start_s"] = sv.d.listen.Sub(sv.d.started).Seconds()
	preloaded := len(r.corpus.preload) + len(r.extra)
	if _, err := r.checkStats(ctx, sv, "after preload", preloaded); err != nil {
		return nil, err
	}
	if _, err := r.drainFold(sv); err != nil {
		return nil, err
	}

	if err := r.openLoop(ctx, sv); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	if err := r.closedLoop(ctx, sv); err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	if _, ended, serr := sv.sub.snapshot(); ended || serr != nil {
		r.res.problem("subscriber stream ended during the run (dropped or daemon gone): %v", serr)
	}

	residents := residentsAfter(append(r.corpus.all(), r.extra...))
	st, err := r.checkStats(ctx, sv, "after closed loop", len(residents))
	if err != nil {
		return nil, err
	}
	r.res.layer["shard.skew_max_over_mean"] = skew(st)
	if rss, err := sv.d.rssBytes(); err == nil {
		r.res.layer["pdedupd.rss_bytes_per_resident"] = rss / float64(len(residents))
	}
	events, _, _ := sv.sub.snapshot()
	if wall := events[len(events)-1].at.Sub(sv.d.started).Seconds(); wall > 0 {
		r.res.layer["pdedupd.sse_events_per_s"] = float64(len(events)) / wall
	}

	// Crash and recovery, where the run is durable: SIGKILL, then a
	// restart on the same -state until the pre-crash residents are back —
	// a replay of the whole log, because pdedupd checkpoints only on
	// Close. The SIGTERM below then drains into that checkpoint.
	var recovered *shard.Stats
	if durable {
		sv.stop()
		d, err := startDaemon(ctx, h.bin, daemonArgs(s, state))
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		sv = &served{d: d, c: newClient(d.addr)}
		st, err := r.checkStats(ctx, sv, "after recovery", len(residents))
		if err != nil {
			return nil, err
		}
		rec := now().Sub(d.started)
		r.res.stamp("recover", rec)
		r.res.layer["wal.recover_s"] = rec.Seconds()
		recovered = &st
	}
	drain, err := sv.d.terminate(ctx)
	if err != nil {
		r.res.problem("graceful drain: %v", err)
	}
	r.res.layer["pdedupd.drain_s"] = drain.Seconds()

	// Reference step, with every daemon stopped.
	if err := r.referenceStep(residents, recovered); err != nil {
		return nil, err
	}
	return r, nil
}

// skew is the busiest shard's share of the pairs touched over the mean
// shard's (1 when work is even, the shard count when one shard does it
// all).
func skew(st shard.Stats) float64 {
	max, sum := 0, 0
	for _, ps := range st.PerShard {
		work := ps.Detector.Enumerated + ps.Detector.Compared
		sum += work
		if work > max {
			max = work
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(st.PerShard)) / float64(sum)
}

// referenceStep rebuilds the final state in-process and holds the run
// against it: stream fold ≡ Flush, recovered stats ≡ Flush, and the
// quality and memory metrics that come from the same engine.
func (r *daemonRun) referenceStep(residents []op, recovered *shard.Stats) error {
	t0 := now()
	ref, err := buildShardReference(r.s, residents)
	if err != nil {
		return fmt.Errorf("reference step: %w", err)
	}
	r.res.stamp("reference", now().Sub(t0))
	if err := r.fold.check(ref); err != nil {
		r.res.problem("%v", err)
	}
	if recovered != nil {
		got := recovered.Detector
		if got.Residents != ref.residents || got.Matches != ref.nMatches || got.Possible != ref.nPossible {
			r.res.problem("recovered daemon reports residents/M/P %d/%d/%d, the reference has %d/%d/%d",
				got.Residents, got.Matches, got.Possible, ref.residents, ref.nMatches, ref.nPossible)
		}
	}
	score := f1(r.fold.matches(), truthPairs(residents))
	r.res.set("match_f1", score, "ratio")
	if score < minF1 {
		r.res.problem("match_f1 %.3f is below %.1f: the workload no longer measures detection quality", score, minF1)
	}
	r.res.set("heap_bytes_per_resident", ref.heapPerResident, "B")
	return nil
}
