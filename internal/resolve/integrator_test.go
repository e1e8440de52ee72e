package resolve

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/xmatch"
)

// integratorOpts is the shared pipeline configuration of the
// equivalence tests: one string attribute plus a job attribute,
// Levenshtein everywhere, thresholds that produce all three classes
// on the generator's value pools.
func integratorOpts(t *testing.T, reduction ssr.Method, workers int, std *prepare.Standardizer) core.Options {
	t.Helper()
	final := decision.Thresholds{Lambda: 0.5, Mu: 0.82}
	return core.Options{
		Standardizer: std,
		Compare:      []strsim.Func{strsim.Levenshtein, strsim.Levenshtein},
		AltModel:     decision.SimpleModel{Phi: decision.WeightedSum(0.6, 0.4), T: final},
		Derivation:   xmatch.SimilarityBased{Conditioned: true},
		Final:        final,
		Reduction:    reduction,
		Workers:      workers,
	}
}

// keyDef parses a key definition or fails the test.
func keyDef(t *testing.T, spec string) keys.Def {
	t.Helper()
	def, err := keys.ParseDef(spec, []string{"name", "job"})
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// randomTuple draws a probabilistic person tuple from small value
// pools with typo variants, so declared, possible and non-matches all
// occur and blocking/SNM keys collide.
func randomTuple(rng *rand.Rand, id string) *pdb.XTuple {
	names := []string{"johnson", "jonson", "johnsen", "miller", "muller", "smith", "smyth", "baker"}
	jobs := []string{"pilot", "pilott", "baker", "mechanic", "mechanik"}
	name := names[rng.Intn(len(names))]
	job := jobs[rng.Intn(len(jobs))]
	if rng.Intn(3) == 0 {
		alt := names[rng.Intn(len(names))]
		return pdb.NewXTuple(id,
			pdb.NewAlt(0.7, name, job),
			pdb.NewAlt(0.3, alt, job))
	}
	return pdb.NewXTuple(id, pdb.NewAlt(1, name, job))
}

// batchReference computes the batch pipeline's Resolution over the
// residents: core.Detect then Resolve, on the relation in arrival
// order. When a standardizer is configured the relation is
// standardized first, because that is the data the integrator fuses
// (Detect re-standardizing is a no-op for idempotent transforms).
func batchReference(t *testing.T, residents []*pdb.XTuple, opts core.Options) *Resolution {
	t.Helper()
	xr := pdb.NewXRelation("ref", "name", "job")
	xr.Append(residents...)
	if opts.Standardizer != nil {
		xr = opts.Standardizer.XRelation(xr)
	}
	res, err := core.Detect(xr, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(xr, res, opts.Final, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// renderResolution is the human-readable form printed when the
// equivalence check fails.
func renderResolution(r *Resolution) string {
	var b strings.Builder
	for _, e := range r.Entities {
		fmt.Fprintf(&b, "entity %s members=%v tuple=%s\n", e.ID, e.Members, e.Tuple)
	}
	for _, ud := range r.Uncertain {
		fmt.Fprintf(&b, "uncertain %s|%s sym=%s p=%v merged=%s\n", ud.A, ud.B, ud.Sym, ud.P, ud.Merged)
	}
	for _, s := range r.Universe.Symbols() {
		fmt.Fprintf(&b, "sym %s p=%v\n", s.ID, s.P)
	}
	for _, lt := range r.Tuples {
		conf, err := r.Confidence(lt)
		if err != nil {
			fmt.Fprintf(&b, "tuple %s lineage=%s conf=ERR:%v\n", lt.Tuple.ID, lt.Lineage, err)
			continue
		}
		fmt.Fprintf(&b, "tuple %s lineage=%s conf=%v\n", lt.Tuple.ID, lt.Lineage, conf)
	}
	return b.String()
}

// requireEqualResolution asserts deep (bit-identical floats included)
// equality of two resolutions.
func requireEqualResolution(t *testing.T, label string, got, want *Resolution) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental resolution diverged from batch\n--- incremental ---\n%s--- batch ---\n%s",
			label, renderResolution(got), renderResolution(want))
	}
}

// scheduleConfig is one randomized-equivalence scenario.
type scheduleConfig struct {
	name      string
	reduction func(t *testing.T) ssr.Method
	std       *prepare.Standardizer
	workers   int
}

func scheduleConfigs() []scheduleConfig {
	return []scheduleConfig{
		{name: "cross", reduction: func(t *testing.T) ssr.Method { return nil }},
		{name: "blocking", reduction: func(t *testing.T) ssr.Method {
			return ssr.BlockingCertain{Key: keyDef(t, "name:3")}
		}},
		{name: "snm-window", reduction: func(t *testing.T) ssr.Method {
			return ssr.SNMCertain{Key: keyDef(t, "name:4+job:2"), Window: 3}
		}},
		{name: "pruned-blocking", reduction: func(t *testing.T) ssr.Method {
			return ssr.NewFilter(ssr.BlockingCertain{Key: keyDef(t, "name:2")}, ssr.Pruning{MaxDiff: map[int]int{0: 3}})
		}},
		{name: "cross-standardized-workers", reduction: func(t *testing.T) ssr.Method { return nil },
			std:     prepare.NewStandardizer(prepare.TrimSpace, prepare.TrimSpace),
			workers: 4},
	}
}

// TestIntegratorEquivalesBatchResolveOnRandomSchedules is the
// property-based exactness proof: over ≥50 random operation schedules
// (shuffled insert orders, interleaved removals, re-adds, batch
// arrivals, and sorted-neighborhood window churn), the integrator's
// Flush after EVERY operation equals batch Resolve over core.Detect
// on the residents — same entities, fused tuples, uncertain
// duplicates, lineage and confidences, bit-identical floats.
func TestIntegratorEquivalesBatchResolveOnRandomSchedules(t *testing.T) {
	const seedsPerConfig = 11 // 5 configs × 11 seeds = 55 schedules
	for _, cfg := range scheduleConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seedsPerConfig; seed++ {
				runRandomSchedule(t, cfg, seed, false)
			}
		})
	}
}

// TestIntegratorEventTuplesAreFusedFromResidents runs the random
// schedules of the equivalence test (on other seeds) and checks what the
// integrator keeps and emits besides Flush: no live component holds a
// fused tuple, and every event's entity equals buildEntity over its
// members as they are resident when the event is emitted — for a
// retired singleton, the removed tuple — read from the test's own copy
// of the residents, never from the detector.
func TestIntegratorEventTuplesAreFusedFromResidents(t *testing.T) {
	for _, cfg := range scheduleConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			kinds := map[EntityDeltaKind]int{}
			for seed := int64(100); seed < 106; seed++ {
				for k, n := range runRandomSchedule(t, cfg, seed, true) {
					kinds[k] += n
				}
			}
			for k := EntityCreated; k <= EntityRetired; k++ {
				if kinds[k] == 0 {
					t.Fatalf("no %s event was checked: %v", k, kinds)
				}
			}
		})
	}
}

// runRandomSchedule drives one random schedule and requires Flush to
// equal batch Resolve after every operation. With fidelity set it also
// checks every emitted event's entity against the residents, and that
// no live component holds a fused tuple. It returns how many events of
// each kind were emitted.
func runRandomSchedule(t *testing.T, cfg scheduleConfig, seed int64, fidelity bool) map[EntityDeltaKind]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	opts := integratorOpts(t, cfg.reduction(t), cfg.workers, cfg.std)
	var events []EntityDelta
	kinds := map[EntityDeltaKind]int{}
	emit := func(ev EntityDelta) bool {
		events = append(events, ev)
		kinds[ev.Kind]++
		return true
	}
	ig, err := NewIntegrator([]string{"name", "job"}, opts, emit)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	var residents []*pdb.XTuple
	removed := map[string]*pdb.XTuple{}
	next := 0
	newTuple := func() *pdb.XTuple {
		x := randomTuple(rng, fmt.Sprintf("t%03d", next))
		next++
		return x
	}
	addResident := func(x *pdb.XTuple) { residents = append(residents, x) }
	dropResident := func(id string) *pdb.XTuple {
		for i, x := range residents {
			if x.ID == id {
				residents = append(residents[:i], residents[i+1:]...)
				return x
			}
		}
		t.Fatalf("seed %d: resident %s missing from shadow state", seed, id)
		return nil
	}

	const ops = 34
	for op := 0; op < ops; op++ {
		events = events[:0]
		var gone *pdb.XTuple // the tuple this operation removed
		switch k := rng.Intn(10); {
		case k < 4 || len(residents) == 0: // add one fresh tuple
			x := newTuple()
			if err := ig.Add(x); err != nil {
				t.Fatalf("seed %d op %d: Add: %v", seed, op, err)
			}
			addResident(x)
		case k < 6: // add a batch of fresh tuples
			n := 2 + rng.Intn(5)
			batch := make([]*pdb.XTuple, n)
			for i := range batch {
				batch[i] = newTuple()
			}
			if err := ig.AddBatch(batch); err != nil {
				t.Fatalf("seed %d op %d: AddBatch: %v", seed, op, err)
			}
			for _, x := range batch {
				addResident(x)
			}
		case k < 9: // remove a random resident
			id := residents[rng.Intn(len(residents))].ID
			if err := ig.Remove(id); err != nil {
				t.Fatalf("seed %d op %d: Remove(%s): %v", seed, op, id, err)
			}
			gone = dropResident(id)
			removed[id] = gone
		default: // re-add a previously removed tuple (drop/re-add churn)
			var ids []string
			for id := range removed {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				x := newTuple()
				if err := ig.Add(x); err != nil {
					t.Fatalf("seed %d op %d: Add: %v", seed, op, err)
				}
				addResident(x)
				break
			}
			id := ids[rng.Intn(len(ids))]
			x := removed[id]
			delete(removed, id)
			if err := ig.Add(x); err != nil {
				t.Fatalf("seed %d op %d: re-Add(%s): %v", seed, op, id, err)
			}
			addResident(x)
		}

		got, err := ig.Flush()
		if err != nil {
			t.Fatalf("seed %d op %d: Flush: %v", seed, op, err)
		}
		want := batchReference(t, residents, opts)
		if fidelity {
			checkEventTuples(t, fmt.Sprintf("%s seed %d op %d", cfg.name, seed, op), ig, events, want, residents, gone, opts.Standardizer)
		}
		requireEqualResolution(t, fmt.Sprintf("%s seed %d op %d (%d residents)", cfg.name, seed, op, len(residents)), got, want)
	}
	return kinds
}

// checkEventTuples holds one operation's events to the batch result ref
// and the residents after it: each event's entity must be buildEntity
// over the members ref gives its ID, looked up in residents
// (standardized as the integrator stores them), except a retirement,
// whose one member is the tuple the operation removed. It also requires
// every live component to hold no fused tuple.
func checkEventTuples(t *testing.T, label string, ig *Integrator, events []EntityDelta, ref *Resolution, residents []*pdb.XTuple, gone *pdb.XTuple, std *prepare.Standardizer) {
	t.Helper()
	for id, e := range ig.compOf {
		if e.Tuple != nil {
			t.Fatalf("%s: the live component of %s holds a fused tuple", label, id)
		}
	}
	stored := func(x *pdb.XTuple) *pdb.XTuple {
		if std != nil {
			return std.XTuple(x)
		}
		return x
	}
	byID := map[string]*pdb.XTuple{}
	for _, x := range residents {
		byID[x.ID] = stored(x)
	}
	membersOf := map[string][]string{}
	for _, e := range ref.Entities {
		membersOf[e.ID] = e.Members
	}
	for _, ev := range events {
		members := membersOf[ev.Entity.ID]
		lookup := func(id string) (*pdb.XTuple, bool) {
			x, ok := byID[id]
			return x, ok
		}
		if ev.Kind == EntityRetired {
			if gone == nil || ev.Entity.ID != gone.ID {
				t.Fatalf("%s: retirement of %s does not name the removed tuple", label, ev.Entity.ID)
			}
			members = []string{gone.ID}
			lookup = func(id string) (*pdb.XTuple, bool) { return stored(gone), id == gone.ID }
		}
		want, err := buildEntity(members, lookup)
		if err != nil {
			t.Fatalf("%s: %s %s: members not resident at emit: %v", label, ev.Kind, ev.Entity.ID, err)
		}
		if !reflect.DeepEqual(ev.Entity, want) {
			t.Fatalf("%s: %s event tuple %s, want %s", label, ev.Kind, ev.Entity.Tuple, want.Tuple)
		}
	}
}

// TestIntegratorOutputsDoNotAliasState: consumers may edit what they
// receive, so an edit to an event's entity (members and fused tuple) or
// to anything a Flush returned must not reach the integrator's state.
// Every event is overwritten as it is emitted and every Flush result
// after it is checked; the next Flush must still equal batch Resolve.
// The schedule opens with two singletons, then adds and removes tuples
// until every event kind has been edited.
func TestIntegratorOutputsDoNotAliasState(t *testing.T) {
	opts := integratorOpts(t, ssr.SNMAlternatives{Key: keyDef(t, "name:3+job:2"), Window: 3}, 1, nil)
	kinds := map[EntityDeltaKind]int{}
	ig, err := NewIntegrator([]string{"name", "job"}, opts, func(ev EntityDelta) bool {
		kinds[ev.Kind]++
		overwriteEntity(&ev.Entity)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var residents []*pdb.XTuple
	check := func(label string) {
		t.Helper()
		got, err := ig.Flush()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResolution(t, label, got, batchReference(t, residents, opts))
		for i := range got.Entities {
			overwriteEntity(&got.Entities[i])
		}
		for _, ud := range got.Uncertain {
			overwriteTuple(ud.Merged)
		}
	}
	for _, x := range []*pdb.XTuple{
		pdb.NewXTuple("a", pdb.NewAlt(1, "johnson", "pilot")),
		pdb.NewXTuple("b", pdb.NewAlt(1, "baker", "mechanic")),
	} {
		mustDo(t, ig.Add(x))
		residents = append(residents, x)
	}
	check("two singletons")
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 60; op++ {
		if len(residents) > 2 && rng.Intn(3) == 0 {
			i := rng.Intn(len(residents))
			mustDo(t, ig.Remove(residents[i].ID))
			residents = slices.Delete(residents, i, i+1)
		} else {
			x := randomTuple(rng, fmt.Sprintf("t%03d", op))
			mustDo(t, ig.Add(x))
			residents = append(residents, x)
		}
		check(fmt.Sprintf("op %d", op))
	}
	for k := EntityCreated; k <= EntityRetired; k++ {
		if kinds[k] == 0 {
			t.Fatalf("no %s event was edited: %v", k, kinds)
		}
	}
}

// overwriteEntity edits everything an output entity carries in place.
func overwriteEntity(e *Entity) {
	for i := range e.Members {
		e.Members[i] = "edited"
	}
	overwriteTuple(e.Tuple)
}

func overwriteTuple(x *pdb.XTuple) {
	x.ID = "edited"
	for ai := range x.Alts {
		for i := range x.Alts[ai].Values {
			x.Alts[ai].Values[i] = pdb.Certain("edited")
		}
	}
}

// TestIntegratorEventStreamFoldsToFlush checks the entity-delta
// stream's classification against the live state: folded into an
// entity ID → members map, the events after every operation must give
// exactly Flush's entities. A membership event's kind and From follow
// from which entities held its members before the operation: none is
// created, one without arrivals is a split (of a strict subset), any
// other mix is a merge; From lists those entities, and the event
// replaces them. Retired and refused name a live entity with its
// current members.
func TestIntegratorEventStreamFoldsToFlush(t *testing.T) {
	for _, cfg := range scheduleConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 11; seed++ {
				foldSchedule(t, cfg, seed)
			}
		})
	}
}

func foldSchedule(t *testing.T, cfg scheduleConfig, seed int64) {
	t.Helper()
	live := map[string][]string{}
	var before map[string][]string // live at the start of the operation
	ownerOf := map[string]string{} // member → its entity in before
	var foldErr error
	fail := func(ev EntityDelta, why string) {
		if foldErr == nil {
			foldErr = fmt.Errorf("%s %s from=%v: %s", ev.Kind, ev.Entity.ID, ev.From, why)
		}
	}
	emit := func(ev EntityDelta) bool {
		id, members := ev.Entity.ID, ev.Entity.Members
		switch ev.Kind {
		case EntityCreated, EntityMerged, EntitySplit:
			srcs := map[string]bool{}
			arrivals := 0
			for _, m := range members {
				if eid, ok := ownerOf[m]; ok {
					srcs[eid] = true
				} else {
					arrivals++
				}
			}
			from := slices.Sorted(maps.Keys(srcs))
			want := EntityMerged
			switch {
			case len(from) == 0:
				want = EntityCreated
			case len(from) == 1 && arrivals == 0:
				want = EntitySplit
				if len(members) == len(before[from[0]]) {
					fail(ev, "reports an unchanged membership")
				}
			}
			if ev.Kind != want || !slices.Equal(ev.From, from) {
				fail(ev, fmt.Sprintf("want %s from=%v", want, from))
			}
			for _, eid := range from {
				delete(live, eid)
			}
			if _, ok := live[id]; ok {
				fail(ev, "names a live entity")
			}
			live[id] = members
		case EntityRetired, EntityRefused:
			if !reflect.DeepEqual(live[id], members) {
				fail(ev, fmt.Sprintf("live members %v, event members %v", live[id], members))
			}
			if ev.Kind == EntityRetired {
				delete(live, id)
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(seed))
	ig, err := NewIntegrator([]string{"name", "job"}, integratorOpts(t, cfg.reduction(t), cfg.workers, cfg.std), emit)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	next := 0
	fresh := func() *pdb.XTuple {
		id := fmt.Sprintf("t%03d", next)
		next++
		ids = append(ids, id)
		return randomTuple(rng, id)
	}
	for op := 0; op < 34; op++ {
		before = maps.Clone(live)
		clear(ownerOf)
		for eid, members := range before {
			for _, m := range members {
				ownerOf[m] = eid
			}
		}
		switch k := rng.Intn(10); {
		case k < 4 || len(ids) == 0:
			mustDo(t, ig.Add(fresh()))
		case k < 6:
			batch := make([]*pdb.XTuple, 2+rng.Intn(5))
			for i := range batch {
				batch[i] = fresh()
			}
			mustDo(t, ig.AddBatch(batch))
		default:
			i := rng.Intn(len(ids))
			mustDo(t, ig.Remove(ids[i]))
			ids = append(ids[:i], ids[i+1:]...)
		}
		if foldErr != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, foldErr)
		}
		r, err := ig.Flush()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]string{}
		for _, e := range r.Entities {
			want[e.ID] = e.Members
		}
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("seed %d op %d: folded events %v, Flush entities %v", seed, op, live, want)
		}
	}
}

// TestIntegratorEntityDeltaStreamWorkerInvariant replays one schedule
// at several Options.Workers settings and requires the emitted entity
// delta stream to be identical — the integrator's analogue of the
// detector's worker-invariance contract.
func TestIntegratorEntityDeltaStreamWorkerInvariant(t *testing.T) {
	streamAt := func(workers int) []string {
		var events []string
		opts := integratorOpts(t, nil, workers, nil)
		ig, err := NewIntegrator([]string{"name", "job"}, opts, func(ev EntityDelta) bool {
			events = append(events, fmt.Sprintf("%s %s members=%v from=%v", ev.Kind, ev.Entity.ID, ev.Entity.Members, ev.From))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var batch []*pdb.XTuple
		for i := 0; i < 40; i++ {
			batch = append(batch, randomTuple(rng, fmt.Sprintf("t%03d", i)))
		}
		// A large batch (40 tuples, cross product → 780 pairs) forces
		// the detector's parallel verification phase at workers > 1.
		if err := ig.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := ig.Remove(fmt.Sprintf("t%03d", rng.Intn(40))); err != nil {
				t.Fatal(err)
			}
			if err := ig.Add(randomTuple(rng, fmt.Sprintf("r%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return events
	}
	want := streamAt(1)
	if len(want) == 0 {
		t.Fatal("schedule produced no entity deltas; test is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got := streamAt(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d changed the entity delta stream\ngot:  %v\nwant: %v", workers, got, want)
		}
	}
}

// TestIntegratorEntityDeltaKinds pins the typed event contract on a
// hand-built scenario covering all five kinds.
func TestIntegratorEntityDeltaKinds(t *testing.T) {
	final := decision.Thresholds{Lambda: 0.5, Mu: 0.9}
	opts := core.Options{
		Compare:    []strsim.Func{strsim.Levenshtein},
		AltModel:   decision.SimpleModel{Phi: decision.WeightedSum(1), T: final},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      final,
	}
	var events []string
	ig, err := NewIntegrator([]string{"name"}, opts, func(ev EntityDelta) bool {
		events = append(events, fmt.Sprintf("%s %s from=%v", ev.Kind, ev.Entity.ID, ev.From))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(want ...string) {
		t.Helper()
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("events = %q, want %q", events, want)
		}
		events = nil
	}

	// Fresh singleton: created.
	mustDo(t, ig.Add(pdb.NewXTuple("a", pdb.NewAlt(1, "johnson"))))
	step("created a from=[]")
	// Identical value matches (sim 1 ≥ μ): entity a absorbs b.
	mustDo(t, ig.Add(pdb.NewXTuple("b", pdb.NewAlt(1, "johnson"))))
	step("merged a+b from=[a]")
	// A possible match (λ < sim < μ) against the fused entity: the new
	// singleton is created and a+b is re-derived (uncertain partner).
	mustDo(t, ig.Add(pdb.NewXTuple("c", pdb.NewAlt(1, "johnsen"))))
	step("created c from=[]", "refused a+b from=[]")
	// Removing b splits nothing (a remains) but shrinks the entity:
	// split; c's uncertain partner is renamed: refused.
	mustDo(t, ig.Remove("b"))
	step("split a from=[a+b]", "refused c from=[]")
	// Removing a retires its entity and re-derives c.
	mustDo(t, ig.Remove("a"))
	step("retired a from=[]", "refused c from=[]")

	st := ig.Stats()
	if st.Entities != 1 || st.Events != 8 {
		t.Fatalf("stats = %+v, want 1 entity, 8 events", st)
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestIntegratorEmitReentrancyAndStop checks the two callback
// contracts: the callback may call back into the integrator, and a
// false return permanently stops delivery while state maintenance
// continues.
func TestIntegratorEmitReentrancyAndStop(t *testing.T) {
	final := decision.Thresholds{Lambda: 0.5, Mu: 0.9}
	opts := core.Options{
		Compare:    []strsim.Func{strsim.Levenshtein},
		AltModel:   decision.SimpleModel{Phi: decision.WeightedSum(1), T: final},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      final,
	}
	calls := 0
	var ig *Integrator
	ig, err := NewIntegrator([]string{"name"}, opts, func(ev EntityDelta) bool {
		calls++
		// Re-enter: snapshots must not deadlock.
		if _, err := ig.Flush(); err != nil {
			t.Errorf("re-entrant Flush: %v", err)
		}
		ig.Len()
		ig.Stats()
		return calls < 2 // stop after the second event
	})
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, ig.Add(pdb.NewXTuple("a", pdb.NewAlt(1, "johnson"))))
	mustDo(t, ig.Add(pdb.NewXTuple("b", pdb.NewAlt(1, "johnson"))))
	mustDo(t, ig.Add(pdb.NewXTuple("c", pdb.NewAlt(1, "miller"))))
	if calls != 2 {
		t.Fatalf("emit calls = %d, want 2 (stopped)", calls)
	}
	if !ig.Stats().Stopped {
		t.Fatal("Stopped not reported")
	}
	// State kept up regardless of the stop.
	r, err := ig.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entities) != 2 {
		t.Fatalf("entities = %d, want 2", len(r.Entities))
	}
}

// TestIntegratorBatchPartialApply mirrors the detector's BatchError
// boundary: the successful prefix of a failing batch is integrated.
func TestIntegratorBatchPartialApply(t *testing.T) {
	final := decision.Thresholds{Lambda: 0.5, Mu: 0.9}
	opts := core.Options{
		Compare:    []strsim.Func{strsim.Levenshtein},
		AltModel:   decision.SimpleModel{Phi: decision.WeightedSum(1), T: final},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      final,
	}
	ig, err := NewIntegrator([]string{"name"}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []*pdb.XTuple{
		pdb.NewXTuple("a", pdb.NewAlt(1, "johnson")),
		pdb.NewXTuple("b", pdb.NewAlt(1, "johnson")),
		nil, // validation failure at index 2
		pdb.NewXTuple("d", pdb.NewAlt(1, "miller")),
	}
	if err := ig.AddBatch(batch); err == nil {
		t.Fatal("AddBatch accepted a nil tuple")
	}
	r, err := ig.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entities) != 1 || r.Entities[0].ID != "a+b" {
		t.Fatalf("entities after partial batch = %+v, want one a+b", r.Entities)
	}
	xr := pdb.NewXRelation("ref", "name").Append(batch[0], batch[1])
	res, err := core.Detect(xr, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Resolve(xr, res, final, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResolution(t, "partial batch", r, ref)
}
