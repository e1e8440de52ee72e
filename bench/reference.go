package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"probdedup"
	"probdedup/internal/shard"
)

// matchEvent and entityEvent are the wire forms of pdedupd's two SSE
// streams (cmd/pdedupd/server.go).
type matchEvent struct {
	Kind  string `json:"kind"`
	A     string `json:"a"`
	B     string `json:"b"`
	Class string `json:"class"`
}

type entityEvent struct {
	Event   string   `json:"event"`
	ID      string   `json:"id"`
	Members []string `json:"members"`
	From    []string `json:"from"`
}

// fold is the state a subscriber reconstructs from a delta stream:
// the classified M/P pairs of /v1/deltas, or the live entities of
// /v1/entities. The reference step requires it to equal the engine's
// own Flush exactly.
type fold struct {
	integrate bool
	class     map[probdedup.Pair]string // "m" or "p"
	entities  map[string][]string       // entity ID → members
}

func newFold(integrate bool) *fold {
	return &fold{integrate: integrate, class: map[probdedup.Pair]string{}, entities: map[string][]string{}}
}

// applyWire folds one SSE payload and returns the tuple IDs it names.
func (f *fold) applyWire(data []byte) ([]string, error) {
	if f.integrate {
		var ev entityEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return nil, fmt.Errorf("entity event %q: %w", data, err)
		}
		return f.applyEntity(ev)
	}
	var ev matchEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		return nil, fmt.Errorf("match event %q: %w", data, err)
	}
	p := probdedup.NewPair(ev.A, ev.B)
	switch ev.Kind {
	case "add":
		if ev.Class == "m" || ev.Class == "p" {
			f.class[p] = ev.Class
		}
	case "drop":
		delete(f.class, p)
	default:
		return nil, fmt.Errorf("match event of unknown kind %q", ev.Kind)
	}
	return []string{ev.A, ev.B}, nil
}

func (f *fold) applyEntity(ev entityEvent) ([]string, error) {
	switch ev.Event {
	case "created", "refused":
		f.entities[ev.ID] = ev.Members
	case "merged", "split":
		for _, from := range ev.From {
			delete(f.entities, from)
		}
		f.entities[ev.ID] = ev.Members
	case "retired":
		delete(f.entities, ev.ID)
	default:
		return nil, fmt.Errorf("entity event of unknown kind %q", ev.Event)
	}
	return ev.Members, nil
}

// matches returns the declared M set: the m-classified pairs, or with
// -integrate the co-membership pairs of the entities.
func (f *fold) matches() probdedup.PairSet {
	out := probdedup.PairSet{}
	if !f.integrate {
		for p, c := range f.class {
			if c == "m" {
				out[p] = true
			}
		}
		return out
	}
	for _, members := range f.entities {
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				out.Add(members[i], members[j])
			}
		}
	}
	return out
}

// reference is the engine's own final state, rebuilt in-process over
// the workload's final resident set.
type reference struct {
	residents         int
	matches, possible probdedup.PairSet // pair mode
	entities          map[string]bool   // integrate mode: entity IDs (sorted members joined by '+')
	nMatches          int               // Stats().Matches of the reference engine
	nPossible         int
	heapPerResident   float64
}

// heapAlloc is the live heap after two forced collections (the second
// frees what finalizers of the first released).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildShardReference ingests residents into an in-process Router with
// the daemon's configuration (no HTTP, no WAL) and takes its Flush. A
// full queue is drained and retried, so the queue never grows with the
// input and heap_bytes_per_resident measures the engines.
func buildShardReference(s spec, residents []op) (*reference, error) {
	opts, err := daemonOptions()
	if err != nil {
		return nil, err
	}
	before := heapAlloc()
	r, err := shard.Open(shard.Config{
		Shards:    referenceShards,
		Schema:    daemonSchemaNames(),
		Opts:      opts,
		Integrate: s.integrate,
	})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for _, o := range residents {
		for {
			err := r.Ingest(o.x)
			var over *shard.OverloadedError
			if errors.As(err, &over) {
				if err := r.Drain(); err != nil {
					return nil, err
				}
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("reference ingest of %s: %w", o.id, err)
			}
			break
		}
	}
	res, err := r.Flush()
	if err != nil {
		return nil, err
	}
	ref := &reference{
		residents: len(residents),
		matches:   res.Matches,
		possible:  res.Possible,
		nMatches:  len(res.Matches),
		nPossible: len(res.Possible),
	}
	if s.integrate {
		resolution, err := r.FlushEntities()
		if err != nil {
			return nil, err
		}
		ref.entities = map[string]bool{}
		for _, e := range resolution.Entities {
			ref.entities[e.ID] = true
		}
	}
	// The Flush results above are small next to the engines; dropping
	// them first keeps the reading about resident state.
	res = nil
	after := heapAlloc()
	if after > before {
		ref.heapPerResident = float64(after-before) / float64(len(residents))
	}
	runtime.KeepAlive(r)
	return ref, nil
}

// entityID is the integrator's deterministic entity identity.
func entityID(members []string) string {
	m := append([]string(nil), members...)
	sort.Strings(m)
	return strings.Join(m, "+")
}

// diffSets describes how two ID sets differ, for a failure message.
func diffSets(what string, got, want map[string]bool) error {
	var missing, extra []string
	for id := range want {
		if !got[id] {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	trim := func(s []string) []string {
		if len(s) > 5 {
			return s[:5]
		}
		return s
	}
	return fmt.Errorf("%s: stream fold differs from the reference Flush: %d missing (e.g. %v), %d extra (e.g. %v)",
		what, len(missing), trim(missing), len(extra), trim(extra))
}

func pairKeys(ps probdedup.PairSet) map[string]bool {
	out := make(map[string]bool, len(ps))
	for p := range ps {
		out[p.A+"|"+p.B] = true
	}
	return out
}

// check requires the folded stream to equal the reference exactly:
// the M and P pair sets, or with -integrate the entity member sets.
func (f *fold) check(ref *reference) error {
	if f.integrate {
		got := make(map[string]bool, len(f.entities))
		for _, members := range f.entities {
			got[entityID(members)] = true
		}
		return diffSets("entities", got, ref.entities)
	}
	gotM, gotP := probdedup.PairSet{}, probdedup.PairSet{}
	for p, c := range f.class {
		if c == "m" {
			gotM[p] = true
		} else {
			gotP[p] = true
		}
	}
	if err := diffSets("M pairs", pairKeys(gotM), pairKeys(ref.matches)); err != nil {
		return err
	}
	return diffSets("P pairs", pairKeys(gotP), pairKeys(ref.possible))
}

// f1 scores a declared match set against the planted duplicate pairs.
func f1(declared, truth probdedup.PairSet) float64 {
	tp := 0
	for p := range declared {
		if truth[p] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(len(declared))
	recall := float64(tp) / float64(len(truth))
	return 2 * precision * recall / (precision + recall)
}
