// Package worlds enumerates the possible worlds induced by probabilistic
// relations and x-relations (PDB = (W, P), Sec. IV of the paper).
//
// A possible world of an x-relation chooses, for every x-tuple, either
// absence (only possible for maybe x-tuples) or one alternative together
// with one concrete value for every uncertain attribute of that alternative.
// World probabilities multiply because x-tuples are independent of each
// other.
//
// Conditioning on the event B that every considered tuple belongs to its
// relation (the paper's normalization p(tⁱ)/p(t), Sec. IV-B) is supported by
// the cond flag: absent choices are dropped and the remaining probabilities
// renormalize per x-tuple, so world probabilities over the conditioned space
// again sum to one.
package worlds

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"probdedup/internal/pdb"
)

// Choice is the contribution of one x-tuple to a possible world: either
// absence (Alt == -1) or a concrete instantiation of one alternative.
type Choice struct {
	// Alt is the alternative index in the x-tuple, or -1 for absence.
	Alt int
	// Values are the concrete attribute values (len = arity); nil when
	// absent. A value may be ⊥.
	Values []pdb.Value
	// P is the probability of this choice.
	P float64
}

// World is one possible world: a choice per x-tuple (parallel to the
// x-relation's tuple order) with the product probability.
type World struct {
	// P is the world probability (already renormalized when conditioned).
	P float64
	// IDs are the x-tuple IDs, parallel to Choices.
	IDs []string
	// Choices holds one Choice per x-tuple.
	Choices []Choice
}

// Contains reports whether the x-tuple at index i is present in the world.
func (w World) Contains(i int) bool { return w.Choices[i].Alt >= 0 }

// Key returns a canonical identity of the world's choice structure
// (alternative indices and concrete values), independent of probability.
func (w World) Key() string {
	var b strings.Builder
	for i, c := range w.Choices {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d", c.Alt)
		for _, v := range c.Values {
			b.WriteByte(',')
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// Distance is the fraction of x-tuples whose choices differ between two
// worlds of the same x-relation. It is the comparison technique on complete
// worlds that Sec. V-A.1 calls for when selecting pairwise dissimilar
// worlds.
func Distance(a, b World) float64 {
	if len(a.Choices) != len(b.Choices) {
		return 1
	}
	if len(a.Choices) == 0 {
		return 0
	}
	diff := 0
	for i := range a.Choices {
		if !sameChoice(a.Choices[i], b.Choices[i]) {
			diff++
		}
	}
	return float64(diff) / float64(len(a.Choices))
}

func sameChoice(a, b Choice) bool {
	if a.Alt != b.Alt || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

// Choices enumerates every choice of one x-tuple. With cond=true the absent
// choice is dropped and probabilities are renormalized by p(t)
// (conditioning on tuple membership). Each alternative expands into the
// cross product of its uncertain attribute values' supports.
func Choices(x *pdb.XTuple, cond bool) []Choice {
	var out []Choice
	scale := 1.0
	if cond {
		pt := x.P()
		if pt <= 0 {
			return nil
		}
		scale = 1 / pt
	}
	for ai, alt := range x.Alts {
		combos := []Choice{{Alt: ai, P: alt.P * scale}}
		for _, d := range alt.Values {
			support := d.Support()
			next := make([]Choice, 0, len(combos)*len(support))
			for _, c := range combos {
				for _, s := range support {
					vals := make([]pdb.Value, len(c.Values)+1)
					copy(vals, c.Values)
					vals[len(c.Values)] = s.Value
					next = append(next, Choice{Alt: ai, Values: vals, P: c.P * s.P})
				}
			}
			combos = next
		}
		out = append(out, combos...)
	}
	if !cond {
		if absent := 1 - x.P(); absent > pdb.Eps {
			out = append(out, Choice{Alt: -1, P: absent})
		}
	}
	return out
}

// Count returns the number of possible worlds of the x-relation as a
// float64 (the count can be astronomically large; float64 keeps the
// magnitude).
func Count(xr *pdb.XRelation, cond bool) float64 {
	total := 1.0
	for _, x := range xr.Tuples {
		total *= float64(len(Choices(x, cond)))
	}
	return total
}

// ErrTooManyWorlds is returned by Enumerate when the world count exceeds the
// limit.
var ErrTooManyWorlds = fmt.Errorf("worlds: possible world count exceeds limit")

// Enumerate materializes all possible worlds. It fails with
// ErrTooManyWorlds if more than limit worlds exist (limit ≤ 0 means 1e6).
func Enumerate(xr *pdb.XRelation, cond bool, limit int) ([]World, error) {
	n := len(xr.Tuples)
	ids := make([]string, n)
	lists := make([][]Choice, n)
	for i, x := range xr.Tuples {
		ids[i] = x.ID
		lists[i] = Choices(x, cond)
	}
	states, err := enumerateIdx(lists, limit)
	if err != nil {
		return nil, err
	}
	out := make([]World, len(states))
	for i, s := range states {
		out[i] = worldFromIdx(ids, lists, s)
	}
	return out, nil
}

// worldIdx identifies a possible world by its per-tuple choice-list
// indices plus the world probability — the form the selections work in
// before worldFromIdx materializes the chosen worlds.
type worldIdx struct {
	// Idx holds one choice-list index per x-tuple (parallel to the list
	// slice the selection ran over).
	Idx []int
	// P is the world probability.
	P float64
}

// worldFromIdx materializes a worldIdx against its choice lists.
func worldFromIdx(ids []string, lists [][]Choice, s worldIdx) World {
	w := World{P: s.P, IDs: ids, Choices: make([]Choice, len(lists))}
	for i, j := range s.Idx {
		w.Choices[i] = lists[i][j]
	}
	return w
}

// CountOf returns the possible-world count over explicit choice lists,
// as a float64 (the count can be astronomically large).
func CountOf(lists [][]Choice) float64 {
	total := 1.0
	for _, cs := range lists {
		total *= float64(len(cs))
	}
	return total
}

// enumerateIdx enumerates every index combination of the given choice
// lists in lexicographic (odometer) order — the list-level core of
// Enumerate. It fails with ErrTooManyWorlds when more than limit worlds
// exist (limit ≤ 0 means 1e6) and returns nil when any tuple has no
// admissible choice.
func enumerateIdx(lists [][]Choice, limit int) ([]worldIdx, error) {
	if limit <= 0 {
		limit = 1_000_000
	}
	if CountOf(lists) > float64(limit) {
		return nil, fmt.Errorf("%w: %.0f > %d", ErrTooManyWorlds, CountOf(lists), limit)
	}
	n := len(lists)
	for _, cs := range lists {
		if len(cs) == 0 {
			return nil, nil // an x-tuple with no admissible choice kills all worlds
		}
	}
	idx := make([]int, n)
	var out []worldIdx
	for {
		s := worldIdx{Idx: make([]int, n), P: 1}
		for i, j := range idx {
			s.Idx[i] = j
			s.P *= lists[i][j].P
		}
		out = append(out, s)
		i := n - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(lists[i]) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return out, nil
		}
	}
}

// ForEach streams every possible world to fn; fn returning false stops the
// iteration. Worlds are produced in lexicographic choice order, which is
// deterministic.
func ForEach(xr *pdb.XRelation, cond bool, fn func(World) bool) {
	n := len(xr.Tuples)
	ids := make([]string, n)
	choiceLists := make([][]Choice, n)
	for i, x := range xr.Tuples {
		ids[i] = x.ID
		choiceLists[i] = Choices(x, cond)
		if len(choiceLists[i]) == 0 {
			return // an x-tuple with no admissible choice kills all worlds
		}
	}
	idx := make([]int, n)
	for {
		w := World{P: 1, IDs: ids, Choices: make([]Choice, n)}
		for i, j := range idx {
			w.Choices[i] = choiceLists[i][j]
			w.P *= choiceLists[i][j].P
		}
		if !fn(w) {
			return
		}
		// Odometer increment.
		i := n - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(choiceLists[i]) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// MembershipProbability returns P(B) = Π p(t): the probability that every
// x-tuple of the relation is present (the paper's event B for ℛ={t32,t42}
// gives 0.72).
func MembershipProbability(xr *pdb.XRelation) float64 {
	p := 1.0
	for _, x := range xr.Tuples {
		p *= x.P()
	}
	return p
}

// MostProbable returns the most probable world. Because x-tuples are
// mutually independent it is the product of per-tuple argmax choices,
// computed without enumeration. Ties resolve to the earlier choice,
// deterministically.
func MostProbable(xr *pdb.XRelation, cond bool) World {
	n := len(xr.Tuples)
	w := World{P: 1, IDs: make([]string, n), Choices: make([]Choice, n)}
	for i, x := range xr.Tuples {
		w.IDs[i] = x.ID
		best := Choice{P: math.Inf(-1)}
		for _, c := range Choices(x, cond) {
			if c.P > best.P+pdb.Eps {
				best = c
			}
		}
		w.Choices[i] = best
		w.P *= best.P
	}
	return w
}

// SortChoices orders a choice list into the descending-probability order
// the top-k expansion works over (stable, so equally probable choices
// keep their enumeration order).
func SortChoices(cs []Choice) {
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].P > cs[b].P })
}

// TopK returns the k most probable worlds in descending probability order
// using lazy best-first expansion over the per-tuple sorted choice lists
// (no full enumeration).
func TopK(xr *pdb.XRelation, cond bool, k int) []World {
	n := len(xr.Tuples)
	if k <= 0 || n == 0 {
		return nil
	}
	ids := make([]string, n)
	lists := make([][]Choice, n)
	for i, x := range xr.Tuples {
		ids[i] = x.ID
		cs := Choices(x, cond)
		if len(cs) == 0 {
			return nil
		}
		SortChoices(cs)
		lists[i] = cs
	}
	states := topKIdx(lists, k)
	out := make([]World, len(states))
	for i, s := range states {
		out[i] = worldFromIdx(ids, lists, s)
	}
	return out
}

// topKIdx is the list-level core of TopK: lazy best-first expansion over
// choice lists that must each be non-empty and ordered by SortChoices.
// It returns nil when no list is given or any list is empty.
func topKIdx(lists [][]Choice, k int) []worldIdx {
	n := len(lists)
	if k <= 0 || n == 0 {
		return nil
	}
	for _, cs := range lists {
		if len(cs) == 0 {
			return nil
		}
	}
	start := worldIdx{Idx: make([]int, n), P: 1}
	for i := range lists {
		start.P *= lists[i][0].P
	}
	heap := []worldIdx{start}
	seen := map[string]bool{key(start.Idx): true}
	pop := func() worldIdx {
		best := 0
		for i := 1; i < len(heap); i++ {
			if heap[i].P > heap[best].P {
				best = i
			}
		}
		s := heap[best]
		heap[best] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		return s
	}
	var out []worldIdx
	for len(out) < k && len(heap) > 0 {
		s := pop()
		out = append(out, s)
		for i := 0; i < n; i++ {
			if s.Idx[i]+1 >= len(lists[i]) {
				continue
			}
			next := make([]int, n)
			copy(next, s.Idx)
			next[i]++
			kk := key(next)
			if seen[kk] {
				continue
			}
			seen[kk] = true
			p := s.P / lists[i][s.Idx[i]].P * lists[i][next[i]].P
			heap = append(heap, worldIdx{Idx: next, P: p})
		}
	}
	return out
}

func key(idx []int) string {
	var b strings.Builder
	for _, v := range idx {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Dissimilar selects k highly probable and pairwise dissimilar worlds, the
// careful world selection Sec. V-A.1 asks for: it draws a candidate pool of
// the `pool` most probable worlds and greedily picks worlds maximizing the
// product of probability and minimum distance to the already selected set.
func Dissimilar(xr *pdb.XRelation, cond bool, k, pool int) []World {
	n := len(xr.Tuples)
	if k <= 0 || n == 0 {
		return nil
	}
	ids := make([]string, n)
	lists := make([][]Choice, n)
	for i, x := range xr.Tuples {
		ids[i] = x.ID
		cs := Choices(x, cond)
		if len(cs) == 0 {
			return nil
		}
		SortChoices(cs)
		lists[i] = cs
	}
	states := dissimilarIdx(lists, k, pool)
	out := make([]World, len(states))
	for i, s := range states {
		out[i] = worldFromIdx(ids, lists, s)
	}
	return out
}

// dissimilarIdx is the list-level core of Dissimilar over choice lists
// ordered by SortChoices. Distance between index vectors counts the
// tuples whose choice indices differ — identical to Distance on the
// materialized worlds, because the choices of one list are pairwise
// distinct.
func dissimilarIdx(lists [][]Choice, k, pool int) []worldIdx {
	if pool < k {
		pool = k * 4
	}
	cands := topKIdx(lists, pool)
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	dist := func(a, b worldIdx) float64 {
		if len(a.Idx) == 0 {
			return 0
		}
		diff := 0
		for i := range a.Idx {
			if a.Idx[i] != b.Idx[i] {
				diff++
			}
		}
		return float64(diff) / float64(len(a.Idx))
	}
	out := []worldIdx{cands[0]} // most probable world always included
	used := map[int]bool{0: true}
	for len(out) < k && len(out) < len(cands) {
		bestIdx, bestScore := -1, math.Inf(-1)
		for i, c := range cands {
			if used[i] {
				continue
			}
			minDist := math.Inf(1)
			for _, s := range out {
				if d := dist(c, s); d < minDist {
					minDist = d
				}
			}
			score := c.P * minDist
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		out = append(out, cands[bestIdx])
	}
	return out
}

// Sample draws one world at random according to the world distribution.
func Sample(xr *pdb.XRelation, cond bool, rng *rand.Rand) World {
	n := len(xr.Tuples)
	w := World{P: 1, IDs: make([]string, n), Choices: make([]Choice, n)}
	for i, x := range xr.Tuples {
		w.IDs[i] = x.ID
		cs := Choices(x, cond)
		r := rng.Float64()
		acc := 0.0
		chosen := cs[len(cs)-1]
		for _, c := range cs {
			acc += c.P
			if r < acc {
				chosen = c
				break
			}
		}
		w.Choices[i] = chosen
		w.P *= chosen.P
	}
	return w
}

// Materialize converts a world into a certain relation: one tuple per
// present x-tuple, attribute values as certain distributions (⊥ stays
// certain ⊥), p(t)=1. Absent x-tuples are skipped.
func Materialize(xr *pdb.XRelation, w World) *pdb.Relation {
	r := pdb.NewRelation(xr.Name, xr.Schema...)
	for i, c := range w.Choices {
		if c.Alt < 0 {
			continue
		}
		attrs := make([]pdb.Dist, len(c.Values))
		for j, v := range c.Values {
			if v.IsNull() {
				attrs[j] = pdb.CertainNull()
			} else {
				attrs[j] = pdb.Certain(v.S())
			}
		}
		r.Append(pdb.NewTuple(w.IDs[i], 1, attrs...))
	}
	return r
}

// FromRelation lifts a dependency-free probabilistic relation into an
// x-relation whose alternatives enumerate each tuple's attribute
// combinations, so the same world machinery applies to both model flavours.
func FromRelation(r *pdb.Relation) *pdb.XRelation {
	xr := pdb.NewXRelation(r.Name, r.Schema...)
	for _, t := range r.Tuples {
		xr.Append(t.ExpandAlternatives())
	}
	return xr
}

// PairRelation builds the two-x-tuple relation {a, b} used when analysing a
// single x-tuple pair (e.g. Fig. 7's worlds of {t32, t42}).
func PairRelation(schema []string, a, b *pdb.XTuple) *pdb.XRelation {
	xr := pdb.NewXRelation("pair", schema...)
	xr.Append(a, b)
	return xr
}
