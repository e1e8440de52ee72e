package probdedup_test

import (
	"fmt"

	"probdedup"
)

// ExampleAttrSim reproduces the paper's Sec. IV-A attribute matching:
// the expected similarity of two uncertain name values under the
// normalized Hamming comparison function.
func ExampleAttrSim() {
	a1 := probdedup.Certain("Tim")
	a2 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("Tim"), P: 0.7},
		probdedup.Alternative{Value: probdedup.V("Kim"), P: 0.3},
	)
	fmt.Printf("%.2f\n", probdedup.AttrSim(probdedup.NormalizedHamming, a1, a2))
	// Output: 0.90
}

// ExampleEqualitySim shows Eq. 4: the probability that two uncertain
// values are equal (error-free data).
func ExampleEqualitySim() {
	a1 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("John"), P: 0.5},
		probdedup.Alternative{Value: probdedup.V("Johan"), P: 0.5},
	)
	a2 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("John"), P: 0.7},
		probdedup.Alternative{Value: probdedup.V("Jon"), P: 0.3},
	)
	fmt.Printf("%.2f\n", probdedup.EqualitySim(a1, a2))
	// Output: 0.35
}

// ExampleDetectRelations runs the full pipeline on two tiny probabilistic
// relations and prints the matching decision for each pair.
func ExampleDetectRelations() {
	r1 := probdedup.NewRelation("R1", "name", "job").Append(
		probdedup.NewTuple("t11", 1.0,
			probdedup.Certain("Tim"),
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("machinist"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("mechanic"), P: 0.2})),
	)
	r2 := probdedup.NewRelation("R2", "name", "job").Append(
		probdedup.NewTuple("t22", 0.8,
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("Tim"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("Kim"), P: 0.3}),
			probdedup.Certain("mechanic")),
	)
	res, err := probdedup.DetectRelations(r1, r2, probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.NormalizedHamming, probdedup.NormalizedHamming},
		AltModel: probdedup.SimpleModel{
			Phi: probdedup.WeightedSum(0.8, 0.2),
			T:   probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Compared {
		m := res.ByPair[p]
		fmt.Printf("η(%s,%s) = %s (sim %.4f)\n", p.A, p.B, m.Class, m.Sim)
	}
	// Output: η(t11,t22) = m (sim 0.8378)
}

// ExampleEnumerateWorlds lists the possible worlds of a maybe x-tuple.
func ExampleEnumerateWorlds() {
	xr := probdedup.NewXRelation("X", "name", "job").Append(
		probdedup.NewXTuple("t42", probdedup.NewAlt(0.8, "Tom", "mechanic")),
	)
	ws, err := probdedup.EnumerateWorlds(xr, false, 0)
	if err != nil {
		panic(err)
	}
	for _, w := range ws {
		if w.Contains(0) {
			fmt.Printf("present: %.2f\n", w.P)
		} else {
			fmt.Printf("absent:  %.2f\n", w.P)
		}
	}
	// Output:
	// present: 0.80
	// absent:  0.20
}

// ExampleParseRules parses an identification rule in the paper's Fig. 1
// syntax.
func ExampleParseRules() {
	rules, err := probdedup.ParseRules(
		"IF name > 0.8 AND job > 0.7 THEN DUPLICATES WITH CERTAINTY=0.8",
		[]string{"name", "job"})
	if err != nil {
		panic(err)
	}
	r := rules[0]
	fmt.Println(len(r.Conditions), r.Certainty)
	// Output: 2 0.8
}

// ExampleSNMAlternatives shows the sorting-alternatives reduction on two
// x-tuples sharing an alternative key value.
func ExampleSNMAlternatives() {
	xr := probdedup.NewXRelation("X", "name", "job").Append(
		probdedup.NewXTuple("a",
			probdedup.NewAlt(0.6, "Tim", "mechanic"),
			probdedup.NewAlt(0.4, "Jim", "baker")),
		probdedup.NewXTuple("b", probdedup.NewAlt(1.0, "Tim", "mechanic")),
		probdedup.NewXTuple("c", probdedup.NewAlt(1.0, "Zoe", "pilot")),
	)
	def, err := probdedup.ParseKeyDef("name:3+job:2", xr.Schema)
	if err != nil {
		panic(err)
	}
	m := probdedup.SNMAlternatives{Key: def, Window: 2}
	for _, p := range probdedup.Candidates(m, xr).Sorted() {
		fmt.Printf("(%s,%s)\n", p.A, p.B)
	}
	// Output:
	// (a,b)
	// (b,c)
}

// ExampleDetectStream runs the streaming engine: each compared pair's
// match is emitted through the callback and nothing is retained — the
// entry point for large inputs. A sequential run emits in the
// reduction method's enumeration order.
func ExampleDetectStream() {
	xr := probdedup.NewXRelation("X", "name", "job").Append(
		probdedup.NewXTuple("a", probdedup.NewAlt(1.0, "Tim", "mechanic")),
		probdedup.NewXTuple("b",
			probdedup.NewAlt(0.7, "Tim", "mechanic"),
			probdedup.NewAlt(0.3, "Kim", "mechanic")),
		probdedup.NewXTuple("c", probdedup.NewAlt(1.0, "Zoe", "pilot")),
	)
	stats, err := probdedup.DetectStream(xr, probdedup.Options{
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}, func(m probdedup.PairMatch) bool {
		fmt.Printf("η(%s,%s) = %s (sim %.2f)\n", m.Pair.A, m.Pair.B, m.Class, m.Sim)
		return true // false stops the run early
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("compared %d of %d pairs, matches=%d\n", stats.Compared, stats.TotalPairs, stats.Matches)
	// Output:
	// η(a,b) = m (sim 0.95)
	// η(a,c) = u (sim 0.00)
	// η(b,c) = u (sim 0.00)
	// compared 3 of 3 pairs, matches=1
}

// ExampleDetector runs the incremental online engine: tuples arrive
// one at a time, each is compared only against incrementally
// maintained candidates, and removing a tuple retracts its pair
// decisions. Only M and P pairs are state: a comparison that ends in u
// is counted and emits no delta. Flush returns exactly the M and P
// pairs batch Detect would find on the resident relation.
func ExampleDetector() {
	schema := []string{"name", "job"}
	det, err := probdedup.NewDetector(schema, probdedup.Options{
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}, func(md probdedup.MatchDelta) bool {
		sign := "+"
		if md.Kind == probdedup.DeltaDrop {
			sign = "-"
		}
		fmt.Printf("%s η(%s,%s) = %s\n", sign, md.Pair.A, md.Pair.B, md.Class)
		return true
	})
	if err != nil {
		panic(err)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(det.Add(probdedup.NewXTuple("a", probdedup.NewAlt(1.0, "Tim", "mechanic"))))
	must(det.Add(probdedup.NewXTuple("b", probdedup.NewAlt(0.8, "Tim", "mechanic"))))
	must(det.Add(probdedup.NewXTuple("c", probdedup.NewAlt(1.0, "Zoe", "pilot"))))
	must(det.Remove("b"))
	st := det.Stats()
	fmt.Printf("resident %d tuples, %d comparisons, matches=%d\n", st.Residents, st.Compared, st.Matches)
	// Output:
	// + η(a,b) = m
	// - η(a,b) = m
	// resident 2 tuples, 3 comparisons, matches=0
}

// ExampleResolve fuses a clear match and keeps a possible match as
// lineage-backed uncertainty.
func ExampleResolve() {
	xr := probdedup.NewXRelation("X", "name").Append(
		probdedup.NewXTuple("a", probdedup.NewAlt(1, "Tim")),
		probdedup.NewXTuple("b", probdedup.NewAlt(1, "Tim")),
		probdedup.NewXTuple("c", probdedup.NewAlt(1, "Tom")),
	)
	final := probdedup.Thresholds{Lambda: 0.5, Mu: 0.9}
	res, err := probdedup.Detect(xr, probdedup.Options{Final: final})
	if err != nil {
		panic(err)
	}
	r, err := probdedup.Resolve(xr, res, final, nil)
	if err != nil {
		panic(err)
	}
	for _, e := range r.Entities {
		fmt.Println(e.ID, e.Members)
	}
	for _, ud := range r.Uncertain {
		fmt.Printf("%s ↔ %s possible duplicate\n", ud.A, ud.B)
	}
	// Output:
	// a+b [a b]
	// c [c]
	// a+b ↔ c possible duplicate
}

// ExampleIntegrator maintains a live integrated result online: every
// arrival and removal rebuilds only the touched entity components and
// reports the change as a typed entity delta.
func ExampleIntegrator() {
	schema := []string{"name", "job"}
	final := probdedup.Thresholds{Lambda: 0.5, Mu: 0.9}
	ig, err := probdedup.NewIntegrator(schema, probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein},
		Final:   final,
	}, func(ev probdedup.EntityDelta) bool {
		fmt.Printf("%s %s members=%v from=%v\n", ev.Kind, ev.Entity.ID, ev.Entity.Members, ev.From)
		return true
	})
	if err != nil {
		panic(err)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(ig.Add(probdedup.NewXTuple("a", probdedup.NewAlt(1, "johnson", "pilot"))))
	must(ig.Add(probdedup.NewXTuple("b", probdedup.NewAlt(1, "johnson", "pilot"))))
	must(ig.Add(probdedup.NewXTuple("c", probdedup.NewAlt(1, "jonsen", "pilot"))))
	must(ig.Remove("b"))
	r, err := ig.Flush()
	if err != nil {
		panic(err)
	}
	for _, ud := range r.Uncertain {
		fmt.Printf("%s ↔ %s uncertain duplicate, P=%.2f\n", ud.A, ud.B, ud.P)
	}
	// Output:
	// created a members=[a] from=[]
	// merged a+b members=[a b] from=[a]
	// created c members=[c] from=[]
	// refused a+b members=[a b] from=[]
	// split a members=[a] from=[a+b]
	// refused c members=[c] from=[]
	// a ↔ c uncertain duplicate, P=0.81
}
