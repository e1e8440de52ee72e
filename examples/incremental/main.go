// Incremental: online duplicate detection with the Detector. Tuples
// arrive one at a time or in batches — think a registration service
// receiving probabilistic person records — and each arrival is
// compared only against the candidates produced by incremental index
// maintenance (here: blocking over conflict-resolved keys), never by
// re-running the batch pipeline. A batch arrival (AddBatch) fans its
// verification across Options.Workers while the emitted delta stream
// stays sequential and deterministic. Match deltas stream out as they
// happen; removing a tuple retracts its pairs; Flush materializes the
// exact Result the batch Detect would produce on the resident
// relation.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"

	"probdedup"
)

func main() {
	schema := []string{"name", "job"}
	def, err := probdedup.ParseKeyDef("name:3", schema)
	if err != nil {
		log.Fatal(err)
	}
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.5, Mu: 0.8},
		// Workers fans the verification of large batches (AddBatch,
		// big blocks) across goroutines; classifications and the
		// delta stream are identical at any setting.
		Workers: 4,
	}

	// Every change to the live pairs — M and P; a non-match is counted,
	// not kept — arrives through the callback: "+" when a pair enters,
	// "−" when a pair is retracted.
	det, err := probdedup.NewDetector(schema, opts, func(md probdedup.MatchDelta) bool {
		sign := "+"
		if md.Kind == probdedup.DeltaDrop {
			sign = "−"
		}
		fmt.Printf("  %s η(%s,%s) = %s (sim %.3f)\n", sign, md.Pair.A, md.Pair.B, md.Class, md.Sim)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	// A batch arrival — the unit a bulk load or a busy ingest queue
	// produces. The deltas delivered are the batch's net effect, in a
	// deterministic order, whatever the worker count.
	seed := []*probdedup.XTuple{
		probdedup.NewXTuple("t1", probdedup.NewAlt(1.0, "Johnson", "pilot")),
		probdedup.NewXTuple("t2",
			probdedup.NewAlt(0.7, "Johnson", "pilot"),
			probdedup.NewAlt(0.3, "Jonson", "pilot")),
		probdedup.NewXTuple("t3", probdedup.NewAlt(1.0, "Miller", "baker")),
	}
	fmt.Println("add batch t1 t2 t3")
	if err := det.AddBatch(seed); err != nil {
		log.Fatal(err)
	}

	// Single arrivals keep working the same way.
	fmt.Println("add t4")
	if err := det.Add(probdedup.NewXTuple("t4", probdedup.NewAlt(1.0, "Johnsen", "pilot"))); err != nil {
		log.Fatal(err)
	}

	// t2 turns out to be a withdrawn record: removing it retracts its
	// pair decisions, so a later re-registration starts from scratch.
	fmt.Println("remove t2")
	if err := det.Remove("t2"); err != nil {
		log.Fatal(err)
	}

	res := det.Flush()
	st := det.Stats()
	fmt.Printf("resident %d tuples, %d live pairs (compared %d, retracted %d)\n",
		st.Residents, st.Live, st.Compared, st.Dropped)
	for _, p := range res.Compared {
		m := res.ByPair[p]
		fmt.Printf("  η(%s,%s) = %s (sim %.3f)\n", p.A, p.B, m.Class, m.Sim)
	}

	// One layer up: the Integrator folds the same delta stream into a
	// live integrated result — entities maintained by component-local
	// rebuilds, possible matches kept as uncertain duplicates — and
	// reports every change as a typed entity delta. Flush returns
	// exactly what batch Resolve over Detect would produce on the
	// residents.
	fmt.Println("\nlive integration (same arrivals, entity deltas)")
	ig, err := probdedup.NewIntegrator(schema, opts, func(ev probdedup.EntityDelta) bool {
		fmt.Printf("  %s %s members=%v from=%v\n", ev.Kind, ev.Entity.ID, ev.Entity.Members, ev.From)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range seed {
		if err := ig.Add(x); err != nil {
			log.Fatal(err)
		}
	}
	if err := ig.Add(probdedup.NewXTuple("t4", probdedup.NewAlt(1.0, "Johnsen", "pilot"))); err != nil {
		log.Fatal(err)
	}
	if err := ig.Remove("t2"); err != nil {
		log.Fatal(err)
	}
	r, err := ig.Flush()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("integrated result: %d entities, %d uncertain duplicates\n", len(r.Entities), len(r.Uncertain))
	for _, lt := range r.Tuples {
		conf, err := r.Confidence(lt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  conf=%.3f lineage=%-14s members of %s\n", conf, lt.Lineage, lt.Tuple.ID)
	}
}
