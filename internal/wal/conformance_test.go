package wal

import (
	"fmt"
	"reflect"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/resolve"
)

// TestEngineConformance drives one seeded Add/AddBatch/Remove
// schedule through core.Engine for all four concrete engines. The
// interface is the only handle the schedule gets, so whatever drives an
// engine through it (the durability layer, the shard router, pdedup
// -follow) sees the same residents after every operation and the same
// classified pair set at the end, durable or not, integrating or not.
func TestEngineConformance(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		schema, ops := genSchedule(t, seed, 30)
		for redName, red := range crashReductions(t, schema) {
			t.Run(fmt.Sprintf("%s/seed%d", redName, seed), func(t *testing.T) {
				opts := testOptions(red)
				det, err := core.NewDetector(schema, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				ig, err := resolve.NewIntegrator(schema, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				dd, err := OpenDurable(t.TempDir(), schema, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer dd.Close()
				di, err := OpenDurableIntegrator(t.TempDir(), schema, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer di.Close()

				engines := []struct {
					name  string
					eng   core.Engine
					pairs func() string
				}{
					{"Detector", det, func() string { return resultFingerprint(det.Flush(), det.Stats()) }},
					{"Integrator", ig, func() string { return resultFingerprint(ig.FlushResult(), ig.Stats().Detector) }},
					{"DurableDetector", dd, func() string { return resultFingerprint(dd.Flush(), dd.Stats()) }},
					{"DurableIntegrator", di, func() string { return resultFingerprint(di.FlushResult(), di.Stats().Detector) }},
				}
				ref := engines[0]
				for i, op := range ops {
					for _, e := range engines {
						if err := applyOp(e.eng, op); err != nil {
							t.Fatalf("op %d on %s: %v", i, e.name, err)
						}
					}
					for _, e := range engines[1:] {
						if e.eng.Len() != ref.eng.Len() || !reflect.DeepEqual(e.eng.ResidentIDs(), ref.eng.ResidentIDs()) {
							t.Fatalf("after op %d: %s holds %d residents %v, %s holds %d %v",
								i, e.name, e.eng.Len(), e.eng.ResidentIDs(), ref.name, ref.eng.Len(), ref.eng.ResidentIDs())
						}
					}
				}
				want := ref.pairs()
				for _, e := range engines[1:] {
					if got := e.pairs(); got != want {
						t.Fatalf("%s pair-level Flush diverges from %s\n--- got ---\n%s--- want ---\n%s", e.name, ref.name, got, want)
					}
				}
			})
		}
	}
}
