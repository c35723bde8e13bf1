package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// streams renders every input stream of a run as bytes.
func streams(t *testing.T, sp *spec, seed int64) map[string][]byte {
	t.Helper()
	in, err := makeInputs(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := json.Marshal(in.edges)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{"edges": edges, "forged": in.forged}
	for _, r := range in.pool {
		out["pool"] = append(append(out["pool"], r.body...), '\n')
	}
	for _, body := range encodeBatches(in.writes) {
		out["writes"] = append(append(out["writes"], body...), '\n')
	}
	for _, set := range in.learnSets {
		for _, g := range set.goals {
			out["goals"] = append(append(out["goals"], g.Expr...), '\n')
		}
	}
	return out
}

// TestInputsDeterministic checks that the seed fixes every input stream
// byte for byte — the graph's edge list, the forged file, the read pool,
// the write stream and the learner goals — and that another seed
// changes them.
func TestInputsDeterministic(t *testing.T) {
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			a, b, c := streams(t, sp, 7), streams(t, sp, 7), streams(t, sp, 8)
			for stream, data := range a {
				if !bytes.Equal(data, b[stream]) {
					t.Errorf("seed 7 produced two different %s streams", stream)
				}
			}
			if bytes.Equal(a["edges"], c["edges"]) || bytes.Equal(a["pool"], c["pool"]) {
				t.Errorf("seeds 7 and 8 produced the same graph or pool")
			}
			if len(a["pool"]) == 0 || (sp.writeRate > 0) != (len(a["writes"]) > 0) || sp.learn != (len(a["goals"]) > 0) {
				t.Errorf("unexpected stream shapes: pool %d, writes %d, goals %d bytes",
					len(a["pool"]), len(a["writes"]), len(a["goals"]))
			}
		})
	}
}
