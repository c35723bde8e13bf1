package main

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
)

// servedAnswers evaluates reqs through the engine's HTTP handler on g's
// edges and returns the answer bodies.
func servedAnswers(t *testing.T, edges []engine.EdgeSpec, reqs []request) [][]byte {
	t.Helper()
	e := engine.New(buildGraph(edges), engine.Options{})
	t.Cleanup(e.Close)
	h := engine.NewHandler(e)
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(r.body)))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", r.body, rec.Code, rec.Body)
		}
		out[i] = rec.Body.Bytes()
	}
	return out
}

// TestReferenceAgreesWithEngine checks the checker both ways on a small
// graph: every semantics the benchmark sends is accepted as the engine
// answers it, and a corrupted answer is rejected.
func TestReferenceAgreesWithEngine(t *testing.T) {
	edges := graphEdges(datasets.Synthetic(300, 3).Snapshot())
	in := &inputs{edges: edges, ref: buildGraph(edges).Snapshot()}
	if err := in.coldPool(3); err != nil {
		t.Fatal(err)
	}
	var reqs []request
	for i, r := range in.pool {
		if i%97 == 0 || r.Semantics != "pairsFrom" && r.Semantics != "shortest" {
			reqs = append(reqs, r)
		}
	}
	for _, r := range reqs[:8] {
		reqs = append(reqs, newRequest(engine.Request{Query: r.Query, Semantics: "count", MaxLen: 3}))
	}
	ref := newReference(in.ref)
	bodies := servedAnswers(t, edges, reqs)
	corrupted := 0
	for i, r := range reqs {
		if err := ref.check(r.Request, bodies[i]); err != nil {
			t.Fatalf("%s: engine answer rejected: %v\n%s", r.body, err, bodies[i])
		}
		bad := corrupt(bodies[i])
		if bad == nil {
			continue
		}
		corrupted++
		if err := ref.check(r.Request, bad); err == nil {
			t.Errorf("%s: corrupted answer accepted:\n%s", r.body, bad)
		}
	}
	if corrupted < len(reqs)/2 {
		t.Fatalf("only %d of %d answers could be corrupted", corrupted, len(reqs))
	}
}

// corrupt returns body with its count raised by one, or nil when the
// body has no count to change.
func corrupt(body []byte) []byte {
	n, ok := jsonInt(body, `"count":`)
	if !ok {
		return nil
	}
	old := `"count":` + strconv.FormatInt(n, 10)
	return []byte(strings.Replace(string(body), old, `"count":`+strconv.FormatInt(n+1, 10), 1))
}
