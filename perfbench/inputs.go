package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/workload"
)

// Cold-read pool shape: each of coldTemplatesPerClass instantiations of
// the 28 AQ classes is asked under the three monadic semantics and, from
// coldAnchors anchors each, under the two anchored ones. The forge
// yields about 1350 distinct templates, so the pool holds about 20k
// distinct result keys, five times the server's 4096-entry result
// cache, and requests drawn uniformly from it mostly miss. A fifth of
// them are whole-graph sweeps (nodes, witness, count), which cost
// milliseconds each on a miss, so traversal takes about half of the
// server's CPU time.
const (
	coldTemplatesPerClass = 64
	coldAnchors           = 6
	coldRowLimit          = 64 // rows rendered per cold answer (Count stays exact)
	coldPathLimit         = 4  // witness/shortest paths computed per cold request
)

// Write stream shape for write-mix: small batches of edges between
// existing nodes, on labels the read queries use, so every publish
// touches cached answers.
const (
	writeBatchEdges = 4
	writeBatches    = 4096
)

// inputs is everything a run feeds the program, generated from the
// workload seed alone.
type inputs struct {
	// edges is the graph in load order; ref is the same edges applied
	// in the same order, so its node and symbol ids equal the server's.
	edges []engine.EdgeSpec
	ref   *graph.Snapshot
	// forged is the forged workload file (hot-read, write-mix).
	forged []byte
	// pool is the read traffic; requests are drawn from it uniformly.
	pool []request
	// writes is the write-mix writer's batch stream, in send order.
	writes [][]engine.EdgeSpec
	// goals are the learner's hidden goal queries on ref (learn).
	goals []datasets.NamedQuery
	// learnSets are the graphs the learner learns on, each with its
	// goals; the first is ref with goals, the one also served (learn).
	learnSets []learnSet
	// forgeTime is the time spent forging the pool or calibrating goals.
	forgeTime time.Duration
}

// request is one read request with its pre-encoded body.
type request struct {
	engine.Request
	body []byte
}

func newRequest(r engine.Request) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // engine.Request always marshals
	}
	return request{Request: r, body: body}
}

// makeInputs generates the inputs of workload sp from seed.
func makeInputs(sp *spec, seed int64) (*inputs, error) {
	in := &inputs{edges: graphEdges(datasets.Synthetic(sp.nodes, seed).Snapshot())}
	in.ref = buildGraph(in.edges).Snapshot()
	start := time.Now()
	var err error
	switch sp.pool {
	case poolForged:
		err = in.forgePool(seed)
	case poolCold:
		err = in.coldPool(seed)
	case poolGoals:
		in.learnSets = makeLearnSets(in.ref, sp.nodes, seed)
		in.goals = in.learnSets[0].goals
		for _, g := range in.goals {
			in.pool = append(in.pool, newRequest(engine.Request{Query: g.Expr}))
		}
	}
	if err != nil {
		return nil, err
	}
	in.forgeTime = time.Since(start)
	if sp.writeRate > 0 {
		in.writes = writeStream(in.ref, in.pool, seed)
	}
	return in, nil
}

// learnSet is one graph the learner learns on, with its goals.
type learnSet struct {
	snap  *graph.Snapshot
	goals []datasets.NamedQuery
}

// learnGraphs is the number of graphs a learn run learns on. Each
// calibrates its own syn1–syn3; how costly a goal's session is depends
// on its graph (up to threefold between seeds for syn3), so a run
// learns on several to keep seeds comparable.
const learnGraphs = 4

// makeLearnSets calibrates syn1–syn3 on ref and on learnGraphs-1 further
// synthetic graphs of the same size, their seeds derived from seed.
// Goal names carry the graph's index: g0.syn1, …. Calibration takes
// seconds per graph, so the graphs calibrate concurrently, two at a
// time.
func makeLearnSets(ref *graph.Snapshot, nodes int, seed int64) []learnSet {
	sets := make([]learnSet, learnGraphs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			snap := ref
			if i > 0 {
				snap = buildGraph(graphEdges(datasets.Synthetic(nodes, seed+int64(i)*learnSeedStride).Snapshot())).Snapshot()
			}
			goals := datasets.SynQueriesOn(snap)
			for j := range goals {
				goals[j].Name = fmt.Sprintf("g%d.%s", i, goals[j].Name)
			}
			sets[i] = learnSet{snap, goals}
		}()
	}
	wg.Wait()
	return sets
}

// learnSeedStride separates the seeds of a learn run's graphs.
const learnSeedStride = 1_000_003

// graphEdges lists a snapshot's edges in load order: by source id, then
// adjacency order. Nodes without edges are left out, because a graph
// is built through /mutate, which only knows edges.
func graphEdges(s *graph.Snapshot) []engine.EdgeSpec {
	alpha := s.Alphabet()
	out := make([]engine.EdgeSpec, 0, s.NumEdges())
	for v := 0; v < s.NumNodes(); v++ {
		from := s.NodeName(graph.NodeID(v))
		for _, e := range s.OutEdges(graph.NodeID(v)) {
			out = append(out, engine.EdgeSpec{From: from, Label: alpha.Name(e.Sym), To: s.NodeName(e.To)})
		}
	}
	return out
}

// buildGraph applies edge lists in order the way the engine's commit
// does (AddEdgeByName), so node and symbol ids match the served graph.
func buildGraph(lists ...[]engine.EdgeSpec) *graph.Graph {
	g := graph.New(alphabet.New())
	for _, edges := range lists {
		for _, e := range edges {
			g.AddEdgeByName(e.From, e.Label, e.To)
		}
	}
	return g
}

// forgePool forges the AQ1–AQ28 workload file on the reference graph
// and replays its entries, read back from the file bytes.
func (in *inputs) forgePool(seed int64) error {
	f, err := workload.Forge(in.ref, workload.ForgeConfig{Seed: seed})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return err
	}
	in.forged = buf.Bytes()
	back, err := workload.Read(bytes.NewReader(in.forged))
	if err != nil {
		return err
	}
	for _, e := range back.Entries {
		in.pool = append(in.pool, newRequest(engine.Request{Query: e.Expr, Semantics: e.Semantics, From: e.From}))
	}
	return nil
}

// coldPool instantiates AQ templates on the reference graph and asks
// each under nodes, witness and count, and, from coldAnchors anchors
// drawn over every node with an out-edge on one of the query's first
// symbols, under pairsFrom and shortest.
func (in *inputs) coldPool(seed int64) error {
	f, err := workload.Forge(in.ref, workload.ForgeConfig{
		Seed: seed, TemplatesPerClass: coldTemplatesPerClass, AnchorsPerTemplate: -1,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	seen := make(map[string]bool)
	for _, e := range f.Entries {
		if seen[e.Expr] {
			continue
		}
		seen[e.Expr] = true
		for _, sem := range []string{"nodes", "witness", "count"} {
			r := engine.Request{Query: e.Expr, Semantics: sem, Limit: coldRowLimit}
			if sem == "witness" {
				r.Limit = coldPathLimit
			}
			in.pool = append(in.pool, newRequest(r))
		}
		q, err := query.Parse(in.ref.Alphabet(), e.Expr)
		if err != nil {
			return fmt.Errorf("forged query %q: %w", e.Expr, err)
		}
		cands := firstSymbolNodes(in.ref, q.DFA())
		for _, i := range rng.Perm(len(cands))[:min(coldAnchors, len(cands))] {
			from := in.ref.NodeName(cands[i])
			in.pool = append(in.pool,
				newRequest(engine.Request{Query: e.Expr, Semantics: "pairsFrom", From: from, Limit: coldRowLimit}),
				newRequest(engine.Request{Query: e.Expr, Semantics: "shortest", From: from, Limit: coldPathLimit}))
		}
	}
	return nil
}

// firstSymbolNodes returns, in id order, the nodes with an out-edge on a
// symbol that can start a word of d's language.
func firstSymbolNodes(s *graph.Snapshot, d *automata.DFA) []graph.NodeID {
	live := liveStates(d)
	first := make(map[int32]bool)
	for sym, t := range d.Delta[d.Start] {
		if t != automata.None && live[t] {
			first[int32(sym)] = true
		}
	}
	var out []graph.NodeID
	for v := 0; v < s.NumNodes(); v++ {
		for _, e := range s.OutEdges(graph.NodeID(v)) {
			if first[int32(e.Sym)] {
				out = append(out, graph.NodeID(v))
				break
			}
		}
	}
	return out
}

// liveStates marks the DFA states from which a final state is reachable.
func liveStates(d *automata.DFA) []bool {
	live := append([]bool(nil), d.Final...)
	for changed := true; changed; {
		changed = false
		for s, row := range d.Delta {
			if live[s] {
				continue
			}
			for _, t := range row {
				if t != automata.None && live[t] {
					live[s], changed = true, true
					break
				}
			}
		}
	}
	return live
}

// writeStream draws the writer's batches: edges between uniformly drawn
// existing nodes, labelled with symbols the pool's queries read.
func writeStream(s *graph.Snapshot, pool []request, seed int64) [][]engine.EdgeSpec {
	used := make(map[string]bool)
	for _, r := range pool {
		q, err := query.Parse(s.Alphabet(), r.Query)
		if err != nil {
			continue // every pool query parses; a bad one is caught by the run
		}
		for _, row := range q.DFA().Delta {
			for sym, t := range row {
				if t != automata.None {
					used[s.Alphabet().Name(alphabet.Symbol(sym))] = true
				}
			}
		}
	}
	labels := make([]string, 0, len(used))
	for l := range used {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	rng := rand.New(rand.NewSource(seed ^ 0x7772697465))
	out := make([][]engine.EdgeSpec, writeBatches)
	for i := range out {
		batch := make([]engine.EdgeSpec, writeBatchEdges)
		for j := range batch {
			batch[j] = engine.EdgeSpec{
				From:  s.NodeName(graph.NodeID(rng.Intn(s.NumNodes()))),
				Label: labels[rng.Intn(len(labels))],
				To:    s.NodeName(graph.NodeID(rng.Intn(s.NumNodes()))),
			}
		}
		out[i] = batch
	}
	return out
}

// encodeBatches renders mutation bodies for edge batches.
func encodeBatches(batches [][]engine.EdgeSpec) [][]byte {
	out := make([][]byte, len(batches))
	for i, b := range batches {
		body, err := json.Marshal(struct {
			Edges []engine.EdgeSpec `json:"edges"`
		}{b})
		if err != nil {
			panic(err) // EdgeSpec always marshals
		}
		out[i] = body
	}
	return out
}

// chunk splits edges into batches of at most n.
func chunk(edges []engine.EdgeSpec, n int) [][]engine.EdgeSpec {
	var out [][]engine.EdgeSpec
	for len(edges) > n {
		out = append(out, edges[:n])
		edges = edges[n:]
	}
	if len(edges) > 0 {
		out = append(out, edges)
	}
	return out
}
