package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pathquery/internal/alphabet"
	"pathquery/internal/automata"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/query"
)

// recorder keeps what the answer checker needs from the timed phases
// without parsing answers there. For each pool request it keeps the
// first answer body and a hash of it with the "cached" flag left out,
// the one field two correct answers at the same epoch may differ in; a
// later answer with another hash fails on the spot. With epochs set
// (write-mix, where every publish may change answers) it keeps the
// epoch and count of every answer instead.
type recorder struct {
	mu     sync.Mutex
	epochs bool
	first  [][]byte
	hash   []uint64
	seen   []int64
	obs    []observation

	answers int           // answers observed
	every   int           // with tick: signal tick once every this many answers
	tick    chan struct{} // set by pace
}

// pace makes the recorder signal the returned channel once every n
// answers from now on. A signal that finds the channel full is dropped.
func (r *recorder) pace(n int) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.answers, r.every, r.tick = 0, n, make(chan struct{}, 64)
	return r.tick
}

// counted counts one answer; r.mu is held.
func (r *recorder) counted() {
	r.answers++
	if r.tick != nil && r.answers%r.every == 0 {
		select {
		case r.tick <- struct{}{}:
		default:
		}
	}
}

type observation struct {
	idx   int
	epoch uint64
	count int
}

var hashSeed = maphash.MakeSeed()

func newRecorder(n int, epochs bool) *recorder {
	return &recorder{epochs: epochs, first: make([][]byte, n), hash: make([]uint64, n), seen: make([]int64, n)}
}

// observe records one answer to pool request idx and reports whether it
// is consistent with the earlier answers to it.
func (r *recorder) observe(idx int, body []byte) bool {
	if r.epochs {
		epoch, ok1 := jsonInt(body, `"epoch":`)
		count, ok2 := jsonInt(body, `"count":`)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.counted()
		r.seen[idx]++
		r.obs = append(r.obs, observation{idx, uint64(epoch), int(count)})
		return ok1 && ok2
	}
	h := answerHash(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counted()
	r.seen[idx]++
	if r.first[idx] == nil {
		r.first[idx] = bytes.Clone(body)
		r.hash[idx] = h
		return true
	}
	return r.hash[idx] == h
}

// answerHash hashes an answer body without its "cached" field.
func answerHash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	if i := bytes.Index(body, []byte(`"cached":`)); i >= 0 {
		j := i + bytes.IndexAny(body[i:], ",}")
		h.Write(body[:i])
		h.Write(body[j:])
	} else {
		h.Write(body)
	}
	return h.Sum64()
}

// jsonInt reads the integer following key in a JSON body.
func jsonInt(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// reference is the brute-force evaluator the checker trusts: the graph
// as an NFA (Snapshot.AsNFA, one state per node, every state accepting)
// walked in lockstep with the query's DFA by plain breadth-first search,
// sharing no code with the engine's product traversal.
type reference struct {
	alpha  *alphabet.Alphabet
	nv     int
	fwd    [][]arc // fwd[v]: transitions out of v
	rev    [][]arc // rev[v]: transitions into v, arc.node is the source
	byName map[string]graph.NodeID

	mu      sync.Mutex
	queries map[string]*refQuery
}

type arc struct {
	sym  alphabet.Symbol
	node graph.NodeID
}

// refQuery is a parsed query with its reverse transition table and, once
// computed, its monadic distances.
type refQuery struct {
	q      *query.Query
	d      *automata.DFA
	nq     int
	revD   [][][]int32 // revD[sym][t]: states s with δ(s, sym) = t
	once   sync.Once
	accept []int32 // accept[v·nq+s]: shortest accepted path from (v, s), -1 if none
}

func newReference(snap *graph.Snapshot) *reference {
	nfa := snap.AsNFA(nil)
	r := &reference{
		alpha: snap.Alphabet(), nv: snap.NumNodes(),
		fwd: make([][]arc, snap.NumNodes()), rev: make([][]arc, snap.NumNodes()),
		byName: make(map[string]graph.NodeID, snap.NumNodes()), queries: make(map[string]*refQuery),
	}
	for v, m := range nfa.Delta {
		for sym, tos := range m {
			for _, to := range tos {
				r.fwd[v] = append(r.fwd[v], arc{sym, to})
				r.rev[to] = append(r.rev[to], arc{sym, graph.NodeID(v)})
			}
		}
	}
	for v := 0; v < r.nv; v++ {
		r.byName[snap.NodeName(graph.NodeID(v))] = graph.NodeID(v)
	}
	return r
}

func (r *reference) query(src string) (*refQuery, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rq, ok := r.queries[src]; ok {
		return rq, nil
	}
	q, err := query.Parse(r.alpha, src)
	if err != nil {
		return nil, err
	}
	d := q.DFA()
	rq := &refQuery{q: q, d: d, nq: d.NumStates(), revD: make([][][]int32, d.NumSyms)}
	for sym := range rq.revD {
		rq.revD[sym] = make([][]int32, rq.nq)
	}
	for s, row := range d.Delta {
		for sym, t := range row {
			if t != automata.None {
				rq.revD[sym][t] = append(rq.revD[sym][t], int32(s))
			}
		}
	}
	r.queries[src] = rq
	return rq, nil
}

// preds calls fn for every product pair (v, s) with an edge into (w, t).
func (r *reference) preds(rq *refQuery, w graph.NodeID, t int32, fn func(v graph.NodeID, s int32)) {
	for _, a := range r.rev[w] {
		if int(a.sym) >= len(rq.revD) {
			continue
		}
		for _, s := range rq.revD[a.sym][t] {
			fn(a.node, s)
		}
	}
}

// acceptDist returns, per product pair, the length of the shortest
// accepted path starting there (backward BFS from every final pair).
func (r *reference) acceptDist(rq *refQuery) []int32 {
	rq.once.Do(func() {
		dist := filled(r.nv*rq.nq, -1)
		var queue []int
		for v := 0; v < r.nv; v++ {
			for s, fin := range rq.d.Final {
				if fin {
					dist[v*rq.nq+s] = 0
					queue = append(queue, v*rq.nq+s)
				}
			}
		}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			r.preds(rq, graph.NodeID(i/rq.nq), int32(i%rq.nq), func(v graph.NodeID, s int32) {
				if j := int(v)*rq.nq + int(s); dist[j] < 0 {
					dist[j] = dist[i] + 1
					queue = append(queue, j)
				}
			})
		}
		rq.accept = dist
	})
	return rq.accept
}

// distPool holds distance arrays for fromDist, every entry -1 at rest,
// so a search pays only for the pairs it visits.
var distPool sync.Pool

// fromDist runs a breadth-first search from (u, start) and calls visit
// with every reached product pair and its distance.
func (r *reference) fromDist(rq *refQuery, u graph.NodeID, visit func(i int, d int32)) {
	n := r.nv * rq.nq
	dist, _ := distPool.Get().([]int32)
	if len(dist) < n {
		dist = filled(n, -1)
	}
	start := int(u)*rq.nq + int(rq.d.Start)
	dist[start] = 0
	queue := []int{start}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		s := int32(i % rq.nq)
		for _, a := range r.fwd[i/rq.nq] {
			if int(a.sym) >= rq.d.NumSyms {
				continue
			}
			if t := rq.d.Delta[s][a.sym]; t != automata.None {
				if j := int(a.node)*rq.nq + int(t); dist[j] < 0 {
					dist[j] = dist[i] + 1
					queue = append(queue, j)
				}
			}
		}
	}
	for _, i := range queue {
		visit(i, dist[i])
		dist[i] = -1
	}
	distPool.Put(dist)
}

// counts returns, per node, the number of lengths ℓ ≤ maxLen of accepted
// paths starting there: level ℓ is the set of pairs that accept in
// exactly ℓ steps.
func (r *reference) counts(rq *refQuery, maxLen int) []int {
	out := make([]int, r.nv)
	start := rq.d.Start
	var cur []int
	for v := 0; v < r.nv; v++ {
		for s, fin := range rq.d.Final {
			if fin {
				cur = append(cur, v*rq.nq+s)
			}
		}
	}
	if rq.d.Final[start] {
		for v := range out {
			out[v]++
		}
	}
	in := make([]bool, r.nv*rq.nq)
	for level := 1; level <= maxLen && len(cur) > 0; level++ {
		var next []int
		for _, i := range cur {
			r.preds(rq, graph.NodeID(i/rq.nq), int32(i%rq.nq), func(v graph.NodeID, s int32) {
				if j := int(v)*rq.nq + int(s); !in[j] {
					in[j] = true
					next = append(next, j)
				}
			})
		}
		for _, j := range next {
			in[j] = false
			if int32(j%rq.nq) == start {
				out[j/rq.nq]++
			}
		}
		cur = next
	}
	return out
}

// answerJSON is the /v1/query answer shape.
type answerJSON struct {
	Count int      `json:"count"`
	Nodes []string `json:"nodes"`
	Paths []struct {
		Nodes []string `json:"nodes"`
		Word  string   `json:"word"`
	} `json:"paths"`
	Counts []struct {
		Node  string `json:"node"`
		Count int    `json:"count"`
	} `json:"counts"`
}

// check compares one answer body to the reference's answer for req, by
// node name.
func (r *reference) check(req engine.Request, body []byte) error {
	var ans answerJSON
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	rq, err := r.query(req.Query)
	if err != nil {
		return err
	}
	sem := req.Semantics
	switch {
	case sem == "":
		sem = "nodes"
	case sem == "shortest" && req.From == "":
		sem = "witness" // the wire contract: shortest without an anchor is witness
	}
	var u graph.NodeID
	if req.From != "" {
		var ok bool
		if u, ok = r.byName[req.From]; !ok {
			return fmt.Errorf("reference has no node %q", req.From)
		}
	}
	rowLimit := func(n int) int {
		if req.Limit > 0 {
			return min(n, req.Limit)
		}
		return n
	}
	switch sem {
	case "nodes":
		return r.checkRows(ans, r.monadic(rq), rowLimit)
	case "pairsFrom":
		sel, _ := r.pairs(rq, u)
		return r.checkRows(ans, sel, rowLimit)
	case "witness":
		return r.checkPaths(rq, ans, r.monadic(rq), nil, pathLimit(req.Limit))
	case "shortest":
		sel, dist := r.pairs(rq, u)
		return r.checkPaths(rq, ans, sel, dist, pathLimit(req.Limit))
	case "count":
		maxLen := req.MaxLen
		if maxLen <= 0 {
			maxLen = min(rq.q.DefaultMaxLen(), 4096)
		}
		return r.checkCounts(ans, r.counts(rq, maxLen), rowLimit)
	}
	return fmt.Errorf("unknown semantics %q", sem)
}

// pathLimit mirrors the wire contract: witness/shortest compute at most
// limit paths, where an absent or non-positive limit means 4096.
func pathLimit(limit int) int {
	if limit <= 0 || limit > 4096 {
		return 4096
	}
	return limit
}

// monadic returns the nodes with an accepted path, in id order.
func (r *reference) monadic(rq *refQuery) []graph.NodeID {
	acc := r.acceptDist(rq)
	var out []graph.NodeID
	for v := 0; v < r.nv; v++ {
		if acc[v*rq.nq+int(rq.d.Start)] >= 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// pairs returns the nodes an accepted path from u reaches, in id order,
// with the length of the shortest such path to each node.
func (r *reference) pairs(rq *refQuery, u graph.NodeID) ([]graph.NodeID, map[graph.NodeID]int32) {
	best := make(map[graph.NodeID]int32)
	r.fromDist(rq, u, func(i int, d int32) {
		if !rq.d.Final[i%rq.nq] {
			return
		}
		v := graph.NodeID(i / rq.nq)
		if b, ok := best[v]; !ok || d < b {
			best[v] = d
		}
	})
	out := make([]graph.NodeID, 0, len(best))
	for v := range best {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, best
}

// checkRows checks a nodes/pairsFrom answer: the total count, and rows
// that are distinct selected nodes, as many as the limit allows.
func (r *reference) checkRows(ans answerJSON, sel []graph.NodeID, rowLimit func(int) int) error {
	if ans.Count != len(sel) {
		return fmt.Errorf("count %d, reference %d", ans.Count, len(sel))
	}
	if len(ans.Nodes) != rowLimit(len(sel)) {
		return fmt.Errorf("%d rows, want %d", len(ans.Nodes), rowLimit(len(sel)))
	}
	return r.subset(ans.Nodes, sel)
}

// subset checks that names are distinct members of sel.
func (r *reference) subset(names []string, sel []graph.NodeID) error {
	in := make(map[graph.NodeID]bool, len(sel))
	for _, v := range sel {
		in[v] = true
	}
	dup := make(map[string]bool, len(names))
	for _, n := range names {
		v, ok := r.byName[n]
		if !ok || !in[v] || dup[n] {
			return fmt.Errorf("row %q is not a distinct selected node", n)
		}
		dup[n] = true
	}
	return nil
}

// checkPaths checks a witness/shortest answer: the count, and one valid,
// accepted, shortest path per row. dist is nil for monadic witnesses
// (paths start at the selected node) and the per-target shortest length
// for anchored ones (paths start at the anchor).
func (r *reference) checkPaths(rq *refQuery, ans answerJSON, sel []graph.NodeID, dist map[graph.NodeID]int32, limit int) error {
	if ans.Count != len(sel) {
		return fmt.Errorf("count %d, reference %d", ans.Count, len(sel))
	}
	if len(ans.Paths) != min(limit, len(sel)) {
		return fmt.Errorf("%d paths, want %d", len(ans.Paths), min(limit, len(sel)))
	}
	acc := r.acceptDist(rq)
	ends := make([]string, len(ans.Paths))
	for i, p := range ans.Paths {
		word, err := r.parseWord(p.Word)
		if err != nil {
			return err
		}
		if len(p.Nodes) != len(word)+1 {
			return fmt.Errorf("path %v has %d nodes for a word of %d", p.Nodes, len(p.Nodes), len(word))
		}
		if !rq.d.Accepts(word) {
			return fmt.Errorf("path word %q is not accepted", p.Word)
		}
		for j, sym := range word {
			if !r.hasEdge(p.Nodes[j], sym, p.Nodes[j+1]) {
				return fmt.Errorf("path %v: no edge %s -%s-> %s", p.Nodes, p.Nodes[j], r.alpha.Name(sym), p.Nodes[j+1])
			}
		}
		if dist == nil {
			ends[i] = p.Nodes[0]
			if v := r.byName[p.Nodes[0]]; acc[int(v)*rq.nq+int(rq.d.Start)] != int32(len(word)) {
				return fmt.Errorf("witness for %s has length %d, shortest is %d", p.Nodes[0], len(word), acc[int(v)*rq.nq+int(rq.d.Start)])
			}
			continue
		}
		ends[i] = p.Nodes[len(p.Nodes)-1]
		if want := dist[r.byName[ends[i]]]; int32(len(word)) != want {
			return fmt.Errorf("path to %s has length %d, shortest is %d", ends[i], len(word), want)
		}
	}
	return r.subset(ends, sel)
}

// checkCounts checks a count answer row by row.
func (r *reference) checkCounts(ans answerJSON, counts []int, rowLimit func(int) int) error {
	var sel []graph.NodeID
	for v, c := range counts {
		if c > 0 {
			sel = append(sel, graph.NodeID(v))
		}
	}
	if ans.Count != len(sel) {
		return fmt.Errorf("count %d, reference %d", ans.Count, len(sel))
	}
	if len(ans.Counts) != rowLimit(len(sel)) {
		return fmt.Errorf("%d rows, want %d", len(ans.Counts), rowLimit(len(sel)))
	}
	names := make([]string, len(ans.Counts))
	for i, row := range ans.Counts {
		names[i] = row.Node
		if v, ok := r.byName[row.Node]; ok && counts[v] != row.Count {
			return fmt.Errorf("node %s: count %d, reference %d", row.Node, row.Count, counts[v])
		}
	}
	return r.subset(names, sel)
}

func (r *reference) parseWord(s string) ([]alphabet.Symbol, error) {
	if s == "ε" {
		return nil, nil
	}
	parts := strings.Split(s, "·")
	out := make([]alphabet.Symbol, len(parts))
	for i, p := range parts {
		sym, ok := r.alpha.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("path word %q has unknown label %q", s, p)
		}
		out[i] = sym
	}
	return out, nil
}

func (r *reference) hasEdge(from string, sym alphabet.Symbol, to string) bool {
	u, ok1 := r.byName[from]
	v, ok2 := r.byName[to]
	if !ok1 || !ok2 {
		return false
	}
	for _, a := range r.fwd[u] {
		if a.sym == sym && a.node == v {
			return true
		}
	}
	return false
}

// verify checks every recorded answer against the reference, two
// requests at a time. A wrong first answer fails every answer that
// matched it. It returns the number of failed answers and a few
// descriptions.
func (rec *recorder) verify(ref *reference, pool []request) (failed int64, errs []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if err := ref.check(pool[idx].Request, rec.first[idx]); err != nil {
					mu.Lock()
					failed += rec.seen[idx]
					if len(errs) < 5 {
						errs = append(errs, fmt.Sprintf("%s: %v", pool[idx].body, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for idx, body := range rec.first {
		if body != nil {
			next <- idx
		}
	}
	close(next)
	wg.Wait()
	return failed, errs
}

// verifyEpochs checks write-mix reads: edges are only ever added, so a
// request's count never shrinks from one epoch to a later one, and lies
// between the reference counts at load (lo) and at the final epoch (hi).
func (rec *recorder) verifyEpochs(lo, hi []int) (failed int64, errs []string) {
	obs := append([]observation(nil), rec.obs...)
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].idx != obs[j].idx {
			return obs[i].idx < obs[j].idx
		}
		return obs[i].epoch < obs[j].epoch
	})
	for i, o := range obs {
		bad := o.count < lo[o.idx] || o.count > hi[o.idx]
		if i > 0 && obs[i-1].idx == o.idx && obs[i-1].count > o.count {
			bad = true
		}
		if bad {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("request %d at epoch %d: count %d outside [%d, %d] or shrinking", o.idx, o.epoch, o.count, lo[o.idx], hi[o.idx]))
			}
		}
	}
	return failed, errs
}

// refCount is the reference's total count for a nodes/pairsFrom request.
func (r *reference) refCount(req engine.Request) (int, error) {
	rq, err := r.query(req.Query)
	if err != nil {
		return 0, err
	}
	if req.From == "" {
		return len(r.monadic(rq)), nil
	}
	u, ok := r.byName[req.From]
	if !ok {
		return 0, fmt.Errorf("reference has no node %q", req.From)
	}
	sel, _ := r.pairs(rq, u)
	return len(sel), nil
}

func filled(n int, v int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = v
	}
	return out
}
