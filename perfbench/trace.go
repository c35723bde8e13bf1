package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/query"
	"pathquery/internal/server"
	"pathquery/internal/store"
)

// span is one timed call of the traced run. Spans of one request share
// Request; Parent names the rung above on the ladder.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Request int64  `json:"request"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil log records nothing, which is how untraced phases run.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ids   atomic.Int64
}

// newID mints a request identifier for the spans of one request.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) add(name string, start, end time.Time, parent string, req int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds(), parent, req})
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns quantile q of ds, interpolating between closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// readLadder runs requests one at a time down the rungs of the read
// path — the loopback round trip to the child, the same request through
// an in-process server.Handler into an httptest recorder, engine
// Evaluate, and, when the engine missed its cache, the traversal itself
// (query.EvaluateReq on the pinned snapshot) — recording a span per
// rung. Each rung's self time is its time minus the rung below.
type readLadder struct {
	c     *client
	h     *server.Server
	e     *engine.Engine
	snap  *graph.Snapshot
	names map[string]graph.NodeID
	spans *spanLog

	rtt, handler, eval, traverse []time.Duration
	transportSelf, serverSelf    []time.Duration
	engineSelf                   []time.Duration
	cached, answered             int
	failed                       int64
}

// newReadLadder builds the in-process rungs over dir: a durable
// server.Server that recovers the tenant written there by the store
// ladder, and a volatile engine over the same edges.
func newReadLadder(c *client, dir string, edges ...[]engine.EdgeSpec) (*readLadder, error) {
	srv, err := server.New(server.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	srv.RecoverAll()
	g := buildGraph(edges...)
	snap := g.Snapshot()
	return &readLadder{c: c, h: srv, e: engine.New(g, engine.Options{}), snap: snap, names: nodeNames(snap)}, nil
}

func (l *readLadder) close() {
	l.e.Close()
	_ = l.h.Close() // the ladder's scratch store; nothing to keep
}

// warm sends each warm-up request down the in-process rungs, as setup
// sent it to the child.
func (l *readLadder) warm(ctx context.Context, reqs []request) {
	handler := l.h.Handler()
	for _, r := range reqs {
		handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", graphPath+"/query", bytes.NewReader(r.body)))
		_, _ = l.e.Evaluate(ctx, r.Request) // warm-up only; answers are checked elsewhere
	}
}

// run sends requests drawn from pool down the ladder until the
// deadline, at most n of them.
func (l *readLadder) run(ctx context.Context, pool []request, deadline time.Time, n int, seed int64) error {
	handler := l.h.Handler()
	rng := rand.New(rand.NewSource(seed ^ 0x6c6164646572))
	var buf bytes.Buffer
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		req := pool[rng.Intn(len(pool))]
		id := l.spans.newID()

		t0 := time.Now()
		status, err := l.c.post(ctx, graphPath+"/query", req.body, &buf)
		t1 := time.Now()
		if err != nil || status != 200 {
			l.failed++
			continue
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", graphPath+"/query", bytes.NewReader(req.body))
		t2 := time.Now()
		handler.ServeHTTP(rec, hreq)
		t3 := time.Now()
		t4 := time.Now()
		ans, err := l.e.Evaluate(ctx, req.Request)
		t5 := time.Now()
		if rec.Code != 200 || err != nil {
			l.failed++
			continue
		}
		var trav time.Duration
		l.answered++
		if ans.Cached {
			l.cached++
		} else {
			q, qreq, err := snapshotReq(l.snap, l.names, req.Request)
			if err != nil {
				return err
			}
			t6 := time.Now()
			if _, err := q.EvaluateReq(ctx, l.snap, qreq); err != nil {
				return err
			}
			t7 := time.Now()
			trav = t7.Sub(t6)
			l.spans.add("graph", t6, t7, "engine", id)
		}
		l.spans.add("client", t0, t1, "", id)
		l.spans.add("server", t2, t3, "client", id)
		l.spans.add("engine", t4, t5, "server", id)
		rtt, hd, ev := t1.Sub(t0), t3.Sub(t2), t5.Sub(t4)
		l.rtt = append(l.rtt, rtt)
		l.handler = append(l.handler, hd)
		l.eval = append(l.eval, ev)
		l.traverse = append(l.traverse, trav)
		l.transportSelf = append(l.transportSelf, rtt-hd)
		l.serverSelf = append(l.serverSelf, hd-ev)
		l.engineSelf = append(l.engineSelf, ev-trav)
	}
	return nil
}

// snapshotReq parses r and normalizes it into the snapshot-level request
// the engine evaluates on a result-cache miss, as the wire contract does.
func snapshotReq(snap *graph.Snapshot, names map[string]graph.NodeID, r engine.Request) (*query.Query, query.Req, error) {
	q, err := query.Parse(snap.Alphabet(), r.Query)
	if err != nil {
		return nil, query.Req{}, err
	}
	q.Plan()
	sem, err := query.ParseSemantics(r.Semantics)
	if err != nil {
		return nil, query.Req{}, err
	}
	req := query.Req{Semantics: sem, MaxLen: r.MaxLen}
	if sem == query.SemanticsWitness || sem == query.SemanticsShortest {
		req.Limit = pathLimit(r.Limit)
	}
	if r.From != "" {
		u, ok := names[r.From]
		if !ok {
			return nil, query.Req{}, fmt.Errorf("no node %q", r.From)
		}
		req.From, req.HasFrom = u, true
	}
	if sem == query.SemanticsShortest && !req.HasFrom {
		req.Semantics = query.SemanticsWitness
	}
	return q, req, nil
}

func nodeNames(snap *graph.Snapshot) map[string]graph.NodeID {
	out := make(map[string]graph.NodeID, snap.NumNodes())
	for v := 0; v < snap.NumNodes(); v++ {
		out[snap.NodeName(graph.NodeID(v))] = graph.NodeID(v)
	}
	return out
}

// graphLadder times the four traversal kinds of the graph layer on a
// pinned snapshot over up to n distinct pool queries: monadic selection,
// anchored binary selection, one witness path, and per-node path-length
// counts. compile is the parse+Plan time per query.
type graphLadder struct {
	monadic, binary, witness, count, compile []time.Duration
}

func runGraphLadder(ctx context.Context, snap *graph.Snapshot, pool []request, n int, spans *spanLog) (*graphLadder, error) {
	gl := &graphLadder{}
	names := nodeNames(snap)
	anchor := make(map[string]string)
	var exprs []string
	for _, r := range pool {
		if _, ok := anchor[r.Query]; !ok {
			exprs = append(exprs, r.Query)
			anchor[r.Query] = ""
		}
		if r.From != "" && anchor[r.Query] == "" {
			anchor[r.Query] = r.From
		}
	}
	if len(exprs) > n {
		exprs = exprs[:n]
	}
	for _, expr := range exprs {
		id := spans.newID()
		var q *query.Query
		var err error
		t0 := time.Now()
		if q, err = query.Parse(snap.Alphabet(), expr); err != nil {
			return nil, err
		}
		p := q.Plan()
		t1 := time.Now()
		spans.add("plan.compile", t0, t1, "", id)
		gl.compile = append(gl.compile, t1.Sub(t0))

		var vec []bool
		t2 := time.Now()
		if vec, err = snap.SelectMonadicPlanCtx(ctx, p); err != nil {
			return nil, err
		}
		t3 := time.Now()
		spans.add("graph.monadic", t2, t3, "", id)
		gl.monadic = append(gl.monadic, t3.Sub(t2))

		u := graph.NodeID(-1)
		if name := anchor[expr]; name != "" {
			u = names[name]
		} else if cands := firstSymbolNodes(snap, q.DFA()); len(cands) > 0 {
			u = cands[0]
		}
		if u >= 0 {
			t4 := time.Now()
			if _, err := snap.SelectBinaryFromPlanCtx(ctx, p, u); err != nil {
				return nil, err
			}
			t5 := time.Now()
			spans.add("graph.binary", t4, t5, "", id)
			gl.binary = append(gl.binary, t5.Sub(t4))
		}
		for v, sel := range vec {
			if sel {
				t6 := time.Now()
				if _, _, err := snap.WitnessPathPlan(ctx, p, graph.NodeID(v)); err != nil {
					return nil, err
				}
				t7 := time.Now()
				spans.add("graph.witness", t6, t7, "", id)
				gl.witness = append(gl.witness, t7.Sub(t6))
				break
			}
		}
		t8 := time.Now()
		if _, err := snap.CountPlanCtx(ctx, p, q.DefaultMaxLen()); err != nil {
			return nil, err
		}
		t9 := time.Now()
		spans.add("graph.count", t8, t9, "", id)
		gl.count = append(gl.count, t9.Sub(t8))
	}
	return gl, nil
}

// walMeter is the engine's mutation log in the store ladder: the real
// store, with the WAL bytes each append adds measured around it.
type walMeter struct {
	*store.GraphStore
	bytes, edges int64
}

func (m *walMeter) Append(epoch uint64, edges []engine.EdgeSpec) error {
	before := m.Stats().WALBytes
	if err := m.GraphStore.Append(epoch, edges); err != nil {
		return err
	}
	m.bytes += m.Stats().WALBytes - before
	m.edges += int64(len(edges))
	return nil
}

// runStoreLadder measures what the server's /metrics cannot: the WAL
// bytes per edge (its WAL size is a gauge that checkpoints reset) and
// the time store.Open takes to recover. It applies the given batches
// through an in-process durable engine over dir/<tenant>, with the
// server's checkpoint policy, closes the store and times reopening it.
func runStoreLadder(dir string, batches [][]engine.EdgeSpec, spans *spanLog) (walBytesPerEdge float64, open time.Duration, err error) {
	path := filepath.Join(dir, tenant)
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	meter := &walMeter{GraphStore: st}
	e := engine.New(st.Graph(), engine.Options{Log: meter})
	for _, b := range batches {
		if _, err := e.Mutate(b); err != nil {
			e.Close()
			st.Close()
			return 0, 0, err
		}
	}
	e.Close()
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err = store.Open(path, store.Options{})
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	spans.add("store.open", t0, t1, "", spans.newID())
	return float64(meter.bytes) / float64(max(meter.edges, 1)), t1.Sub(t0), st.Close()
}

// writePath reads the write-path figures from the server's own
// histograms between two scrapes: durable Mutate latency, the publish
// stages (the histograms behind Engine.PublishLatency), mutations per
// group-commit batch, and the WAL fsync (behind GraphStore.FsyncLatency).
func (b *bench) writePath(before, after scrape) {
	q := func(name string, p float64) float64 { return after.quantile(before, name, p, "tenant", tenant) * 1e6 }
	b.values["engine.mutate_p50_us"] = q("pathquery_mutate_seconds", 0.5)
	b.values["engine.mutate_p99_us"] = q("pathquery_mutate_seconds", 0.99)
	for _, stage := range []string{"build", "fsync", "swap"} {
		b.values["engine.publish_"+stage+"_p50_us"] = q("pathquery_publish_"+stage+"_seconds", 0.5)
	}
	b.values["engine.wal_batch_mean"] = after.sum(before, "pathquery_wal_batch_records_sum", "tenant", tenant) /
		max(1, after.sum(before, "pathquery_wal_batch_records_count", "tenant", tenant))
	b.values["store.fsync_p50_us"] = q("pathquery_wal_fsync_seconds", 0.5)
	b.values["store.fsync_p99_us"] = q("pathquery_wal_fsync_seconds", 0.99)
}

// traced is the per-layer run: the workload's traffic with and without
// client spans (their p50 difference is the tracing overhead), then the
// ladders that time each layer's calls from here.
func (b *bench) traced(ctx context.Context) error {
	_, cl, _, _, err := b.setUp(ctx, "data")
	if err != nil {
		return err
	}
	before, err := getMetrics(ctx, cl)
	if err != nil {
		return err
	}
	quarter := b.dur / 4
	rec := newRecorder(len(b.in.pool), b.sp.writeRate > 0)
	w := b.startWriter(ctx, cl, 0, atRate(b.sp.writeRate, 3*quarter))
	plain := reads(ctx, cl, b.in.pool, rec, nil, b.sp.readers, b.sp.rate, quarter, *seed)
	traced := reads(ctx, cl, b.in.pool, rec, b.spans, b.sp.readers, b.sp.rate, quarter, *seed+1)
	closed := reads(ctx, cl, b.in.pool, rec, b.spans, b.sp.readers, 0, quarter, *seed+2)
	wph, acked := w.wait()
	after, err := getMetrics(ctx, cl)
	if err != nil {
		return err
	}
	for _, ph := range []*phase{plain, traced, closed} {
		b.count(ph)
	}
	if wph != nil {
		b.count(wph)
	}
	p50u, p50t := plain.sliceP50(bestQ), traced.sliceP50(bestQ)
	fmt.Fprintf(os.Stderr, "tracing overhead: query p50 traced %.4f ms − untraced %.4f ms = %+.4f ms\n", ms(p50t), ms(p50u), ms(p50t-p50u))
	b.note("trace_overhead_p50_ms", ms(p50t-p50u))

	answered := len(traced.lat) + len(closed.lat)
	b.values["transport.resp_bytes_mean"] = float64(traced.bytes+closed.bytes) / float64(max(answered, 1))
	b.values["transport.conns_opened"] = float64(cl.opened.Load())
	b.values["server.admission_wait_p99_us"] = after.quantile(before, "pathquery_queue_wait_seconds", 0.99, "tenant", tenant) * 1e6
	b.values["server.rejected"] = after.sum(before, "pathquery_admission_rejected_total")
	for _, o := range []string{"retained", "regrown", "dropped"} {
		b.values["engine.maint_"+o] = after.sum(before, "pathquery_result_cache_"+o+"_total")
	}
	// The writer's mutations on write-mix; elsewhere the load's, since the
	// server started (its counters started at zero).
	if b.sp.writeRate > 0 {
		b.writePath(before, after)
	} else {
		b.writePath(scrape{}, before)
	}
	if err := b.checkReads(ctx, cl, rec, acked); err != nil {
		return err
	}
	if err := b.ladders(ctx, cl, acked); err != nil {
		return err
	}
	b.values["workload.forge_ms"] = ms(b.in.forgeTime)
	cl.close()
	b.stopChildren()
	path := filepath.Join(*workDir, "trace", fmt.Sprintf("%s-seed%d.json", *workloadName, *seed))
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return b.spans.write(path)
}

// ladders runs the store, read, graph and learner ladders.
func (b *bench) ladders(ctx context.Context, cl *client, acked []int) error {
	dir := filepath.Join(b.runDir, "ladder")
	writes := b.ackedEdges(acked)
	perEdge, open, err := runStoreLadder(dir, append(chunk(b.in.edges, b.sp.batch), writes...), b.spans)
	if err != nil {
		return fmt.Errorf("store ladder: %w", err)
	}
	b.values["store.wal_bytes_per_edge"] = perEdge
	b.values["store.open_ms"] = ms(open)

	rl, err := newReadLadder(cl, dir, append([][]engine.EdgeSpec{b.in.edges}, writes...)...)
	if err != nil {
		return fmt.Errorf("read ladder: %w", err)
	}
	defer rl.close()
	rl.spans = b.spans
	rl.warm(ctx, b.warmup())
	st0 := rl.e.Stats()
	if err := rl.run(ctx, b.in.pool, time.Now().Add(b.dur/4), 20000, *seed); err != nil {
		return err
	}
	st1 := rl.e.Stats()
	b.attempted += int64(len(rl.rtt)) + rl.failed
	b.fail(rl.failed)
	b.values["transport.rtt_p50_us"] = us(quantile(rl.transportSelf, 0.5))
	b.values["server.handler_self_p50_us"] = us(quantile(rl.serverSelf, 0.5))
	b.values["engine.evaluate_p50_us"] = us(quantile(rl.eval, 0.5))
	b.values["engine.evaluate_p99_us"] = us(quantile(rl.eval, 0.99))
	b.values["engine.result_hit_ratio"] = float64(rl.cached) / float64(max(rl.answered, 1))
	planHits, planMiss := st1.PlanHits-st0.PlanHits, st1.PlanMisses-st0.PlanMisses
	b.values["engine.plan_hit_ratio"] = float64(planHits) / float64(max(planHits+planMiss, 1))
	selfSum := quantile(rl.transportSelf, 0.5) + quantile(rl.serverSelf, 0.5) +
		quantile(rl.engineSelf, 0.5) + quantile(rl.traverse, 0.5)
	e2e := quantile(rl.rtt, 0.5)
	fmt.Fprintf(os.Stderr, "read ladder: %d requests; self-time medians (transport %.1f + server %.1f + engine %.1f + graph %.1f µs) sum to %.1f µs = %.1f%% of the end-to-end median %.1f µs\n",
		len(rl.rtt), us(quantile(rl.transportSelf, 0.5)), us(quantile(rl.serverSelf, 0.5)),
		us(quantile(rl.engineSelf, 0.5)), us(quantile(rl.traverse, 0.5)), us(selfSum), 100*float64(selfSum)/float64(max(e2e, 1)), us(e2e))
	b.note("ladder_self_sum_share", float64(selfSum)/float64(max(e2e, 1)))

	gl, err := runGraphLadder(ctx, b.in.ref, b.in.pool, 64, b.spans)
	if err != nil {
		return fmt.Errorf("graph ladder: %w", err)
	}
	b.values["graph.monadic_p50_us"] = us(quantile(gl.monadic, 0.5))
	b.values["graph.binary_p50_us"] = us(quantile(gl.binary, 0.5))
	b.values["graph.witness_p50_us"] = us(quantile(gl.witness, 0.5))
	b.values["graph.count_p50_us"] = us(quantile(gl.count, 0.5))
	b.values["plan.compile_p50_us"] = us(quantile(gl.compile, 0.5))
	return b.learnerLadder()
}
