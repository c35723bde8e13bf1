package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"pathquery/internal/datasets"
	"pathquery/internal/engine"
	"pathquery/internal/graph"
	"pathquery/internal/interactive"
	"pathquery/internal/metrics"
	"pathquery/internal/query"
)

// learnBudget is the label budget of one interactive session.
const learnBudget = 100

// session is one finished interactive session for one goal.
type session struct {
	goal    datasets.NamedQuery
	learned *query.Query
	labels  int
	f1      float64
	finalK  int
	steps   []time.Duration // time between interactions
	meter   *stepMeter
}

// stepMeter is the session observer that splits each interaction of
// Session.Run at the boundaries the session reports: Propose, with the
// neighbourhood shown to the user, ends at Proposed; Label (the oracle's
// answer and the coverage rebuild) at Labeled; Learn
// (core.LearnDetailedOn) at Learned. An interaction starts when the
// session starts or the halt check before it returns. It also reads the
// process's CPU time at each Learned, which splits the session's CPU
// time into interactions (the halt check between two included). With a
// span log it records a span per call.
type stepMeter struct {
	interactive.NopObserver
	spans                      *spanLog
	start, proposed, labeled   time.Time
	lastCPU                    time.Duration
	propose, label, learn, cpu []time.Duration
}

func (m *stepMeter) Proposed(graph.NodeID, []graph.NodeID, int) { m.proposed = time.Now() }

func (m *stepMeter) Labeled(graph.NodeID, bool) { m.labeled = time.Now() }

func (m *stepMeter) Learned(*query.Query) {
	end := time.Now()
	now := processCPU()
	m.cpu = append(m.cpu, now-m.lastCPU)
	m.lastCPU = now
	m.propose = append(m.propose, m.proposed.Sub(m.start))
	m.label = append(m.label, m.labeled.Sub(m.proposed))
	m.learn = append(m.learn, end.Sub(m.labeled))
	id := m.spans.newID()
	m.spans.add("interactive.propose", m.start, m.proposed, "interaction", id)
	m.spans.add("interactive.label", m.proposed, m.labeled, "interaction", id)
	m.spans.add("interactive.learn", m.labeled, end, "interaction", id)
	m.spans.add("interaction", m.start, end, "", id)
}

// halted wraps a halt condition so the next interaction starts when the
// check returns.
func (m *stepMeter) halted(halt interactive.HaltCondition) interactive.HaltCondition {
	return func(q *query.Query) bool {
		done := halt(q)
		m.start = time.Now()
		return done
	}
}

// processCPU is the user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage on RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSession runs the paper's Figure 9 loop for one goal through
// Session.Run — strategy kS, the default k schedule, a fixed label
// budget — halting when the learned query selects exactly the goal's
// nodes. spans, when set, records each interaction's calls.
func runSession(snap *graph.Snapshot, goal datasets.NamedQuery, spans *spanLog) (session, error) {
	m := &stepMeter{spans: spans}
	s := interactive.NewSessionOn(snap, interactive.Options{Strategy: interactive.KS{}, MaxInteractions: learnBudget, Observer: m})
	m.lastCPU, m.start = processCPU(), time.Now()
	res, err := s.Run(interactive.NewQueryOracleOn(snap, goal.Query), m.halted(interactive.ExactMatchOn(snap, goal.Query)))
	if err != nil {
		return session{}, err
	}
	out := session{goal: goal, learned: res.Query, labels: res.Labels(), finalK: res.FinalK, meter: m}
	for _, it := range res.Interactions {
		out.steps = append(out.steps, it.Elapsed)
	}
	out.f1 = f1(snap, goal.Query, res.Query)
	return out, nil
}

// f1 scores a learned query's selection against the goal's with the
// repository's F1 (0 when the learner abstained, as the interactive
// experiments score it).
func f1(snap *graph.Snapshot, goal, learned *query.Query) float64 {
	if learned == nil {
		return 0
	}
	return metrics.F1(goal.EvaluateOn(snap).Vector(), learned.EvaluateOn(snap).Vector())
}

// learnTimed runs interactive sessions in cycles of one session per goal
// of every learn graph, starting a cycle only while it should end within
// budget, so every goal weighs the same in the figures. Sessions are
// deterministic, so every repeat must use the labels and reach the F1 of
// the goal's first session exactly, and does the same work.
// It returns the CPU time per operation (cpu_us_per_op, before
// normalization): the geometric mean over goals of the CPU time per
// interaction of the goal's cheapest session: the learner is all that
// runs meanwhile, the cheapest repeat is the one the host's other guests
// disturbed least, and the geometric mean keeps one costly goal from
// outweighing the rest. rss_mb is this process's peak RSS after the
// sessions: the learner's, with the inputs it learns from.
func (b *bench) learnTimed(ctx context.Context, cl *client, budget time.Duration) (time.Duration, error) {
	type job struct {
		snap *graph.Snapshot
		goal datasets.NamedQuery
	}
	var jobs []job
	for _, set := range b.in.learnSets {
		for _, g := range set.goals {
			jobs = append(jobs, job{set.snap, g})
		}
	}
	var steps []time.Duration
	var busy time.Duration
	var first []session
	least := make([]time.Duration, len(jobs)) // per goal, the cheapest session's CPU time
	cpuStart, err := cpuTime(os.Getpid())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	cycle := start
	sessions := 0
	for ; ; sessions++ {
		if sessions%len(jobs) == 0 && sessions > 0 {
			// Start another cycle only if it should end within budget.
			if now := time.Now(); now.Add(now.Sub(cycle)).After(start.Add(budget)) {
				break
			}
			cycle = time.Now()
		}
		gi := sessions % len(jobs)
		j := jobs[gi]
		b.attempted++
		s, err := runSession(j.snap, j.goal, nil)
		if err != nil {
			return 0, err
		}
		steps = append(steps, s.steps...)
		var cpu time.Duration
		for _, d := range s.meter.cpu {
			cpu += d
		}
		if sessions < len(jobs) || cpu < least[gi] {
			least[gi] = cpu
		}
		for _, d := range s.steps {
			busy += d
		}
		if sessions < len(jobs) {
			first = append(first, s)
		} else if f := first[gi]; s.labels != f.labels || s.f1 != f.f1 {
			b.fail(1, fmt.Sprintf("%s: session %d used %d labels, F1 %.4f; the first used %d, F1 %.4f",
				j.goal.Name, sessions, s.labels, s.f1, f.labels, f.f1))
		}
	}
	cpuEnd, err := cpuTime(os.Getpid())
	if err != nil {
		return 0, err
	}
	if b.values["rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
		return 0, err
	}
	b.note("interaction_p50_ms", ms(quantile(steps, 0.5)))
	b.noteTail("interaction", steps)
	b.note("interactions_per_s", float64(len(steps))/busy.Seconds())
	b.note("learner_cpu_ms_per_interaction", ms((cpuEnd-cpuStart)/time.Duration(len(steps))))
	b.note("sessions", float64(sessions))
	logSum := 0.0
	for gi, s := range first {
		logSum += math.Log(float64(least[gi]) / float64(len(s.meter.cpu)))
	}
	perOp := time.Duration(math.Exp(logSum / float64(len(first))))
	b.noteSessions(first)
	// The served graph's learned queries join its goals as the traffic
	// served next.
	first = first[:len(b.in.goals)]
	for _, s := range first {
		if s.learned != nil {
			b.in.pool = append(b.in.pool, newRequest(engine.Request{Query: s.learned.String()}))
		}
	}
	b.in.pool = servedPool(b.in.pool)
	return perOp, b.checkLearned(ctx, cl, first)
}

// servedPool asks each learned or goal query the way a labelling user's
// screen does: the first rows of its answer with the total count, one
// witness path each for the first rows, and the per-node path counts.
func servedPool(qs []request) []request {
	var out []request
	for _, q := range qs {
		for _, r := range []engine.Request{
			{Query: q.Query, Limit: coldRowLimit},
			{Query: q.Query, Semantics: "witness", Limit: coldPathLimit},
			{Query: q.Query, Semantics: "count", Limit: coldRowLimit},
		} {
			out = append(out, newRequest(r))
		}
	}
	return out
}

// noteSessions reports labels per goal and F1 at halt.
func (b *bench) noteSessions(ss []session) {
	labels, f1s := 0.0, 0.0
	for _, s := range ss {
		labels += float64(s.labels)
		f1s += s.f1
		b.note("labels_"+s.goal.Name, float64(s.labels))
		b.note("f1_"+s.goal.Name, s.f1)
	}
	b.note("labels_per_goal", labels/float64(len(ss)))
	b.note("learn_f1", f1s/float64(len(ss)))
	b.values["interactive.labels_per_goal"] = labels / float64(len(ss))
	b.values["interactive.f1"] = f1s / float64(len(ss))
}

// checkLearned asks the server for each goal's and each learned query's
// answer: the goal's answer must match the reference, and the F1 of the
// two served answers must equal the F1 the session computed in-process.
func (b *bench) checkLearned(ctx context.Context, cl *client, ss []session) error {
	ref := newReference(b.in.ref)
	var buf bytes.Buffer
	served := func(expr string) ([]bool, []byte, error) {
		b.attempted++
		body, _ := json.Marshal(engine.Request{Query: expr}) // always marshals
		status, err := cl.post(ctx, graphPath+"/query", body, &buf)
		if err != nil || status != 200 {
			return nil, nil, fmt.Errorf("%s: status %d, %v: %s", body, status, err, truncate(buf.String()))
		}
		var ans answerJSON
		if err := json.Unmarshal(buf.Bytes(), &ans); err != nil {
			return nil, nil, err
		}
		vec := make([]bool, ref.nv)
		for _, n := range ans.Nodes {
			vec[ref.byName[n]] = true
		}
		return vec, bytes.Clone(buf.Bytes()), nil
	}
	for _, s := range ss {
		want, body, err := served(s.goal.Expr)
		if err != nil {
			b.fail(1, err.Error())
			continue
		}
		if err := ref.check(engine.Request{Query: s.goal.Expr}, body); err != nil {
			b.fail(1, fmt.Sprintf("goal %s: %v", s.goal.Name, err))
		}
		if s.learned == nil {
			continue
		}
		got, _, err := served(s.learned.String())
		if err != nil {
			b.fail(1, err.Error())
			continue
		}
		if f := metrics.F1(want, got); f != s.f1 {
			b.fail(1, fmt.Sprintf("goal %s: served F1 %.4f, in-process F1 %.4f", s.goal.Name, f, s.f1))
		}
	}
	return nil
}

// learnerLadder times the learner's calls through the sessions' own
// observer. On learn it runs the workload's sessions; the serving
// workloads never reach the learner, so there it runs a small probe (a
// 500-node graph and its three goals) to keep the learner's per-layer
// figures defined.
func (b *bench) learnerLadder() error {
	snap, goals := b.in.ref, b.in.goals
	if !b.sp.learn {
		g := buildGraph(graphEdges(datasets.Synthetic(probeNodes, *seed).Snapshot()))
		snap = g.Snapshot()
		goals = datasets.SynQueriesOn(snap)
	}
	var propose, label, learn []time.Duration
	var sessions []session
	k := 0.0
	for _, g := range goals {
		s, err := runSession(snap, g, b.spans)
		if err != nil {
			return err
		}
		propose = append(propose, s.meter.propose...)
		label = append(label, s.meter.label...)
		learn = append(learn, s.meter.learn...)
		k += float64(s.finalK)
		sessions = append(sessions, s)
	}
	b.values["interactive.propose_p50_ms"] = ms(quantile(propose, 0.5))
	b.values["interactive.learn_p50_ms"] = ms(quantile(learn, 0.5))
	b.values["interactive.label_p50_ms"] = ms(quantile(label, 0.5))
	b.values["core.k_final_mean"] = k / float64(len(sessions))
	b.noteSessions(sessions)
	return nil
}

// probeNodes sizes the learner probe of the serving workloads' traced run.
const probeNodes = 500
