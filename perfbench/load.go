package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// phase is what one load phase measured.
type phase struct {
	start   time.Time       // when the load started
	lat     []time.Duration // per answered request: from due time (open loop) or send (closed loop)
	at      []time.Duration // per answered request: when it was due (open loop) or answered (closed loop), since the start
	sent    int64
	failed  int64 // non-2xx or no response
	elapsed time.Duration
	maxLate time.Duration // open loop: the most the generator fell behind its schedule
	bytes   int64         // response body bytes
	errs    []string      // a few failure descriptions, for the log
}

func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.at = append(p.at, o.at...)
	p.sent += o.sent
	p.failed += o.failed
	p.elapsed = max(p.elapsed, o.elapsed)
	p.maxLate = max(p.maxLate, o.maxLate)
	p.bytes += o.bytes
	if len(p.errs) < 5 {
		p.errs = append(p.errs, o.errs[:min(len(o.errs), 5-len(p.errs))]...)
	}
}

func (p *phase) fail(desc string) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, desc)
	}
}

// reads drives read traffic from pool at the server: workers goroutines,
// each on its own keep-alive connection. With rate > 0 it is an open
// loop: worker w sends its i-th request when it is due, at
// (i·workers+w)/rate after the start, however late earlier answers came,
// and latency counts from that due time. With rate = 0 it is a closed
// loop: each worker sends its next request when the previous answer is
// read. Every answer is handed to rec; spans, when set, records each
// request as a client span.
func reads(ctx context.Context, c *client, pool []request, rec *recorder, spans *spanLog,
	workers int, rate float64, dur time.Duration, seed int64) *phase {
	start := time.Now()
	end := start.Add(dur)
	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// sleepUntil blocks the thread; keep it to this worker.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ph := &phase{}
			parts[w] = ph
			rng := rand.New(rand.NewSource(seed*1000003 + int64(w)))
			var buf bytes.Buffer
			for i := 0; ctx.Err() == nil; i++ {
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i*workers+w) / rate * float64(time.Second)))
					sleepUntil(due)
				}
				if !due.Before(end) {
					break
				}
				idx := rng.Intn(len(pool))
				sent := time.Now()
				ph.maxLate = max(ph.maxLate, sent.Sub(due))
				status, err := c.post(ctx, graphPath+"/query", pool[idx].body, &buf)
				done := time.Now()
				ph.sent++
				switch {
				case err != nil:
					ph.fail(err.Error())
					continue
				case status != 200:
					ph.fail(truncate(buf.String()))
					continue
				}
				ph.lat = append(ph.lat, done.Sub(due))
				if rate > 0 {
					ph.at = append(ph.at, due.Sub(start))
				} else {
					ph.at = append(ph.at, done.Sub(start))
				}
				ph.bytes += int64(buf.Len())
				spans.add("client", sent, done, "", spans.newID())
				if !rec.observe(idx, buf.Bytes()) {
					ph.fail("answer differs from an earlier answer to the same request")
				}
			}
			ph.elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	out := &phase{start: start}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// writer sends the write stream in order from batch from on, its k-th
// batch when turn(k) returns the batch's due time, until turn reports
// that the writer is done; latency counts from the due time to the
// acknowledgement. acked receives the indices of the batches the server
// acknowledged.
func writer(ctx context.Context, c *client, bodies [][]byte, from int, turn func(k int) (time.Time, bool)) (ph *phase, acked []int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph = &phase{start: time.Now()}
	var buf bytes.Buffer
	for i := from; i < len(bodies) && ctx.Err() == nil; i++ {
		due, ok := turn(i - from)
		if !ok {
			break
		}
		ph.maxLate = max(ph.maxLate, time.Since(due))
		status, err := c.post(ctx, graphPath+"/mutate", bodies[i], &buf)
		ph.sent++
		switch {
		case err != nil:
			ph.fail(err.Error())
		case status != 200:
			ph.fail(truncate(buf.String()))
		default:
			ph.lat = append(ph.lat, time.Since(due))
			ph.at = append(ph.at, due.Sub(ph.start))
			acked = append(acked, i)
		}
	}
	ph.elapsed = time.Since(ph.start)
	return ph, acked
}

// atRate is a writer turn for a fixed rate: the k-th batch is due at
// k/rate after the first call, and the writer stops at the first batch
// due d or more after it.
func atRate(rate float64, d time.Duration) func(int) (time.Time, bool) {
	var start time.Time
	return func(k int) (time.Time, bool) {
		if k == 0 {
			start = time.Now()
		}
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if due.After(start.Add(d)) {
			return due, false
		}
		sleepUntil(due)
		return due, true
	}
}

// onTick is a writer turn that is due at each signal of tick, until
// stop is closed.
func onTick(tick <-chan struct{}, stop <-chan struct{}) func(int) (time.Time, bool) {
	return func(int) (time.Time, bool) {
		select {
		case <-tick:
			return time.Now(), true
		case <-stop:
			return time.Time{}, false
		}
	}
}

// sleepUntil blocks the calling thread until due with nanosleep, which
// wakes within tens of microseconds; time.Sleep wakes up to a
// millisecond late on Linux, which would dominate sub-millisecond
// open-loop latencies. Callers lock their goroutine to its thread.
func sleepUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}

// sliceWidth is the length of the slices a phase's figures are
// summarized over.
const sliceWidth = time.Second

// slices groups a phase's latencies into consecutive whole slices of
// sliceWidth by their at time; a trailing partial slice is dropped (a
// phase shorter than one slice is one slice).
func (p *phase) slices() [][]time.Duration {
	out := make([][]time.Duration, max(1, int(p.elapsed/sliceWidth)))
	for i, at := range p.at {
		if k := int(at / sliceWidth); k < len(out) {
			out[k] = append(out[k], p.lat[i])
		}
	}
	return out
}

// sliceP50 is quantile q over slices of each slice's median latency.
func (p *phase) sliceP50(q float64) time.Duration {
	var meds []time.Duration
	for _, s := range p.slices() {
		if len(s) > 0 {
			meds = append(meds, quantile(s, 0.5))
		}
	}
	return quantile(meds, q)
}

// sliceRate is quantile q over slices of the answers per second.
func (p *phase) sliceRate(q float64) float64 {
	slices := p.slices()
	if len(slices) == 1 {
		return float64(len(p.lat)) / p.elapsed.Seconds()
	}
	counts := make([]time.Duration, len(slices)) // answer counts, in a type quantile takes
	for i, s := range slices {
		counts[i] = time.Duration(len(s))
	}
	return float64(quantile(counts, q)) / sliceWidth.Seconds()
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}

// cpuSample is a process's CPU time read at one moment.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads pid's CPU time every width until the returned stop
// function is called, which returns the samples.
func sampleCPU(pid int, width time.Duration) (stop func() []cpuSample) {
	var samples []cpuSample
	read := func() {
		if cpu, err := cpuTime(pid); err == nil { // a live child's clock always reads
			samples = append(samples, cpuSample{time.Now(), cpu})
		}
	}
	read()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(width)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() []cpuSample {
		close(done)
		<-exited
		read()
		return samples
	}
}

// cpuPerAnswer splits a closed-loop phase into the windows between
// consecutive CPU samples of the server and returns quantile q over
// windows of the server CPU time per answer in each window. On a shared
// host, other guests slow some windows down; a low quantile measures the
// windows they left alone.
func (p *phase) cpuPerAnswer(samples []cpuSample, q float64) time.Duration {
	done := make([]time.Duration, len(p.at)) // answer times since the start, sorted
	copy(done, p.at)
	slices.Sort(done)
	var per []time.Duration
	for i := 1; i < len(samples); i++ {
		from, _ := slices.BinarySearch(done, samples[i-1].at.Sub(p.start))
		to, _ := slices.BinarySearch(done, samples[i].at.Sub(p.start))
		if n := to - from; n > 0 {
			per = append(per, (samples[i].cpu-samples[i-1].cpu)/time.Duration(n))
		}
	}
	return quantile(per, q)
}
