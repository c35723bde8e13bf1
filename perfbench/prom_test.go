package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"pathquery/internal/engine"
	"pathquery/internal/store"
	"pathquery/internal/telemetry"
)

func scrapeOf(t *testing.T, reg *telemetry.Registry) scrape {
	t.Helper()
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	s, err := parseScrape(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrapeDiff checks that counters and histogram quantiles are read as
// growth between two scrapes, filtered by label.
func TestScrapeDiff(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := telemetry.Label{Key: "tenant", Value: "g"}
	other := telemetry.Label{Key: "tenant", Value: "h"}
	h := reg.Histogram("x_seconds", "x", g)
	c := reg.Counter("y_total", "y", g)
	reg.Counter("y_total", "y", other).Add(7)
	h.Observe(time.Hour) // before the window: must not count
	before := scrapeOf(t, reg)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
		c.Inc()
	}
	after := scrapeOf(t, reg)
	if got := after.sum(before, "y_total", "tenant", "g"); got != 100 {
		t.Errorf("counter growth %v, want 100", got)
	}
	if got := after.sum(before, "y_total"); got != 100 {
		t.Errorf("counter growth over all tenants %v, want 100", got)
	}
	p50 := after.quantile(before, "x_seconds", 0.5, "tenant", "g")
	if math.Abs(p50-0.050) > 0.050*(math.Sqrt2-1) {
		t.Errorf("p50 %v s, want 0.050 s within one bucket", p50)
	}
	if got := after.quantile(before, "x_seconds", 0.5, "tenant", "h"); got != 0 {
		t.Errorf("quantile of an absent series %v, want 0", got)
	}
}

// TestWritePathFromMetrics checks that the write-path figures are read
// from the families a durable engine and its store register, as a
// served tenant registers them.
func TestWritePathFromMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := engine.New(st.Graph(), engine.Options{Log: st})
	defer e.Close()
	reg := telemetry.NewRegistry()
	tl := telemetry.Label{Key: "tenant", Value: tenant}
	e.RegisterMetrics(reg, tl)
	st.RegisterMetrics(reg, tl)
	for i := 0; i < 5; i++ {
		if _, err := e.Mutate([]engine.EdgeSpec{{From: "a", Label: "l", To: "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	b := &bench{values: make(map[string]float64)}
	b.writePath(scrape{}, scrapeOf(t, reg))
	for _, name := range []string{"engine.mutate_p50_us", "engine.mutate_p99_us", "engine.publish_build_p50_us",
		"engine.publish_fsync_p50_us", "engine.publish_swap_p50_us", "store.fsync_p50_us", "store.fsync_p99_us"} {
		if b.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, b.values[name])
		}
	}
	if got := b.values["engine.wal_batch_mean"]; got != 1 {
		t.Errorf("engine.wal_batch_mean = %v, want 1 for sequential mutations", got)
	}
}
