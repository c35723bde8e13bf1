package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of the server's /metrics: every sample keyed by
// its series (name plus labels, as printed).
type scrape map[string]float64

func getMetrics(ctx context.Context, c *client) (scrape, error) {
	var buf bytes.Buffer
	status, err := c.get(ctx, "/metrics", &buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseScrape(&buf)
}

// parseScrape reads Prometheus text exposition.
func parseScrape(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds the growth since before of every series of the named family
// whose labels contain all of the given label pairs.
func (s scrape) sum(before scrape, name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		if seriesName(k) == name && hasLabels(k, labels) {
			total += v - before[k]
		}
	}
	return total
}

// quantile estimates quantile q of what a histogram family observed
// since before, interpolating linearly inside the bucket the quantile
// falls in (as Prometheus's histogram_quantile does). Values are in the
// family's unit (seconds for latency histograms).
func (s scrape) quantile(before scrape, name string, q float64, labels ...string) float64 {
	type bucket struct{ le, count float64 }
	byLE := make(map[float64]float64)
	for k, v := range s {
		if seriesName(k) != name+"_bucket" || !hasLabels(k, labels) {
			continue
		}
		le := labelValue(k, "le")
		bound := math.Inf(1)
		if le != "+Inf" {
			bound, _ = strconv.ParseFloat(le, 64)
		}
		byLE[bound] += v - before[k]
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		buckets = append(buckets, bucket{le, c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].count
	lower, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower
			}
			if b.count == below {
				return b.le
			}
			return lower + (b.le-lower)*(rank-below)/(b.count-below)
		}
		lower, below = b.le, b.count
	}
	return lower
}

func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

func hasLabels(key string, labels []string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if labelValue(key, labels[i]) != labels[i+1] {
			return false
		}
	}
	return true
}

func labelValue(key, label string) string {
	i := strings.Index(key, "{"+label+`="`)
	if i < 0 {
		i = strings.Index(key, ","+label+`="`)
	}
	if i < 0 {
		return ""
	}
	rest := key[i+len(label)+3:]
	return rest[:strings.IndexByte(rest, '"')]
}
