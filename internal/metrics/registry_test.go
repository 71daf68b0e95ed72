package metrics

import "testing"

// TestHistogramConsistency checks the bucket/sum/count invariants a
// Prometheus scraper relies on: buckets are cumulative and monotone,
// the +Inf bucket equals the count, and the sum matches what was
// observed.
func TestHistogramConsistency(t *testing.T) {
	h := newHistogram(timeBuckets)
	var want float64
	for i := 0; i < 1000; i++ {
		v := float64(i%17) / 100
		h.Observe(v)
		want += v
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if diff := h.Sum() - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var cum, prev uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum < prev {
			t.Fatalf("bucket %d not monotone", i)
		}
		prev = cum
	}
	if cum != h.Count() {
		t.Fatalf("+Inf cumulative %d != count %d", cum, h.Count())
	}
}
