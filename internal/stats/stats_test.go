package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	for _, v := range []int64{10, 20, 30, 40, 50} {
		l.Record(v)
	}
	if l.Count() != 5 || l.Min() != 10 || l.Max() != 50 {
		t.Fatalf("count/min/max: %d %d %d", l.Count(), l.Min(), l.Max())
	}
	if l.Mean() != 30 {
		t.Fatalf("mean = %f", l.Mean())
	}
	if p := l.Percentile(50); p != 30 {
		t.Fatalf("p50 = %d", p)
	}
	if p := l.Percentile(100); p != 50 {
		t.Fatalf("p100 = %d", p)
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Count() != 0 {
		t.Fatal("empty recorder not zeroed")
	}
}

func TestLatencyPercentileUnsorted(t *testing.T) {
	var l Latency
	for _, v := range []int64{90, 10, 50, 70, 30} {
		l.Record(v)
	}
	if p := l.Percentile(20); p != 10 {
		t.Fatalf("p20 = %d", p)
	}
	if p := l.Percentile(95); p != 90 {
		t.Fatalf("p95 = %d", p)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta", 2.5)
	out := tb.Render()
	if !strings.Contains(out, "## demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("cells missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if len(tb.Rows()) != 2 {
		t.Fatal("Rows() wrong")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "long-header")
	tb.AddRow("xxxxxxxxxx", "y")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and row should be padded to equal visible width.
	if len(lines[0]) == 0 || len(lines[2]) == 0 {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestMark(t *testing.T) {
	if Mark(true) != "yes" || Mark(false) != "NO" {
		t.Fatal("Mark wrong")
	}
}

func TestLatencyPercentileEdges(t *testing.T) {
	// Empty recorder: every percentile is 0, not a panic.
	var empty Latency
	for _, p := range []float64{0.1, 50, 99, 100} {
		if v := empty.Percentile(p); v != 0 {
			t.Fatalf("empty p%.1f = %d, want 0", p, v)
		}
	}
	// Single sample: every percentile is that sample.
	var one Latency
	one.Record(42)
	for _, p := range []float64{0.1, 1, 50, 99, 100} {
		if v := one.Percentile(p); v != 42 {
			t.Fatalf("single-sample p%.1f = %d, want 42", p, v)
		}
	}
	if one.Min() != 42 || one.Max() != 42 || one.Mean() != 42 {
		t.Fatalf("single-sample min/max/mean: %d %d %f", one.Min(), one.Max(), one.Mean())
	}
}

func TestLatencySummary(t *testing.T) {
	var l Latency
	for v := int64(1); v <= 100; v++ {
		l.Record(v)
	}
	s := l.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary count/min/max: %+v", s)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("summary percentiles: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	if h.String() != "empty" || h.PercentileUpper(50) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Record(v)
	}
	if h.Total() != 8 || h.Max() != 1000 {
		t.Fatalf("total/max: %d %d", h.Total(), h.Max())
	}
	bks := h.Buckets()
	// Expect bins: [0,0]:1 [1,1]:1 [2,3]:2 [4,7]:2 [8,15]:1 [512,1023]:1.
	want := []HistBucket{
		{0, 0, 1}, {1, 1, 1}, {2, 3, 2}, {4, 7, 2}, {8, 15, 1}, {512, 1023, 1},
	}
	if len(bks) != len(want) {
		t.Fatalf("buckets: %v", bks)
	}
	for i, b := range bks {
		if b != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b, want[i])
		}
	}
	// Rank of p50 over 8 samples is 4; the 4th sample (3) is in [2,3].
	if got := h.PercentileUpper(50); got != 3 {
		t.Fatalf("p50 upper = %d, want 3", got)
	}
	if got := h.PercentileUpper(100); got != 1023 {
		t.Fatalf("p100 upper = %d, want 1023", got)
	}
}

func TestHistogramPercentileNearestRank(t *testing.T) {
	// Nine fast samples and one slow one: the p95 of 10 samples is the
	// 10th by nearest-rank (ceil(0.95*10) = 10). A floored rank read the
	// 9th sample and reported the fast bucket.
	var h Histogram
	for i := 0; i < 9; i++ {
		h.Record(1)
	}
	h.Record(1000)
	if got := h.PercentileUpper(95); got != 1023 {
		t.Fatalf("p95 of 9x1+1x1000 = %d, want 1023 (nearest-rank reads the 10th sample)", got)
	}
	if got := h.PercentileUpper(90); got != 1 {
		t.Fatalf("p90 = %d, want 1 (rank 9 is still a fast sample)", got)
	}
	if got := h.PercentileUpper(100); got != 1023 {
		t.Fatalf("p100 = %d, want 1023", got)
	}
	// Tiny p never ranks below the first sample; huge totals never rank
	// above the last.
	if got := h.PercentileUpper(0.001); got != 1 {
		t.Fatalf("p0.001 = %d, want 1", got)
	}
	var one Histogram
	one.Record(7)
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if got := one.PercentileUpper(p); got != 7 {
			t.Fatalf("single-sample p%.0f = %d, want 7", p, got)
		}
	}
}

func TestHistogramMergeAndMean(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(20)
	b.Record(30)
	b.Record(1000)
	a.Merge(&b)
	if a.Total() != 4 || a.Max() != 1000 {
		t.Fatalf("merged total/max: %d %d", a.Total(), a.Max())
	}
	if a.Mean() != 265 {
		t.Fatalf("merged mean = %f", a.Mean())
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	var sb strings.Builder
	if err := WriteJSON(&sb, tb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{`"title": "demo"`, `"cols"`, `"alpha"`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("JSON missing %q:\n%s", frag, out)
		}
	}
	// Empty table must marshal rows as [], not null.
	var sb2 strings.Builder
	if err := WriteJSON(&sb2, NewTable("t", "c")); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), "null") {
		t.Fatalf("empty table marshals null:\n%s", sb2.String())
	}
}

func TestHistogramJSONBounds(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 7, 100} {
		h.Record(v)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket bounds must be on the wire, not reconstructed by readers.
	for _, frag := range []string{`"total":6`, `"max":100`, `"buckets"`, `"lo":2,"hi":3,"count":2`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("histogram JSON missing %q:\n%s", frag, data)
		}
	}

	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != h.Total() || back.Max() != h.Max() {
		t.Fatalf("round trip lost totals: got %d/%d want %d/%d",
			back.Total(), back.Max(), h.Total(), h.Max())
	}
	if back.Mean() != h.Mean() {
		t.Fatalf("round trip lost mean: got %v want %v", back.Mean(), h.Mean())
	}

	// Mean reconstruction must round, not truncate: one sample of 1
	// among 48 zeros makes mean*total = 0.99999999999999989.
	var frac Histogram
	frac.Record(1)
	for i := 0; i < 48; i++ {
		frac.Record(0)
	}
	fd, err := json.Marshal(&frac)
	if err != nil {
		t.Fatal(err)
	}
	var fback Histogram
	if err := json.Unmarshal(fd, &fback); err != nil {
		t.Fatal(err)
	}
	if fback.Mean() != frac.Mean() {
		t.Fatalf("fractional mean lost: got %v want %v", fback.Mean(), frac.Mean())
	}
	if got, want := back.String(), h.String(); got != want {
		t.Fatalf("round trip changed buckets: got %s want %s", got, want)
	}

	// Empty histogram: buckets must be [], not null.
	data, err = json.Marshal(&Histogram{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "null") {
		t.Fatalf("empty histogram marshals null: %s", data)
	}
}

// TestSortedCountingMatchesSort: the counting sort and the comparison
// sort it stands in for give the same order and percentiles, each in
// one allocation, on both sides of every condition that picks between
// them: sample count at and below countSortMin, negative samples, and
// ranges at and past half the count.
func TestSortedCountingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	cases := []struct {
		name      string
		n         int
		lo, span  int64
		countable bool
	}{
		{"below threshold", countSortMin - 1, 5, 10, false},
		{"at threshold", countSortMin, 5, 10, true},
		{"typical latencies", 5000, 12, 300, true},
		{"one value", 400, 77, 1, true},
		{"range just under half", 1000, 0, 500, true},
		{"range half the count", 1000, 0, 501, false},
		{"wide range", 1000, 0, 1 << 40, false},
		{"negative samples", 1000, -50, 100, false},
		{"zero and the int64 maximum", 1000, 0, 0, false},
	}
	for _, c := range cases {
		var l Latency
		for i := 0; i < c.n; i++ {
			switch {
			case i == 1 && c.span == 0:
				l.Record(math.MaxInt64)
			case i == 1: // the range's last value, so the span is exact
				l.Record(c.lo + c.span - 1)
			case i > 1 && c.span > 1:
				l.Record(c.lo + rng.Int63n(c.span))
			default:
				l.Record(c.lo)
			}
		}
		if l.countable() != c.countable {
			t.Fatalf("%s: countable() = %v, want %v", c.name, l.countable(), c.countable)
		}
		before := slices.Clone(l.samples)
		want := slices.Clone(l.samples)
		slices.Sort(want)
		got := l.sorted()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sorted() differs from slices.Sort", c.name)
		}
		if !slices.Equal(l.samples, before) {
			t.Fatalf("%s: sorted() reordered the recorded samples", c.name)
		}
		for _, p := range []float64{0.1, 1, 50, 95, 99, 100} {
			if g, w := l.Percentile(p), percentileOf(want, p); g != w {
				t.Fatalf("%s: p%v = %d, want %d", c.name, p, g, w)
			}
		}
		s := l.Summary()
		if s.P50 != percentileOf(want, 50) || s.P95 != percentileOf(want, 95) || s.P99 != percentileOf(want, 99) {
			t.Fatalf("%s: summary %+v", c.name, s)
		}
		if a := testing.AllocsPerRun(5, func() { l.sorted() }); a != 1 {
			t.Fatalf("%s: sorted() made %v allocations, want 1", c.name, a)
		}
	}
}
