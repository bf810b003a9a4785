// Package stats provides the measurement plumbing shared by experiments
// and benchmarks: latency recorders with exact percentiles, histograms,
// and plain-text table rendering for paper-style output.
package stats

import (
	"fmt"
	"slices"
	"strings"
)

// Latency records integer samples (cycles) and reports summary
// statistics. The zero value is ready to use.
type Latency struct {
	samples []int64
	sum     int64
	min     int64
	max     int64
}

// Record adds a sample.
func (l *Latency) Record(v int64) {
	if len(l.samples) == 0 || v < l.min {
		l.min = v
	}
	if len(l.samples) == 0 || v > l.max {
		l.max = v
	}
	l.samples = append(l.samples, v)
	l.sum += v
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the average, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	return float64(l.sum) / float64(len(l.samples))
}

// Min and Max return the extrema (0 with no samples).
func (l *Latency) Min() int64 { return l.min }
func (l *Latency) Max() int64 { return l.max }

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank on the sorted samples.
func (l *Latency) Percentile(p float64) int64 {
	return percentileOf(l.sorted(), p)
}

// countSortMin is the fewest samples sorted by counting.
const countSortMin = 128

// countable reports whether sorted counts the samples: every one is at
// least 0, there are countSortMin or more, and their range spans fewer
// values than half their number. Latencies in cycles crowd into a range
// far narrower than their count.
func (l *Latency) countable() bool {
	n := len(l.samples)
	return l.min >= 0 && n >= countSortMin && l.max-l.min < int64(n/2)
}

// sorted returns a sorted copy of the samples, in one allocation as
// slices.Clone makes. A countable set is counted, value by value, in a
// table carved from the same allocation and written out in order, in
// linear time. Otherwise a clone is sorted with slices.Sort, which
// needs no per-call closure or reflection swapper.
func (l *Latency) sorted() []int64 {
	if !l.countable() {
		sorted := slices.Clone(l.samples)
		slices.Sort(sorted)
		return sorted
	}
	n := len(l.samples)
	buf := make([]int64, n+int(l.max-l.min+1))
	sorted, counts := buf[:n:n], buf[n:]
	for _, v := range l.samples {
		counts[v-l.min]++
	}
	i := 0
	for d, c := range counts {
		for v := l.min + int64(d); c > 0; c-- {
			sorted[i] = v
			i++
		}
	}
	return sorted
}

// NearestRank returns the index that nearest-rank selection of the
// p-th percentile (0 < p <= 100) takes in n > 0 sorted samples.
func NearestRank(n int, p float64) int {
	rank := int(p/100*float64(n)+0.5) - 1
	return min(max(rank, 0), n-1)
}

// percentileOf is nearest-rank selection on an already-sorted slice.
func percentileOf(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[NearestRank(len(sorted), p)]
}

// String summarizes the distribution.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(95), l.Max())
}

// Table is a paper-style results table.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the table body.
func (t *Table) Rows() [][]string { return t.rows }

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Mark renders a boolean as a compatibility-matrix cell.
func Mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
