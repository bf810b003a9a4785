package metrics

import (
	"bufio"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file renders the registry in the Prometheus text exposition
// format (version 0.0.4): "# HELP"/"# TYPE" headers followed by one
// sample line per labeled instance, histograms expanded into
// cumulative _bucket{le=...}, _sum, and _count series. Output is fully
// deterministic — families sorted by name, samples by label string —
// so a scrape can be pinned by a golden file.

// WritePrometheus renders every registered metric to w. Values are
// read atomically but the scrape as a whole is not a consistent
// snapshot — standard for a live registry. A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the family/sample structure under the lock, then render
	// outside it: rendering does I/O and GaugeFunc callbacks.
	type expoSample struct {
		lbl string
		s   sample
	}
	type expoFamily struct {
		name, help string
		typ        familyType
		samples    []expoSample
	}
	r.mu.Lock()
	fams := make([]expoFamily, 0, len(r.families))
	for _, f := range r.families {
		ef := expoFamily{name: f.name, help: f.help, typ: f.typ}
		for lbl, s := range f.byLabel {
			ef.samples = append(ef.samples, expoSample{lbl: lbl, s: s})
		}
		slices.SortFunc(ef.samples, func(a, b expoSample) int { return strings.Compare(a.lbl, b.lbl) })
		fams = append(fams, ef)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b expoFamily) int { return strings.Compare(a.name, b.name) })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.typ.String() + "\n")
		for _, es := range f.samples {
			switch s := es.s.(type) {
			case *Counter:
				bw.WriteString(f.name + es.lbl + " " + strconv.FormatUint(s.Value(), 10) + "\n")
			case *Gauge:
				bw.WriteString(f.name + es.lbl + " " + formatFloat(s.Value()) + "\n")
			case *gaugeFunc:
				bw.WriteString(f.name + es.lbl + " " + formatFloat(s.fn()) + "\n")
			case *Histogram:
				writeHistogram(bw, f.name, es.lbl, s)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(bw *bufio.Writer, name, lbl string, h *Histogram) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		bw.WriteString(name + "_bucket" + mergeLe(lbl, strconv.FormatInt(b, 10)) +
			" " + strconv.FormatUint(cum, 10) + "\n")
	}
	cum += h.buckets[len(h.bounds)].Load()
	bw.WriteString(name + "_bucket" + mergeLe(lbl, "+Inf") + " " + strconv.FormatUint(cum, 10) + "\n")
	bw.WriteString(name + "_sum" + lbl + " " + strconv.FormatInt(h.Sum(), 10) + "\n")
	bw.WriteString(name + "_count" + lbl + " " + strconv.FormatUint(h.Count(), 10) + "\n")
}

// mergeLe splices the le bucket label into an existing (possibly
// empty) label set.
func mergeLe(lbl, le string) string {
	if lbl == "" {
		return `{le="` + le + `"}`
	}
	return lbl[:len(lbl)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Each calls f once per flat sample with a fully qualified key
// (name plus canonical label string; histograms contribute _sum and
// _count). Iteration order is sorted and deterministic. Snapshots and
// tests use it to dump the registry without parsing exposition text.
// It walks the sample list the registry keeps, so a dump allocates
// nothing per sample; the list is re-sorted (one copy) only after new
// registrations.
func (r *Registry) Each(f func(key string, value float64)) {
	if r == nil {
		return
	}
	for _, e := range r.dump() {
		f(e.key, e.value())
	}
}

// appendJSON appends the registry dump as one JSON object: the bytes
// json.Marshal writes for the map Each fills, keys sorted, except that
// a sample whose value is not finite is left out (JSON has no NaN)
// where json.Marshal would fail the whole object. It appends nothing
// for a nil or empty registry.
func (r *Registry) appendJSON(dst []byte) []byte {
	if r == nil {
		return dst
	}
	es := r.dump()
	if len(es) == 0 {
		return dst
	}
	n := 2
	for i := range es {
		n += len(es[i].key) + 32 // quotes, escapes, colon, comma, the longest float
	}
	dst = append(slices.Grow(dst, n), '{')
	first := true
	for i := range es {
		v := es[i].value()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = appendJSONString(dst, es[i].key)
		dst = append(dst, ':')
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, '}')
}

// appendJSONFloat formats v as encoding/json does: like %g, but with
// ES6's exponent cutoffs and no zero-padded exponent.
func appendJSONFloat(dst []byte, v float64) []byte {
	abs := math.Abs(v)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	dst = strconv.AppendFloat(dst, v, fmt, -1, 64)
	if fmt == 'e' {
		// e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString quotes s as encoding/json does with its default HTML
// escaping: quote, backslash and control bytes escaped, <, > and &
// as \u00XX, invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
