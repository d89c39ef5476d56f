// Prometheus text-format exposition for Registry. Metric names in the
// registry follow the convention produced by Label: a base name optionally
// followed by {k="v",...}. WritePrometheus renders each family with a
// # TYPE header, sanitizing names and escaping label values so arbitrary
// registry keys (function names, endpoint addresses) cannot corrupt the
// output stream.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label builds a registry metric name "base{k1=\"v1\",k2=\"v2\"}" from
// alternating key/value pairs. Keys and values are recorded verbatim;
// sanitization happens at exposition time. Odd trailing arguments panic.
func Label(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("metrics: Label requires alternating key/value pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabels parses a Label-built name back into its base and label map.
// Names without labels return a nil map. Malformed label blocks are
// returned as part of the base (never dropped silently).
func SplitLabels(name string) (base string, labels map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:i]
	body := name[i+1 : len(name)-1]
	labels = make(map[string]string)
	for _, part := range splitLabelPairs(body) {
		eq := strings.Index(part, `="`)
		if eq < 0 || !strings.HasSuffix(part, `"`) {
			return name, nil // malformed: treat the whole thing as a base name
		}
		labels[part[:eq]] = part[eq+2 : len(part)-1]
	}
	return base, labels
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) || len(s) > 0 {
		out = append(out, s[start:])
	}
	return out
}

// sanitizeName rewrites s into a valid Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid runes become '_'; a leading digit is
// prefixed with '_'. Empty names become "_".
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteByte(c)
			continue
		}
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// renderLabels renders a sanitized {k="v",...} block, merging extra pairs
// (e.g. le for histogram buckets) after the metric's own labels. Returns
// "" when there are no labels at all.
func renderLabels(labels map[string]string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels { //det: sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(k), escapeLabelValue(labels[k]))
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabelValue(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// promMetric is one registry entry resolved to its sanitized family name.
type promMetric struct {
	family string // sanitized base name
	labels map[string]string
	write  func(w io.Writer, family, labelBlock string, labels map[string]string)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples and histograms with cumulative le buckets plus _sum/_count.
// Families are grouped under one # TYPE line and emitted in sorted order
// for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	emit := func(typ string, metrics []promMetric) {
		sort.Slice(metrics, func(i, j int) bool { return metrics[i].family < metrics[j].family })
		lastFamily := ""
		for _, m := range metrics {
			if m.family != lastFamily {
				fmt.Fprintf(bw, "# TYPE %s %s\n", m.family, typ)
				lastFamily = m.family
			}
			m.write(bw, m.family, renderLabels(m.labels, "", ""), m.labels)
		}
	}

	var counters []promMetric
	r.EachCounter(func(name string, c *Counter) {
		base, labels := SplitLabels(name)
		counters = append(counters, promMetric{
			family: sanitizeName(base), labels: labels,
			write: func(w io.Writer, family, lb string, _ map[string]string) {
				fmt.Fprintf(w, "%s%s %d\n", family, lb, c.Value())
			},
		})
	})
	emit("counter", counters)

	var gauges []promMetric
	r.EachGauge(func(name string, g *Gauge) {
		base, labels := SplitLabels(name)
		gauges = append(gauges, promMetric{
			family: sanitizeName(base), labels: labels,
			write: func(w io.Writer, family, lb string, _ map[string]string) {
				fmt.Fprintf(w, "%s%s %v\n", family, lb, g.Value())
			},
		})
	})
	emit("gauge", gauges)

	var hists []promMetric
	r.EachHistogram(func(name string, h *Histogram) {
		base, labels := SplitLabels(name)
		hists = append(hists, promMetric{
			family: sanitizeName(base), labels: labels,
			write: func(w io.Writer, family, _ string, labels map[string]string) {
				writeHistogram(w, family, labels, h)
			},
		})
	})
	emit("histogram", hists)

	return bw.Flush()
}

// writeHistogram renders one histogram as cumulative le buckets. Only
// boundaries that close a non-empty bucket are emitted (512 log buckets
// would bloat every scrape); cumulative counts stay exact because each
// emitted bound carries everything below it. Buckets with a recorded
// exemplar carry an OpenMetrics-style ` # {trace_id="..."} <value>`
// suffix linking the bucket to the latest trace that landed in it;
// histograms never fed through AddExemplar expose byte-identical output
// to before exemplars existed.
func writeHistogram(w io.Writer, family string, labels map[string]string, h *Histogram) {
	snap := h.snapshot()
	exemplar := func(b int) string {
		e, ok := snap.exemplars[b]
		if !ok {
			return ""
		}
		return fmt.Sprintf(` # {trace_id="%s"} %v`, escapeLabelValue(e.TraceID), e.Value)
	}
	cum := int64(0)
	if snap.underflow > 0 {
		cum += snap.underflow
		fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			family, renderLabels(labels, "le", fmt.Sprintf("%.3g", histMinVal)), cum, exemplar(-1))
	}
	for b, c := range snap.counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			family, renderLabels(labels, "le", fmt.Sprintf("%.6g", bucketUpper(b))), cum, exemplar(b))
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", family, renderLabels(labels, "le", "+Inf"), snap.n)
	lb := renderLabels(labels, "", "")
	fmt.Fprintf(w, "%s_sum%s %v\n", family, lb, snap.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", family, lb, snap.n)
}
