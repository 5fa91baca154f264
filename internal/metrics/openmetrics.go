// Prometheus text exposition (format version 0.0.4) for the registry, so
// a scraper pointed at the introspection server's /adsm/metrics endpoint
// ingests the runtime's counters, gauges and histograms directly.
//
// The registry's flat `name{key=value}` labelling convention (see Label)
// is re-quoted into proper Prometheus label syntax (`name{key="value"}`),
// one `# TYPE` line is emitted per metric family, histogram buckets become
// the cumulative `_bucket{le="..."}` series with `+Inf`, and `_sum` /
// `_count` close each distribution; `_count` is the `+Inf` bucket's value,
// as the format requires.
package metrics

import (
	"io"
	"strconv"
	"strings"
)

// OpenMetricsContentType is the Content-Type a scrape endpoint serving
// WriteOpenMetrics output must advertise.
const OpenMetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteOpenMetrics renders every registered metric in the Prometheus text
// exposition format. Families (metrics sharing a base name before the
// label suffix) get a single # TYPE header; the registry's sorted
// iteration order keeps a family's series adjacent as the format requires.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	counters, gauges, histograms := r.namesLocked()
	buf := make([]byte, 0, 512+96*(len(counters)+len(gauges))+1024*len(histograms))
	prevBase := ""
	for _, n := range counters {
		base, labels := splitFlatLabel(n)
		if base != prevBase {
			buf = appendTypeLine(buf, base, "counter")
			prevBase = base
		}
		buf = append(buf, base...)
		buf = append(buf, labels...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, r.counters[n].Value(), 10)
		buf = append(buf, '\n')
	}
	prevBase = ""
	for _, n := range gauges {
		base, labels := splitFlatLabel(n)
		if base != prevBase {
			buf = appendTypeLine(buf, base, "gauge")
			prevBase = base
		}
		buf = append(buf, base...)
		buf = append(buf, labels...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, r.gauges[n].Value(), 10)
		buf = append(buf, '\n')
	}
	prevBase = ""
	for _, n := range histograms {
		base, labels := splitFlatLabel(n)
		if base != prevBase {
			buf = appendTypeLine(buf, base, "histogram")
			prevBase = base
		}
		h := r.histograms[n]
		cum := int64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatInt(h.bounds[i], 10)
			}
			buf = append(buf, base...)
			buf = append(buf, "_bucket"...)
			buf = appendLabels(buf, labels, "le", le)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, cum, 10)
			buf = append(buf, '\n')
		}
		buf = append(buf, base...)
		buf = append(buf, "_sum"...)
		buf = append(buf, labels...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, h.sum.Load(), 10)
		buf = append(buf, '\n')
		buf = append(buf, base...)
		buf = append(buf, "_count"...)
		buf = append(buf, labels...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cum, 10) // the +Inf bucket's value
		buf = append(buf, '\n')
	}
	r.mu.Unlock()
	_, err := w.Write(buf)
	return err
}

// splitFlatLabel decomposes a registry name built by Label into a
// Prometheus-safe base name and a rendered `{key="value",...}` label block
// ("" if the name carries no label). The base name is sanitised to the
// Prometheus identifier charset.
func splitFlatLabel(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return sanitizeMetricName(name), ""
	}
	kv := name[i+1 : len(name)-1]
	j := strings.IndexByte(kv, '=')
	if j < 0 {
		return sanitizeMetricName(name), ""
	}
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(sanitizeLabelName(kv[:j]))
	b.WriteString(`="`)
	b.WriteString(escapeLabelValue(kv[j+1:]))
	b.WriteString(`"}`)
	return sanitizeMetricName(name[:i]), b.String()
}

// appendLabels appends a label block merging an existing rendered block
// with one extra key/value pair (used for the histogram `le` label).
func appendLabels(buf []byte, labels, key, value string) []byte {
	if labels == "" {
		buf = append(buf, '{')
	} else {
		buf = append(buf, labels[:len(labels)-1]...) // drop closing brace
		buf = append(buf, ',')
	}
	buf = append(buf, key...)
	buf = append(buf, `="`...)
	buf = append(buf, escapeLabelValue(value)...)
	buf = append(buf, `"}`...)
	return buf
}

func appendTypeLine(buf []byte, base, typ string) []byte {
	buf = append(buf, "# TYPE "...)
	buf = append(buf, base...)
	buf = append(buf, ' ')
	buf = append(buf, typ...)
	buf = append(buf, '\n')
	return buf
}

// sanitizeMetricName maps a name onto [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	return sanitizeIdent(name, true)
}

// sanitizeLabelName maps a label key onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(name string) string {
	return sanitizeIdent(name, false)
}

func sanitizeIdent(name string, allowColon bool) string {
	ok := func(i int, c byte) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			return true
		case c == ':':
			return allowColon
		case c >= '0' && c <= '9':
			return i > 0
		}
		return false
	}
	clean := true
	for i := 0; i < len(name); i++ {
		if !ok(i, name[i]) {
			clean = false
			break
		}
	}
	if clean && name != "" {
		return name
	}
	if name == "" {
		return "_"
	}
	out := []byte(name)
	for i := range out {
		if !ok(i, out[i]) {
			out[i] = '_'
		}
	}
	return string(out)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}
