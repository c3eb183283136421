// Prometheus text-format exposition (version 0.0.4) and a small parser used
// by tests and the CI scrape gate to reject malformed output.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type header value for the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the registry in Prometheus text
// format: families sorted by name, series within a family sorted by label
// string, histograms expanded into cumulative _bucket/_sum/_count series.
// The ordering is deterministic so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		r.mu.Lock()
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make([]*series, len(keys))
		for i, k := range keys {
			ordered[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range ordered {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				if s.fg != nil {
					fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatFloat(s.fg.Value()))
				} else {
					fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.g.Value())
				}
			case kindHistogram:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, name string, s *series) {
	h := s.h
	cum := int64(0)
	for i, up := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, formatFloat(up)), cum)
	}
	cum += h.overflo.Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
}

// withLE splices the le label into an already-rendered label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(help string) string {
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}

// Snapshot returns every series as a flat map of rendered series name →
// value. Histograms contribute their _count and _sum, so in-process readers
// such as perfbench's loop get the counters without parsing the text
// format.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for name, f := range r.families {
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				out[name+s.labels] = float64(s.c.Value())
			case kindGauge:
				if s.fg != nil {
					out[name+s.labels] = s.fg.Value()
				} else {
					out[name+s.labels] = float64(s.g.Value())
				}
			case kindHistogram:
				out[name+"_count"+s.labels] = float64(s.h.Count())
				out[name+"_sum"+s.labels] = s.h.Sum()
			}
		}
	}
	return out
}

// seriesLine matches `name{labels} value` or `name value` with the
// Prometheus name and label grammar; the value is validated separately.
var seriesLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)

// ParseExposition reads Prometheus text format and returns series → value.
// It enforces the structural rules the engine's own exposition promises:
// every series belongs to a declared TYPE (histogram series may carry
// _bucket/_sum/_count suffixes), values parse as floats, no series repeats,
// and every histogram label set has a +Inf bucket.
func ParseExposition(rd io.Reader) (map[string]float64, error) {
	types := map[string]string{}
	values := map[string]float64{}
	infSeen := map[string]bool{}
	histSeen := map[string]bool{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		m := seriesLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: malformed series %q", lineNo, line)
		}
		name, labels, raw := m[1], m[2], m[3]
		var v float64
		if raw == "+Inf" || raw == "-Inf" || raw == "NaN" {
			v = math.Inf(1) // shape check only; exact value irrelevant
		} else {
			var err error
			v, err = strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, raw, err)
			}
		}
		base, isHistSeries := histBase(name, types)
		if _, declared := types[name]; !declared && !isHistSeries {
			return nil, fmt.Errorf("line %d: series %q has no TYPE declaration", lineNo, name)
		}
		key := name + labels
		if _, dup := values[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", lineNo, key)
		}
		values[key] = v
		if isHistSeries && strings.HasSuffix(name, "_bucket") {
			histSeen[base+stripLE(labels)] = true
			if strings.Contains(labels, `le="+Inf"`) {
				infSeen[base+stripLE(labels)] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key := range histSeen {
		if !infSeen[key] {
			return nil, fmt.Errorf("histogram %q missing +Inf bucket", key)
		}
	}
	return values, nil
}

// histBase maps a histogram child series name back to its declared family.
func histBase(name string, types map[string]string) (string, bool) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// stripLE removes the le label so bucket series of one label set group
// together.
var leRe = regexp.MustCompile(`,?le="[^"]*"`)

func stripLE(labels string) string {
	out := leRe.ReplaceAllString(labels, "")
	if out == "{}" || out == "{," {
		return ""
	}
	return strings.Replace(out, "{,", "{", 1)
}

// ValidateExposition checks that rd contains well-formed, non-empty
// Prometheus text output.
func ValidateExposition(rd io.Reader) error {
	values, err := ParseExposition(rd)
	if err != nil {
		return err
	}
	if len(values) == 0 {
		return fmt.Errorf("exposition contains no series")
	}
	return nil
}
