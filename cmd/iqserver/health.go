// Health & SLO surfaces: the machine views (/v1/stats/history windowed time
// series, /v1/stats/slo objectives + budgets + firing alerts) and the human
// view (/debug/health, per-family sparklines over the history ring with the
// SLO posture on top). All three read the same sampler/evaluator pair wired
// in initHealth; none of them touch the solve path.
package main

import (
	"errors"
	"fmt"
	"html/template"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iq/internal/obs"
	"iq/internal/obs/history"
	"iq/internal/obs/slo"
)

// initHealth builds the history sampler and SLO evaluator (registering their
// iq_history_*/iq_slo_* families), recovers any journal under the data
// directory, and seeds the evaluator's windows from the recovered samples.
// The ticker does not run yet — startHealth launches it — so tests can drive
// sampling deterministically with TickNow.
func (s *server) initHealth() {
	if s.cfg.historyInterval <= 0 {
		return
	}
	s.slo = slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(s.cfg.sloLatencyTargets),
		Registry:   obs.Default,
		Log:        s.log,
	})
	mk := func(path string) (*history.Sampler, error) {
		return history.New(history.Config{
			Registry:  obs.Default,
			Interval:  s.cfg.historyInterval,
			Retention: s.cfg.historyRetention,
			Path:      path,
			OnSample:  s.slo.OnSample,
			Log:       s.log,
		})
	}
	path := s.cfg.historyPath
	if path != "" {
		// The durable store creates the data directory during background
		// recovery; the journal must not lose the race.
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			s.log.Warn("history journal directory unavailable", "path", path, "err", err)
			path = ""
		}
	}
	sampler, err := mk(path)
	if err != nil {
		// A damaged or unopenable journal degrades to in-memory history; the
		// serving path never depends on the health subsystem's disk state.
		s.log.Warn("history journal unavailable; keeping history in memory only",
			"path", path, "err", err)
		sampler, err = mk("")
		if err != nil {
			s.log.Error("history sampler init failed; health subsystem disabled", "err", err)
			return
		}
	}
	s.sampler = sampler
	s.slo.Seed(sampler.Ring().Samples(time.Time{}))
}

// startHealth launches the sampling ticker (production only; tests tick
// manually).
func (s *server) startHealth() {
	if s.sampler != nil {
		s.sampler.Start()
	}
}

// closeHealth takes a final sample, compacts, and releases the journal. Runs
// after the HTTP drain so the last interval covers the final requests, and
// before closeStore so the whole shutdown stays ordered.
func (s *server) closeHealth(logger *slog.Logger) {
	if s.sampler == nil {
		return
	}
	if err := s.sampler.Close(); err != nil {
		logger.Warn("closing history journal", "err", err)
		return
	}
	logger.Info("history journal closed cleanly")
}

// historyResponse is the /v1/stats/history payload.
type historyResponse struct {
	IntervalSeconds  float64          `json:"interval_seconds"`
	RetentionSeconds float64          `json:"retention_seconds"`
	Samples          []history.Sample `json:"samples"`
}

// handleHistoryStats serves the ring as windowed JSON time series.
// ?window=15m bounds how far back the series reach (default: everything
// retained); ?family=a,b keeps only the named families' points.
func (s *server) handleHistoryStats(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("history sampling is disabled (-history-interval 0)"))
		return
	}
	since := time.Time{}
	if win := r.URL.Query().Get("window"); win != "" {
		d, err := time.ParseDuration(win)
		if err != nil || d <= 0 {
			s.writeErr(w, http.StatusBadRequest,
				fmt.Errorf("window must be a positive duration, got %q", win))
			return
		}
		since = time.Now().Add(-d)
	}
	samples := s.sampler.Ring().Samples(since)
	if fam := r.URL.Query().Get("family"); fam != "" {
		keep := map[string]bool{}
		for _, f := range strings.Split(fam, ",") {
			keep[strings.TrimSpace(f)] = true
		}
		filtered := make([]history.Sample, 0, len(samples))
		for _, sm := range samples {
			fs := history.Sample{UnixMs: sm.UnixMs, Dur: sm.Dur}
			for _, p := range sm.Points {
				if keep[p.Name] {
					fs.Points = append(fs.Points, p)
				}
			}
			filtered = append(filtered, fs)
		}
		samples = filtered
	}
	if samples == nil {
		samples = []history.Sample{}
	}
	s.writeJSON(w, http.StatusOK, historyResponse{
		IntervalSeconds:  s.cfg.historyInterval.Seconds(),
		RetentionSeconds: s.cfg.historyRetention.Seconds(),
		Samples:          samples,
	})
}

// sloResponse is the /v1/stats/slo payload.
type sloResponse struct {
	Objectives []slo.ObjectiveStatus `json:"objectives"`
	Firing     []slo.RuleStatus      `json:"firing"`
}

func (s *server) handleSLOStats(w http.ResponseWriter, _ *http.Request) {
	if s.slo == nil {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("SLO evaluation is disabled (-history-interval 0)"))
		return
	}
	objs, firing := s.slo.Status()
	if objs == nil {
		objs = []slo.ObjectiveStatus{}
	}
	if firing == nil {
		firing = []slo.RuleStatus{}
	}
	s.writeJSON(w, http.StatusOK, sloResponse{
		Objectives: objs,
		Firing:     firing,
	})
}

// --- /debug/health dashboard ---

// sparkChars are the eight-level block glyphs the sparklines are drawn with.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled against their own maximum. A flat-zero
// series renders as all-bottom blocks.
func sparkline(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkChars)-1))
			if i < 0 {
				i = 0
			}
			if i > len(sparkChars)-1 {
				i = len(sparkChars) - 1
			}
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}

// maxDashSeries bounds the dashboard: beyond it the page notes the
// truncation instead of growing without bound with label cardinality. The
// stock server exposes well under half of this; the headroom covers per-op
// and per-route label growth.
const maxDashSeries = 400

// maxDashPoints is the sparkline width in samples (the most recent ones).
const maxDashPoints = 60

type healthRow struct {
	Series string // name{labels}
	Metric string // what the sparkline shows: rate, value, p99
	Spark  string
	Last   string
}

type healthFamily struct {
	Name string
	Rows []healthRow
}

type healthView struct {
	Samples   int
	Span      string
	Interval  time.Duration
	SLO       []slo.ObjectiveStatus
	Firing    []slo.RuleStatus
	Families  []healthFamily
	Truncated int
}

// buildHealthView folds the ring into one sparkline per series: counters
// chart their per-interval rate, gauges their reading (carried forward
// through idle intervals), histograms their interval p99.
func buildHealthView(samples []history.Sample, interval time.Duration, sloStatus []slo.ObjectiveStatus, firing []slo.RuleStatus) healthView {
	if n := len(samples); n > maxDashPoints {
		samples = samples[n-maxDashPoints:]
	}
	view := healthView{
		Samples:  len(samples),
		Interval: interval,
		SLO:      sloStatus,
		Firing:   firing,
	}
	if len(samples) > 0 {
		span := time.Duration(samples[len(samples)-1].UnixMs-samples[0].UnixMs) * time.Millisecond
		view.Span = span.Truncate(time.Second).String()
	}
	type acc struct {
		kind string
		vals []float64
		set  []bool
	}
	series := map[string]*acc{}
	var order []string
	for i, sm := range samples {
		for _, p := range sm.Points {
			key := p.Name + p.Labels
			a := series[key]
			if a == nil {
				if len(series) >= maxDashSeries {
					view.Truncated++
					continue
				}
				a = &acc{kind: p.Kind, vals: make([]float64, len(samples)), set: make([]bool, len(samples))}
				series[key] = a
				order = append(order, key)
			}
			switch p.Kind {
			case "counter":
				a.vals[i] = p.Rate
			case "gauge":
				a.vals[i] = p.Value
			case "histogram":
				a.vals[i] = p.P99
			}
			a.set[i] = true
		}
	}
	var fams []healthFamily
	byFam := map[string]int{}
	for _, key := range order {
		a := series[key]
		// Gauges carry forward through intervals that omitted them (the
		// sampler only re-emits on change).
		if a.kind == "gauge" {
			last := 0.0
			for i := range a.vals {
				if a.set[i] {
					last = a.vals[i]
				} else {
					a.vals[i] = last
				}
			}
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		metric := map[string]string{"counter": "rate", "gauge": "value", "histogram": "p99"}[a.kind]
		row := healthRow{
			Series: key,
			Metric: metric,
			Spark:  sparkline(a.vals),
			Last:   fmt.Sprintf("%.4g", a.vals[len(a.vals)-1]),
		}
		fi, ok := byFam[name]
		if !ok {
			fi = len(fams)
			byFam[name] = fi
			fams = append(fams, healthFamily{Name: name})
		}
		fams[fi].Rows = append(fams[fi].Rows, row)
	}
	view.Families = fams
	return view
}

var debugHealthPage = template.Must(template.New("health").Funcs(template.FuncMap{
	"pct": func(v float64) string { return fmt.Sprintf("%.2f%%", v*100) },
	"f2":  func(v float64) string { return fmt.Sprintf("%.2f", v) },
}).Parse(`<!DOCTYPE html>
<html><head><title>iq health</title><style>
body { font-family: monospace; margin: 2em; background: #fdfdfd; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 2em; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px; text-align: right; font-size: 0.9em; }
th { border-bottom: 1px solid #888; }
td.l, th.l { text-align: left; }
.spark { font-size: 1em; letter-spacing: 0; color: #2c6e91; }
.meta { color: #666; font-size: 0.85em; }
.firing { color: #c0392b; font-weight: bold; }
.ok { color: #27ae60; }
</style></head><body>
<h1>engine health</h1>
<p class="meta">{{.Samples}} samples &middot; span {{.Span}} &middot; interval {{.Interval}}</p>
<h2>service objectives</h2>
{{if .Firing}}<p class="firing">ALERTS FIRING: {{range .Firing}}{{.Name}} ({{.Severity}}) {{end}}</p>
{{else}}<p class="ok">no alerts firing</p>{{end}}
<table><tr><th class="l">objective</th><th>target</th><th>budget left</th>{{with index .SLO 0}}{{range .Windows}}<th>burn {{.Window}}</th>{{end}}{{end}}<th class="l">state</th></tr>
{{range .SLO}}<tr>
<td class="l">{{.Name}}</td><td>{{pct .Target}}</td><td>{{pct .BudgetRemaining}}</td>
{{range .Windows}}<td>{{f2 .Burn}}</td>{{end}}
<td class="l">{{range .Rules}}{{if .Firing}}<span class="firing">{{.Name}}!</span> {{end}}{{end}}</td>
</tr>{{end}}</table>
<h2>series (windowed sparklines)</h2>
{{range .Families}}<h3 class="meta">{{.Name}}</h3>
<table>{{range .Rows}}<tr>
<td class="l">{{.Series}}</td><td class="l meta">{{.Metric}}</td>
<td class="l"><span class="spark">{{.Spark}}</span></td><td>{{.Last}}</td>
</tr>{{end}}</table>
{{end}}
{{if .Truncated}}<p class="meta">{{.Truncated}} series beyond the {{/**/}}display cap omitted</p>{{end}}
</body></html>
`))

func (s *server) handleDebugHealth(w http.ResponseWriter, _ *http.Request) {
	if s.sampler == nil || s.slo == nil {
		http.Error(w, "health subsystem disabled (-history-interval 0)", http.StatusServiceUnavailable)
		return
	}
	objs, firing := s.slo.Status()
	view := buildHealthView(s.sampler.Ring().Samples(time.Time{}), s.cfg.historyInterval, objs, firing)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := debugHealthPage.Execute(w, view); err != nil {
		s.log.Error("health page render failed", "err", err)
	}
}
