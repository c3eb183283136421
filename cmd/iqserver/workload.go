// Workload analytics endpoints: the JSON view (/v1/stats/workload) for tools
// and the human view (/debug/workload) for operators. Both read the same
// process-wide aggregator the engine hooks feed (internal/obs/workload), so
// one GET answers "where is the load".
package main

import (
	"html/template"
	"net/http"

	"iq/internal/obs/workload"
)

// workloadStatsResponse is the /v1/stats/workload payload: the aggregator
// snapshot (regions already sorted hottest-first) and the same regions
// re-sorted by write churn.
type workloadStatsResponse struct {
	*workload.Snapshot
	ChurnLeaders []workload.RegionStat `json:"churn_leaders"`
}

func (s *server) handleWorkloadStats(w http.ResponseWriter, _ *http.Request) {
	snap := workload.Default.Snapshot()
	s.writeJSON(w, http.StatusOK, workloadStatsResponse{Snapshot: snap, ChurnLeaders: snap.ChurnLeaders()})
}

// debugWorkloadPage is the /debug/workload heatmap: one bar per region scaled
// to the hottest region's windowed load, plus the (target, op) table and the
// window/cardinality metadata. Static HTML with inline CSS — no scripts, no
// assets, safe to open from a terminal link.
var debugWorkloadPage = template.Must(template.New("workload").Funcs(template.FuncMap{
	// barWidth scales a region's load to a 0–300px bar against the hottest
	// region; pct renders a ratio as a percentage.
	"barWidth": func(load, max int64) int64 {
		if max <= 0 {
			return 0
		}
		return load * 300 / max
	},
	"pct": func(r float64) float64 { return r * 100 },
}).Parse(`<!DOCTYPE html>
<html><head><title>iq workload</title><style>
body { font-family: monospace; margin: 2em; background: #fdfdfd; color: #222; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 2em; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px; text-align: right; font-size: 0.9em; }
th { border-bottom: 1px solid #888; }
.bar { display: inline-block; height: 12px; background: #c0392b; vertical-align: middle; }
.meta { color: #666; font-size: 0.85em; }
</style></head><body>
<h1>workload heatmap</h1>
<p class="meta">window {{printf "%.0f" .Window.Seconds}}s &middot; {{.Window.Buckets}} buckets &middot;
tracked {{.TrackedKeys}}/{{.MaxKeys}} keys &middot; overflow records {{.OverflowRecs}} &middot;
retired regions {{.RetiredSlots}}</p>
<h2>regions (hottest first)</h2>
<table><tr><th>region</th><th>pos</th><th>load</th><th></th><th>solves</th><th>probes</th><th>rounds</th><th>thr hit%</th><th>churn</th><th>commits</th></tr>
{{$max := .MaxLoad}}{{range .Regions}}<tr>
<td>{{.Region}}</td><td>{{printf "%.3f" .Pos}}</td><td>{{.LoadNS}}</td>
<td style="text-align:left"><span class="bar" style="width:{{barWidth .LoadNS $max}}px"></span></td>
<td>{{.Solves}}</td><td>{{.Probes}}</td><td>{{.Rounds}}</td>
<td>{{printf "%.0f" (pct .ThrHitRatio)}}</td><td>{{.Churn}}</td><td>{{.Commits}}</td>
</tr>{{end}}</table>
<h2>targets</h2>
<table><tr><th>target</th><th>op</th><th>load</th><th>solves</th><th>probes</th><th>rounds</th><th>thr hit%</th></tr>
{{range .Targets}}<tr>
<td>{{.Target}}</td><td style="text-align:left">{{.Op}}</td><td>{{.LoadNS}}</td>
<td>{{.Solves}}</td><td>{{.Probes}}</td><td>{{.Rounds}}</td><td>{{printf "%.0f" (pct .ThrHitRatio)}}</td>
</tr>{{end}}</table>
<h2>overflow</h2>
<p class="meta">load {{.Overflow.LoadNS}} &middot; probes {{.Overflow.Probes}} &middot; churn {{.Overflow.Churn}}</p>
</body></html>
`))

// debugWorkloadView wraps the snapshot with the precomputed scale the bar
// renderer needs.
type debugWorkloadView struct {
	*workload.Snapshot
	MaxLoad int64
}

func (s *server) handleDebugWorkload(w http.ResponseWriter, _ *http.Request) {
	snap := workload.Default.Snapshot()
	view := debugWorkloadView{Snapshot: snap}
	for _, r := range snap.Regions {
		if r.LoadNS > view.MaxLoad {
			view.MaxLoad = r.LoadNS
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := debugWorkloadPage.Execute(w, view); err != nil {
		s.log.Error("workload page render failed", "err", err)
	}
}
