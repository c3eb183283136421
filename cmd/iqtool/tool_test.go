package main

import (
	"os"
	"strings"
	"testing"
)

func runScript(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	run(strings.NewReader(script), &out, 42)
	return out.String()
}

func TestFullSession(t *testing.T) {
	script := `
help
gen objects in 200 3
gen queries un 60 5
build
targets 5
hits 5
mincost 8
maxhit 0.5
eval 5 -0.1,-0.1,-0.1
commit 5 -0.1,-0.1,-0.1
hits 5
stats
topk 3 0.4,0.3,0.3
quit
`
	out := runScript(t, script)
	for _, want := range []string{
		"generated 200 objects",
		"generated 60 top-k queries",
		"index built",
		"targets set to [5]",
		"strategy",
		"cost/hit",
		"would hit",
		"committed",
		"top-3:",
		"bye",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Errorf("session produced errors:\n%s", out)
	}
}

func TestSQLTargetSelection(t *testing.T) {
	script := `
gen objects vehicle 300
gen queries un 40 5
build
sql SELECT id FROM objects WHERE mpg < 0.3 AND annual_cost < 0.5 LIMIT 2
mincost 5
quit
`
	out := runScript(t, script)
	if !strings.Contains(out, "targets set to [") {
		t.Errorf("SQL selection did not set targets:\n%s", out)
	}
	if strings.Contains(out, "error:") {
		t.Errorf("unexpected error:\n%s", out)
	}
}

func TestMultiTargetAndCostCommands(t *testing.T) {
	script := `
gen objects in 150 3
gen queries un 40 5
build
targets 1 2
cost l1
mincost 6
cost wl2 1,2,3
maxhit 0.6
cost expr sqrt(s1^2 + s2^2 + 4*s3^2)
targets 3
mincost 4
freeze 0
mincost 4
unfreeze
quit
`
	out := runScript(t, script)
	for _, want := range []string{
		"cost function set to l1",
		"combined hits",
		"cost function set to wl2",
		"cost function set to expr",
		"frozen attributes: [0]",
		"constraints cleared",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	script := `
mincost 5
gen objects in 50 2
gen queries un 10 3
mincost 5
build
mincost 5
targets 999
targets 0
mincost -1
maxhit nope
cost bogus
sql SELECT nothing FROM nowhere
eval 0 abc
nosuchcommand
quit
`
	out := runScript(t, script)
	errCount := strings.Count(out, "error:")
	if errCount < 8 {
		t.Errorf("expected many errors, got %d:\n%s", errCount, out)
	}
}

// TestTopKChecksQuery runs topk with a point of the wrong dimension and with
// a NaN weight: each must print an error and leave the session running.
func TestTopKChecksQuery(t *testing.T) {
	script := `
gen objects in 50 3
gen queries un 20 5
build
topk 2 0.5,0.5
topk 1 NaN,0.5,0.5
quit
`
	out := runScript(t, script)
	if n := strings.Count(out, "error:"); n != 2 {
		t.Errorf("got %d errors, want 2:\n%s", n, out)
	}
	if strings.Contains(out, "top-1:") || strings.Contains(out, "top-2:") {
		t.Errorf("a malformed query printed a result:\n%s", out)
	}
	if !strings.Contains(out, "bye") {
		t.Errorf("session did not reach quit:\n%s", out)
	}
}

func TestLoadCSVCommands(t *testing.T) {
	dir := t.TempDir()
	objPath := dir + "/objects.csv"
	qPath := dir + "/queries.csv"
	if err := os.WriteFile(objPath, []byte("id,a,b\n0,0.2,0.8\n1,0.5,0.5\n2,0.9,0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qPath, []byte("id,k,w1,w2\n0,1,0.6,0.4\n1,2,0.3,0.7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `
load objects ` + objPath + `
load queries ` + qPath + `
build
targets 1
mincost 2
quit
`
	out := runScript(t, script)
	for _, want := range []string{"loaded 3 objects", "loaded 2 top-k queries", "index built", "strategy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Errorf("errors in session:\n%s", out)
	}
	// Error paths.
	out = runScript(t, "load objects /nonexistent.csv\nload bogus x\nload queries "+qPath+"\nquit\n")
	if strings.Count(out, "error:") < 3 {
		t.Errorf("expected load errors:\n%s", out)
	}
}
