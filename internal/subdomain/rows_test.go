package subdomain

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// TestFarMutationsKeepRows checks that mutations no row can see replace no
// row: adding, updating and removing an object every live object dominates
// leaves the skyband as it was and every row the same slice, shared with the
// parent rather than copied.
func TestFarMutationsKeepRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := buildRandom(t, rng, 60, 40, 3, 3, Options{})
	band := slices.Clone(x.Candidates())
	rows := slices.Clone(x.rows)
	kept := func(step string) {
		t.Helper()
		if !slices.Equal(x.Candidates(), band) {
			t.Fatalf("%s: skyband %v -> %v", step, band, x.Candidates())
		}
		for j, r := range x.rows {
			if len(r) == 0 || &r[0] != &rows[j][0] {
				t.Fatalf("%s: row %d replaced", step, j)
			}
		}
		checkRows(t, x, step)
	}
	mutate := func() {
		x = x.Clone(x.Workload().Clone())
	}

	mutate()
	id, err := x.AddObject(vec.Vector{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if x.IsCandidate(id) {
		t.Fatal("dominated object became a candidate")
	}
	kept("add")
	mutate()
	if err := x.UpdateObject(id, vec.Vector{90, 95, 92}); err != nil {
		t.Fatal(err)
	}
	kept("update")
	mutate()
	if err := x.RemoveObject(id); err != nil {
		t.Fatal(err)
	}
	kept("remove")
}

// TestMutationSpansCountRows checks the rows_changed and rows_rescanned
// attributes of traced mutations on one query (K = 1, weights (1, 2)) over
// five points on a line none of which dominates another, whose row is
// objects 4 and 3.
func TestMutationSpansCountRows(t *testing.T) {
	attrs := []vec.Vector{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	w, err := topk.NewWorkload(topk.LinearSpace{D: 2}, attrs, []topk.Query{{ID: 0, K: 1, Point: vec.Vector{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		do   func(ctx context.Context) error
		want string
	}{
		// Object 4 moves from score 4 to 6, past the row's last entry (5):
		// the row is left short and rescanned.
		{"degrade", func(ctx context.Context) error { return x.UpdateObjectCtx(ctx, 4, vec.Vector{4, 1}) }, "index/update_object rows_changed=1 rows_rescanned=1"},
		// Object 1 moves from score 7 to 1, before the last entry.
		{"improve", func(ctx context.Context) error { return x.UpdateObjectCtx(ctx, 1, vec.Vector{1, 0}) }, "index/update_object rows_changed=1 rows_rescanned=0"},
		{"far", func(ctx context.Context) error { _, err := x.AddObjectCtx(ctx, vec.Vector{9, 9}); return err }, "index/add_object rows_changed=0 rows_rescanned=0"},
		{"add-query", func(ctx context.Context) error {
			_, err := x.AddQueryCtx(ctx, topk.Query{ID: 1, K: 1, Point: vec.Vector{2, 1}})
			return err
		}, "index/add_query rows_changed=1 rows_rescanned=1"},
	} {
		tr := obs.NewTrace(c.name, 0)
		if err := c.do(obs.WithTrace(context.Background(), tr)); err != nil {
			t.Fatal(err)
		}
		checkRows(t, x, c.name)
		var buf bytes.Buffer
		if err := obs.WriteTree(&buf, tr); err != nil {
			t.Fatal(err)
		}
		// Drop each span's duration, the second field of its line.
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n")[1:] {
			if f := strings.Fields(l); len(f) > 2 {
				lines = append(lines, strings.Join(append(f[:1:1], f[2:]...), " "))
			}
		}
		if !slices.Contains(lines, c.want) {
			t.Errorf("%s: spans %q, want %q", c.name, lines, c.want)
		}
	}
}
