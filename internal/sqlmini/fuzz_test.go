package sqlmini

import (
	"math"
	"testing"
)

// FuzzSelect runs fuzzed statements against the cameras table. Select must
// never panic, and every row it returns must be a row of that table,
// projected onto the result's columns, returned at most once. Seeds live in
// testdata/fuzz/FuzzSelect.
func FuzzSelect(f *testing.F) {
	db := NewDB()
	tab, err := db.Create("cameras", []string{"resolution", "storage", "price"})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range [][]float64{{10, 2, 250}, {12, 4, 340}, {8, 1, 150}, {20, 8, 600}, {15, 4, 420}} {
		if _, err := tab.Insert(r); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, query string) {
		rs, err := db.Select(query)
		if err != nil {
			return
		}
		if len(rs.Rows) != len(rs.RowIDs) {
			t.Fatalf("%d rows, %d row ids", len(rs.Rows), len(rs.RowIDs))
		}
		seen := make(map[int]bool, len(rs.RowIDs))
		for i, id := range rs.RowIDs {
			if id < 0 || id >= len(tab.Rows) || seen[id] {
				t.Fatalf("row %d has id %d (table has %d rows, seen %v)", i, id, len(tab.Rows), seen)
			}
			seen[id] = true
			if len(rs.Rows[i]) != len(rs.Columns) {
				t.Fatalf("row %d has %d values for %d columns", i, len(rs.Rows[i]), len(rs.Columns))
			}
			for j, col := range rs.Columns {
				c, err := tab.resolve(col)
				if err != nil {
					t.Fatalf("result column %q: %v", col, err)
				}
				want := float64(id)
				if c >= 0 {
					want = tab.Rows[id][c]
				}
				if got := rs.Rows[i][j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d column %q = %g, table row %d has %g", i, col, got, id, want)
				}
			}
		}
	})
}
