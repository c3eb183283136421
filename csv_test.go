package iq

import (
	"bytes"
	"strings"
	"testing"

	"iq/internal/vec"
)

func TestObjectsCSV(t *testing.T) {
	src := `id,resolution,storage,price
0,0.67,0.75,0.25
1,0.60,0.50,0.34
2,0.33,0.00,0.60
`
	objs, names, err := ObjectsCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || len(names) != 3 {
		t.Fatalf("got %d objects, %d names", len(objs), len(names))
	}
	if names[0] != "resolution" || names[2] != "price" {
		t.Errorf("names %v", names)
	}
	if objs[1][2] != 0.34 {
		t.Errorf("objs[1]=%v", objs[1])
	}
}

func TestObjectsCSVWithoutID(t *testing.T) {
	src := "a,b\n1,2\n3,4\n"
	objs, names, err := ObjectsCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || len(names) != 2 || objs[1][0] != 3 {
		t.Errorf("objs=%v names=%v", objs, names)
	}
}

func TestObjectsCSVErrors(t *testing.T) {
	cases := []string{
		"",                // no header
		"id\n1\n",         // no attribute columns
		"a,b\n1,notnum\n", // bad number
		"a,b\n1\n",        // csv arity error
		"a,b\n0.5,NaN\n",  // NaN attribute
		"a,b\n-inf,0.5\n", // infinite attribute
	}
	for _, src := range cases {
		if _, _, err := ObjectsCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestQueriesCSV(t *testing.T) {
	src := `id,k,w1,w2,w3
0,1,0.5,0.3,0.2
1,5,0.1,0.1,0.8
`
	qs, err := QueriesCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[1].K != 5 || qs[1].Point[2] != 0.8 || qs[0].ID != 0 {
		t.Errorf("qs=%v", qs)
	}
}

func TestQueriesCSVWithoutID(t *testing.T) {
	src := "k,w1\n2,0.9\n3,0.1\n"
	qs, err := QueriesCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[1].ID != 1 || qs[1].K != 3 {
		t.Errorf("qs=%v", qs)
	}
}

func TestQueriesCSVErrors(t *testing.T) {
	cases := []string{
		"",                   // no header
		"w1\n0.5\n",          // no k column
		"k\n2\n",             // no weight columns
		"k,w1\n0,0.5\n",      // k < 1
		"k,w1\nx,0.5\n",      // bad k
		"k,w1\n2,notnum\n",   // bad weight
		"id,k,w1\nx,2,0.5\n", // bad id
		"k,w1\n2,NaN\n",      // NaN weight
		"k,w1\n2,+Inf\n",     // infinite weight
	}
	for _, src := range cases {
		if _, err := QueriesCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestCSVRoundTripIntoSystem(t *testing.T) {
	objSrc := `id,a,b
0,0.3,0.7
1,0.6,0.2
2,0.9,0.9
`
	qSrc := `id,k,w1,w2
0,1,0.5,0.5
1,2,0.9,0.1
`
	objs, _, err := ObjectsCSV(strings.NewReader(objSrc))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := QueriesCSV(strings.NewReader(qSrc))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewLinear(objs, qs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.MinCost(MinCostRequest{Target: 2, Tau: 2, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits < 2 {
		t.Errorf("hits=%d", res.Hits)
	}
}

// FuzzObjectsCSV checks that ObjectsCSV never panics and that a table it
// accepts has finite rows of the header's width. Seeds live in
// testdata/fuzz/FuzzObjectsCSV.
func FuzzObjectsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		objs, names, err := ObjectsCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(names) == 0 {
			t.Fatal("accepted a table without attribute columns")
		}
		for i, row := range objs {
			if len(row) != len(names) {
				t.Fatalf("row %d has %d attributes, header names %d", i, len(row), len(names))
			}
			if !vec.AllFinite(row) {
				t.Fatalf("row %d is not finite: %v", i, row)
			}
		}
	})
}

// FuzzQueriesCSV checks that QueriesCSV never panics and that the queries
// it accepts have k ≥ 1 and finite points, all of one width. Seeds live in
// testdata/fuzz/FuzzQueriesCSV.
func FuzzQueriesCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		qs, err := QueriesCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, q := range qs {
			if q.K < 1 {
				t.Fatalf("query %d has k=%d", i, q.K)
			}
			if len(q.Point) == 0 || len(q.Point) != len(qs[0].Point) {
				t.Fatalf("query %d has %d weights, query 0 has %d", i, len(q.Point), len(qs[0].Point))
			}
			if !vec.AllFinite(q.Point) {
				t.Fatalf("query %d is not finite: %v", i, q.Point)
			}
		}
	})
}
