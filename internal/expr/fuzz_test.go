package expr

import "testing"

// FuzzParse checks the parser on arbitrary source: Parse never panics, a
// parsed tree's String parses back to the same String, and evaluating the
// tree, with its variables bound and unbound, never panics. Named seeds
// live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		s := n.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", src, s, err)
		}
		if s2 := again.String(); s2 != s {
			t.Fatalf("Parse(%q).String() = %q parses to %q", src, s, s2)
		}
		env := map[string]float64{}
		for v := range VarsOf(n) {
			env[v] = 1.5
		}
		_, _ = n.Eval(env) // an error here is a domain error, not a failure
		_, _ = n.Eval(nil)
	})
}
