package expr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, src string, env map[string]float64) float64 {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := n.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestParseEval(t *testing.T) {
	env := map[string]float64{"x": 2, "y": 3, "p.a": 4}
	tests := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"2 ^ 3 ^ 2", 512}, // right-associative
		{"-x + y", 1},
		{"x * y - 1", 5},
		{"10 / x / y", 10.0 / 6},
		{"sqrt(x * 8)", 4},
		{"abs(-y)", 3},
		{"min(x, y, 1)", 1},
		{"max(x, y)", 3},
		{"pow(x, y)", 8},
		{"exp(0)", 1},
		{"log(exp(1))", 1},
		{"p.a * 2", 8},
		{"1.5e2 + .5", 150.5},
		{"--x", 2},
	}
	for _, tc := range tests {
		t.Run(tc.src, func(t *testing.T) {
			got := evalOK(t, tc.src, env)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("got %v want %v", got, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "foo(1", "1 2", "@", "min()", "* 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			// min() parses but should fail at eval; others at parse.
			if src == "min()" {
				n := MustParse(src)
				if _, err := n.Eval(nil); err == nil {
					t.Errorf("%q: expected error", src)
				}
				continue
			}
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// Parse caps the nodes it builds and the groups open at once, so no input
// can make it, or a walk of its tree, recurse deeper than the cap: each case
// below would otherwise recurse once per level. Inputs at the cap parse, and
// their String parses back.
func TestParseCapsNodes(t *testing.T) {
	sum := func(terms int) string { return strings.Repeat("1+", terms-1) + "1" }
	over := map[string]string{
		"1<<20 nested groups": strings.Repeat("(", 1<<20) + "1" + strings.Repeat(")", 1<<20),
		"unclosed groups":     strings.Repeat("(", 1<<20),
		"2000-term sum":       sum(2000),
		"2000 negations":      strings.Repeat("-", 2000) + "1",
		"2000-long power":     strings.Repeat("1^", 1999) + "1",
		"2000 nested calls":   strings.Repeat("abs(", 2000) + "1" + strings.Repeat(")", 2000),
		"513-term sum":        sum(513),
	}
	for name, src := range over {
		if _, err := Parse(src); !errors.Is(err, errTooLarge) {
			t.Errorf("%s: Parse error %v, want %v", name, err, errTooLarge)
		}
	}
	at := map[string]string{
		"1024 nested groups": strings.Repeat("(", maxNodes) + "1" + strings.Repeat(")", maxNodes),
		"512-term sum":       sum(512),
		"1023 negations":     strings.Repeat("-", maxNodes-1) + "x",
		"512-long power":     strings.Repeat("2^", 511) + "1",
	}
	for name, src := range at {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := Parse(n.String()); err != nil {
			t.Errorf("%s: String does not parse back: %v", name, err)
		}
		if _, err := n.Eval(map[string]float64{"x": 1}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []struct {
		src string
		env map[string]float64
	}{
		{"x + 1", nil}, // unknown var
		{"1 / zero", map[string]float64{"zero": 0}}, // div by zero
		{"sqrt(0 - 1)", nil},
		{"log(0)", nil},
		{"sqrt(1, 2)", nil},
		{"unknownfn(1)", nil},
		{"pow(1)", nil},
	}
	for _, tc := range cases {
		n, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		if _, err := n.Eval(tc.env); err == nil {
			t.Errorf("Eval(%q): expected error", tc.src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"1 + 2 * x",
		"sqrt(w1 * price) + w2 * (capacity / mpg)",
		"-(a + b) * c",
		"pow(x, 2) - min(a, b, c)",
	}
	for _, src := range srcs {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", src, n1.String(), err)
		}
		env := map[string]float64{"x": 1.3, "w1": 0.2, "w2": 0.7, "price": 5,
			"capacity": 4, "mpg": 30, "a": 1, "b": 2, "c": 3}
		v1, err1 := n1.Eval(env)
		v2, err2 := n2.Eval(env)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval errors: %v %v", err1, err2)
		}
		if math.Abs(v1-v2) > 1e-9 {
			t.Errorf("%q: %v != %v after round trip", src, v1, v2)
		}
	}
}

func TestVarsOf(t *testing.T) {
	n := MustParse("w1 * a + w2 * sqrt(b) - 3")
	vars := VarsOf(n)
	for _, want := range []string{"w1", "w2", "a", "b"} {
		if _, ok := vars[want]; !ok {
			t.Errorf("missing var %s", want)
		}
	}
	if len(vars) != 4 {
		t.Errorf("got %d vars", len(vars))
	}
}

// Property: randomly generated expressions round-trip through String/Parse
// with identical values.
func TestQuickStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var gen func(depth int) Node
	gen = func(depth int) Node {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return Num{Value: math.Round(rng.Float64()*100) / 10}
			}
			return Var{Name: string(rune('a' + rng.Intn(4)))}
		}
		switch rng.Intn(5) {
		case 0:
			return Binary{Op: '+', L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return Binary{Op: '-', L: gen(depth - 1), R: gen(depth - 1)}
		case 2:
			return Binary{Op: '*', L: gen(depth - 1), R: gen(depth - 1)}
		case 3:
			return Unary{X: gen(depth - 1)}
		default:
			return Call{Fn: "abs", Args: []Node{gen(depth - 1)}}
		}
	}
	env := map[string]float64{"a": 0.5, "b": -1.5, "c": 2, "d": 0.1}
	for i := 0; i < 200; i++ {
		n := gen(4)
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", n.String(), err)
		}
		v1, _ := n.Eval(env)
		v2, _ := n2.Eval(env)
		if math.Abs(v1-v2) > 1e-9*math.Max(1, math.Abs(v1)) {
			t.Fatalf("%q: %v != %v", n.String(), v1, v2)
		}
	}
}

func isW(name string) bool { return strings.HasPrefix(name, "w") }

func TestLinearizePaperEq20(t *testing.T) {
	// u(p) = w1*(p1)^3 + w2*(p2*p3) + w3*(p4)^2  (paper Equation 20)
	n := MustParse("w1 * p1^3 + w2 * (p2 * p3) + w3 * p4^2")
	lin, err := Linearize(n, isW)
	if err != nil {
		t.Fatalf("Linearize: %v", err)
	}
	if len(lin.Terms) != 3 {
		t.Fatalf("got %d terms: %+v", len(lin.Terms), lin.Terms)
	}
	attrs := map[string]float64{"p1": 2, "p2": 3, "p3": 4, "p4": 5}
	wantByWeight := map[string]float64{"w1": 8, "w2": 12, "w3": 25}
	for _, term := range lin.Terms {
		v, err := term.AttrExpr.Eval(attrs)
		if err != nil {
			t.Fatalf("term %s eval: %v", term.Weight, err)
		}
		if math.Abs(v-wantByWeight[term.Weight]) > 1e-9 {
			t.Errorf("term %s: augmented attr %v want %v", term.Weight, v, wantByWeight[term.Weight])
		}
	}
	if lin.Const != 0 {
		t.Errorf("Const=%v", lin.Const)
	}
}

// Property: for linearisable expressions, evaluating the original equals
// Σ wᵢ·gᵢ(attrs) + const for random weights and attributes.
func TestQuickLinearizePreservesValue(t *testing.T) {
	srcs := []string{
		"w1 * a + w2 * b",
		"w1 * a * b - w2 * (a + b) + 5",
		"2 * w1 * a^2 + w2 * sqrt(b) + 1",
		"w1 * (a / b) + 3 * w2",
		"-w1 * a + w2 * b - 7",
		"w1 * a + w1 * b", // shared weight merges
	}
	f := func(w1, w2, aRaw, bRaw float64) bool {
		a := math.Abs(math.Mod(aRaw, 10)) + 0.1
		b := math.Abs(math.Mod(bRaw, 10)) + 0.1
		w1 = math.Mod(w1, 5)
		w2 = math.Mod(w2, 5)
		env := map[string]float64{"w1": w1, "w2": w2, "a": a, "b": b}
		attrs := map[string]float64{"a": a, "b": b}
		weights := map[string]float64{"w1": w1, "w2": w2}
		for _, src := range srcs {
			n := MustParse(src)
			lin, err := Linearize(n, isW)
			if err != nil {
				return false
			}
			direct, err := n.Eval(env)
			if err != nil {
				return false
			}
			sum := lin.Const
			for _, term := range lin.Terms {
				g, err := term.AttrExpr.Eval(attrs)
				if err != nil {
					return false
				}
				sum += weights[term.Weight] * g
			}
			if math.Abs(direct-sum) > 1e-6*math.Max(1, math.Abs(direct)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLinearizeRejectsNonLinear(t *testing.T) {
	bad := []string{
		"sqrt(w1 * a)",   // weight under sqrt
		"w1 * w2 * a",    // two weights multiplied
		"a / w1",         // weight in denominator
		"w1^2 * a",       // weight powered
		"a + w1 * b",     // weight-free attr term
		"w1 * a + b * 2", // ditto
	}
	for _, src := range bad {
		n := MustParse(src)
		if _, err := Linearize(n, isW); err == nil {
			t.Errorf("Linearize(%q): expected error", src)
		}
	}
}

func TestLinearizeConstOnly(t *testing.T) {
	lin, err := Linearize(MustParse("3 + 4 * 2"), isW)
	if err != nil {
		t.Fatalf("Linearize: %v", err)
	}
	if len(lin.Terms) != 0 || lin.Const != 11 {
		t.Errorf("got %+v", lin)
	}
}
