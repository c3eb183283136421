// Package expr implements a small arithmetic expression language used for
// user-defined utility and cost functions (the paper lets the query issuer
// supply both). It provides a recursive-descent parser, an evaluator over
// variable environments, and the structural analysis behind Section 5.2's
// variable substitution: expressions of the form Σ wᵢ·gᵢ(attrs) can be
// linearised so each gᵢ(attrs) becomes an augmented attribute computed on the
// fly.
//
// Grammar (standard precedence, ^ is right-associative power):
//
//	expr    = term { ("+" | "-") term }
//	term    = factor { ("*" | "/") factor }
//	factor  = unary { "^" unary }
//	unary   = ["-"] primary
//	primary = number | ident | ident "(" args ")" | "(" expr ")"
//
// Builtins: sqrt, abs, log, exp, min, max, pow.
package expr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Node is an expression AST node.
type Node interface {
	// Eval computes the node's value in the given environment. Unknown
	// variables yield an error.
	Eval(env map[string]float64) (float64, error)
	// String renders the node as parseable source.
	String() string
	// Vars adds every variable the node references into set.
	Vars(set map[string]struct{})
}

// Num is a numeric literal.
type Num struct{ Value float64 }

// Var is a variable reference.
type Var struct{ Name string }

// Unary is a unary operation; only negation exists.
type Unary struct{ X Node }

// Binary is a binary operation: + - * / ^.
type Binary struct {
	Op   byte
	L, R Node
}

// Call is a builtin function call.
type Call struct {
	Fn   string
	Args []Node
}

// Eval implements Node.
func (n Num) Eval(map[string]float64) (float64, error) { return n.Value, nil }

// Eval implements Node.
func (v Var) Eval(env map[string]float64) (float64, error) {
	x, ok := env[v.Name]
	if !ok {
		return 0, fmt.Errorf("expr: unknown variable %q", v.Name)
	}
	return x, nil
}

// Eval implements Node.
func (u Unary) Eval(env map[string]float64) (float64, error) {
	x, err := u.X.Eval(env)
	return -x, err
}

// Eval implements Node.
func (b Binary) Eval(env map[string]float64) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, errors.New("expr: division by zero")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %q", b.Op)
}

// Eval implements Node.
func (c Call) Eval(env map[string]float64) (float64, error) {
	args := make([]float64, len(c.Args))
	for i, a := range c.Args {
		x, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = x
	}
	switch c.Fn {
	case "sqrt":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: sqrt takes 1 arg, got %d", len(args))
		}
		if args[0] < 0 {
			return 0, fmt.Errorf("expr: sqrt of negative %g", args[0])
		}
		return math.Sqrt(args[0]), nil
	case "abs":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: abs takes 1 arg, got %d", len(args))
		}
		return math.Abs(args[0]), nil
	case "log":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: log takes 1 arg, got %d", len(args))
		}
		if args[0] <= 0 {
			return 0, fmt.Errorf("expr: log of non-positive %g", args[0])
		}
		return math.Log(args[0]), nil
	case "exp":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: exp takes 1 arg, got %d", len(args))
		}
		return math.Exp(args[0]), nil
	case "min":
		if len(args) < 1 {
			return 0, errors.New("expr: min needs at least 1 arg")
		}
		m := args[0]
		for _, x := range args[1:] {
			m = math.Min(m, x)
		}
		return m, nil
	case "max":
		if len(args) < 1 {
			return 0, errors.New("expr: max needs at least 1 arg")
		}
		m := args[0]
		for _, x := range args[1:] {
			m = math.Max(m, x)
		}
		return m, nil
	case "pow":
		if len(args) != 2 {
			return 0, fmt.Errorf("expr: pow takes 2 args, got %d", len(args))
		}
		return math.Pow(args[0], args[1]), nil
	}
	return 0, fmt.Errorf("expr: unknown function %q", c.Fn)
}

// String implements Node.
func (n Num) String() string { return strconv.FormatFloat(n.Value, 'g', -1, 64) }

// String implements Node.
func (v Var) String() string { return v.Name }

// String implements Node.
func (u Unary) String() string { return "-" + paren(u.X) }

// String implements Node.
func (b Binary) String() string {
	return paren(b.L) + " " + string(b.Op) + " " + paren(b.R)
}

// String implements Node.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

func paren(n Node) string {
	switch n.(type) {
	case Num, Var, Call:
		return n.String()
	default:
		return "(" + n.String() + ")"
	}
}

// Vars implements Node.
func (n Num) Vars(map[string]struct{}) {}

// Vars implements Node.
func (v Var) Vars(set map[string]struct{}) { set[v.Name] = struct{}{} }

// Vars implements Node.
func (u Unary) Vars(set map[string]struct{}) { u.X.Vars(set) }

// Vars implements Node.
func (b Binary) Vars(set map[string]struct{}) { b.L.Vars(set); b.R.Vars(set) }

// Vars implements Node.
func (c Call) Vars(set map[string]struct{}) {
	for _, a := range c.Args {
		a.Vars(set)
	}
}

// VarsOf returns the sorted-free variable set of n as a map.
func VarsOf(n Node) map[string]struct{} {
	set := map[string]struct{}{}
	n.Vars(set)
	return set
}

// --- Parser ---

// maxNodes caps the nodes one Parse builds and the parenthesised groups open
// at once. Parse and every walk of a tree (Eval, String, Vars, Linearize)
// recurse once per level, so the cap bounds their stack whatever the input:
// a megabyte of "(" would otherwise recurse a million levels deep.
const maxNodes = 1024

// errTooLarge is Parse's error for input past maxNodes.
var errTooLarge = fmt.Errorf("expr: expression has more than %d nodes or nested groups", maxNodes)

type parser struct {
	src   string
	pos   int
	nodes int // nodes started so far
	open  int // parenthesised groups open
}

// node counts one more node against maxNodes. The parser calls it when it
// starts a node, before it recurses into the node's operands.
func (p *parser) node() error {
	if p.nodes++; p.nodes > maxNodes {
		return errTooLarge
	}
	return nil
}

// Parse parses source text into an AST of at most maxNodes nodes.
func Parse(src string) (Node, error) {
	p := &parser{src: src}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	return n, nil
}

// MustParse parses src, panicking on error. For tests and package literals.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseExpr() (Node, error) {
	return p.parseChain('+', '-', p.parseTerm)
}

func (p *parser) parseTerm() (Node, error) {
	return p.parseChain('*', '/', p.parseFactor)
}

// parseChain parses a left-associative chain of operands joined by op1 or
// op2.
func (p *parser) parseChain(op1, op2 byte, operand func() (Node, error)) (Node, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		if op != op1 && op != op2 {
			return left, nil
		}
		if err := p.node(); err != nil {
			return nil, err
		}
		p.pos++
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseFactor() (Node, error) {
	base, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.peek() == '^' {
		if err := p.node(); err != nil {
			return nil, err
		}
		p.pos++
		exp, err := p.parseFactor() // right-associative
		if err != nil {
			return nil, err
		}
		return Binary{Op: '^', L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.peek() == '-' {
		if err := p.node(); err != nil {
			return nil, err
		}
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	c := p.peek()
	switch {
	case c == '(':
		if p.open++; p.open > maxNodes {
			return nil, errTooLarge
		}
		p.pos++
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.open--
		if p.peek() != ')' {
			return nil, fmt.Errorf("expr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case c >= '0' && c <= '9' || c == '.':
		if err := p.node(); err != nil {
			return nil, err
		}
		return p.parseNumber()
	case isIdentStart(rune(c)):
		if err := p.node(); err != nil {
			return nil, err
		}
		return p.parseIdentOrCall()
	case c == 0:
		return nil, errors.New("expr: unexpected end of input")
	default:
		return nil, fmt.Errorf("expr: unexpected character %q at offset %d", c, p.pos)
	}
}

func (p *parser) parseNumber() (Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		if (c == '+' || c == '-') && p.pos > start &&
			(p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E') {
			p.pos++
			continue
		}
		break
	}
	text := p.src[start:p.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("expr: bad number %q: %w", text, err)
	}
	return Num{Value: v}, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (p *parser) parseIdentOrCall() (Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentPart(rune(p.src[p.pos])) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if p.peek() != '(' {
		return Var{Name: name}, nil
	}
	p.pos++ // consume '('
	var args []Node
	if p.peek() != ')' {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if p.peek() != ')' {
		return nil, fmt.Errorf("expr: missing ')' in call to %s", name)
	}
	p.pos++
	return Call{Fn: name, Args: args}, nil
}
