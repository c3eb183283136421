// Command iqtool is the interactive analytic tool of Section 6.1, with a
// terminal REPL standing in for the paper's GUI (see DESIGN.md). A session
// generates or loads a dataset and a query workload, selects target objects
// manually or with a SQL SELECT statement, attaches cost functions and
// attribute constraints, and issues Min-Cost and Max-Hit improvement
// queries interactively.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"iq"
	"iq/internal/dataset"
	"iq/internal/sqlmini"
	"iq/internal/vec"
)

// session holds the REPL state.
type session struct {
	out       io.Writer
	rng       *rand.Rand
	objects   []vec.Vector
	attrNames []string
	queries   []iq.Query
	sys       *iq.System
	db        *sqlmini.DB
	targets   []int
	cost      iq.Cost
	costName  string
	bounds    *iq.Bounds
}

func newSession(out io.Writer, seed int64) *session {
	return &session{
		out:      out,
		rng:      rand.New(rand.NewSource(seed)),
		cost:     iq.L2Cost{},
		costName: "l2",
	}
}

const helpText = `commands:
  gen objects <in|co|ac|vehicle|house> <n> [d]   generate an object dataset
  gen queries <un|cl> <m> [kmax]                 generate a top-k workload
  load objects <file.csv>                        load objects from CSV (datagen format)
  load queries <file.csv>                        load queries from CSV
  build                                          build the subdomain index
  sql <SELECT ...>                               select targets from table "objects"
  targets <id> [id...]                           set targets manually
  cost <l2 | l1 | wl2 a1,a2,... | expr EXPR>     set the cost function
  freeze <attr> [attr...]                        forbid adjusting attributes
  unfreeze                                       clear attribute constraints
  mincost <tau>                                  min-cost IQ over the targets
  maxhit <budget>                                max-hit IQ over the targets
  eval <target> <s1,s2,...>                      what-if: hits after strategy
  commit <target> <s1,s2,...>                    permanently apply a strategy
  hits <target>                                  current hit count
  topk <k> <w1,w2,...>                           run a plain top-k query
  stats                                          index statistics
  help                                           this text
  quit                                           exit`

// run executes the REPL until EOF or quit.
func run(in io.Reader, out io.Writer, seed int64) {
	s := newSession(out, seed)
	fmt.Fprintln(out, "iqtool — improvement query analytic tool (type 'help')")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(out, "> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line != "" {
			if line == "quit" || line == "exit" {
				fmt.Fprintln(out, "bye")
				return
			}
			if err := s.dispatch(line); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			}
		}
		fmt.Fprint(out, "> ")
	}
}

func (s *session) dispatch(line string) error {
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	args := fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, helpText)
		return nil
	case "gen":
		return s.cmdGen(args)
	case "load":
		return s.cmdLoad(args)
	case "build":
		return s.cmdBuild()
	case "sql":
		return s.cmdSQL(strings.TrimSpace(strings.TrimPrefix(line, fields[0])))
	case "targets":
		return s.cmdTargets(args)
	case "cost":
		return s.cmdCost(args)
	case "freeze":
		return s.cmdFreeze(args)
	case "unfreeze":
		s.bounds = nil
		fmt.Fprintln(s.out, "constraints cleared")
		return nil
	case "mincost":
		return s.cmdMinCost(args)
	case "maxhit":
		return s.cmdMaxHit(args)
	case "eval":
		return s.cmdEval(args, false)
	case "commit":
		return s.cmdEval(args, true)
	case "hits":
		return s.cmdHits(args)
	case "topk":
		return s.cmdTopK(args)
	case "stats":
		return s.cmdStats()
	default:
		return fmt.Errorf("unknown command %q (type 'help')", cmd)
	}
}

func (s *session) cmdGen(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: gen objects|queries <kind> <count> [...]")
	}
	count, err := strconv.Atoi(args[2])
	if err != nil || count < 1 {
		return fmt.Errorf("bad count %q", args[2])
	}
	switch strings.ToLower(args[0]) {
	case "objects":
		d := 3
		if len(args) > 3 {
			if d, err = strconv.Atoi(args[3]); err != nil || d < 1 {
				return fmt.Errorf("bad dimension %q", args[3])
			}
		}
		switch strings.ToLower(args[1]) {
		case "in":
			s.objects = dataset.Objects(dataset.Independent, count, d, s.rng)
			s.attrNames = genericNames(d)
		case "co":
			s.objects = dataset.Objects(dataset.Correlated, count, d, s.rng)
			s.attrNames = genericNames(d)
		case "ac":
			s.objects = dataset.Objects(dataset.AntiCorrelated, count, d, s.rng)
			s.attrNames = genericNames(d)
		case "vehicle":
			s.objects = dataset.VehicleObjects(count, s.rng)
			s.attrNames = dataset.VehicleAttrNames
		case "house":
			s.objects = dataset.HouseObjects(count, s.rng)
			s.attrNames = dataset.HouseAttrNames
		default:
			return fmt.Errorf("unknown object kind %q", args[1])
		}
		s.sys = nil
		s.targets = nil
		s.loadSQL()
		fmt.Fprintf(s.out, "generated %d objects with attributes %s\n",
			len(s.objects), strings.Join(s.attrNames, ", "))
		return nil
	case "queries":
		if len(s.objects) == 0 {
			return fmt.Errorf("generate objects first")
		}
		kmax := 10
		if len(args) > 3 {
			if kmax, err = strconv.Atoi(args[3]); err != nil || kmax < 1 {
				return fmt.Errorf("bad kmax %q", args[3])
			}
		}
		d := len(s.objects[0])
		switch strings.ToLower(args[1]) {
		case "un":
			s.queries = dataset.UNQueries(count, d, kmax, true, s.rng)
		case "cl":
			s.queries = dataset.CLQueries(count, d, kmax, 5, true, s.rng)
		default:
			return fmt.Errorf("unknown query kind %q", args[1])
		}
		s.sys = nil
		fmt.Fprintf(s.out, "generated %d top-k queries (k ≤ %d)\n", count, kmax)
		return nil
	}
	return fmt.Errorf("usage: gen objects|queries ...")
}

func (s *session) cmdLoad(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: load objects|queries <file.csv>")
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(args[0]) {
	case "objects":
		objs, names, err := iq.ObjectsCSV(f)
		if err != nil {
			return err
		}
		s.objects = objs
		s.attrNames = names
		s.sys = nil
		s.targets = nil
		s.loadSQL()
		fmt.Fprintf(s.out, "loaded %d objects with attributes %s\n",
			len(objs), strings.Join(names, ", "))
		return nil
	case "queries":
		if len(s.objects) == 0 {
			return fmt.Errorf("load objects first")
		}
		qs, err := iq.QueriesCSV(f)
		if err != nil {
			return err
		}
		if len(qs) > 0 && len(qs[0].Point) != len(s.objects[0]) {
			return fmt.Errorf("queries have %d weights, objects have %d attributes",
				len(qs[0].Point), len(s.objects[0]))
		}
		s.queries = qs
		s.sys = nil
		fmt.Fprintf(s.out, "loaded %d top-k queries\n", len(qs))
		return nil
	}
	return fmt.Errorf("usage: load objects|queries <file.csv>")
}

func genericNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i+1)
	}
	return names
}

// loadSQL refreshes the sqlmini table mirroring the dataset.
func (s *session) loadSQL() {
	s.db = sqlmini.NewDB()
	tab, err := s.db.Create("objects", s.attrNames)
	if err != nil {
		return
	}
	for _, o := range s.objects {
		_, _ = tab.Insert(o)
	}
}

func (s *session) cmdBuild() error {
	if len(s.objects) == 0 || len(s.queries) == 0 {
		return fmt.Errorf("need objects and queries first")
	}
	sys, err := iq.NewLinear(s.objects, s.queries)
	if err != nil {
		return err
	}
	s.sys = sys
	// Not IndexStats: it runs Algorithm 1, which only the stats command needs.
	fmt.Fprintf(s.out, "index built: %d queries, %d candidate objects\n",
		sys.NumQueries(), len(sys.Index().Candidates()))
	return nil
}

func (s *session) cmdSQL(stmt string) error {
	if s.db == nil {
		return fmt.Errorf("no dataset loaded")
	}
	rs, err := s.db.Select(stmt)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, rs.String())
	if len(rs.RowIDs) > 0 {
		s.targets = append([]int{}, rs.RowIDs...)
		fmt.Fprintf(s.out, "targets set to %v\n", s.targets)
	}
	return nil
}

func (s *session) cmdTargets(args []string) error {
	if len(args) == 0 {
		fmt.Fprintf(s.out, "targets: %v\n", s.targets)
		return nil
	}
	var ts []int
	for _, a := range args {
		id, err := strconv.Atoi(a)
		if err != nil || id < 0 || id >= len(s.objects) {
			return fmt.Errorf("bad target %q", a)
		}
		ts = append(ts, id)
	}
	s.targets = ts
	fmt.Fprintf(s.out, "targets set to %v\n", s.targets)
	return nil
}

func (s *session) cmdCost(args []string) error {
	if len(args) == 0 {
		fmt.Fprintf(s.out, "cost function: %s\n", s.costName)
		return nil
	}
	switch strings.ToLower(args[0]) {
	case "l2":
		s.cost, s.costName = iq.L2Cost{}, "l2"
	case "l1":
		s.cost, s.costName = iq.L1Cost{}, "l1"
	case "wl2":
		if len(args) < 2 {
			return fmt.Errorf("usage: cost wl2 a1,a2,...")
		}
		alpha, err := parseVector(args[1])
		if err != nil {
			return err
		}
		if len(s.objects) > 0 && len(alpha) != len(s.objects[0]) {
			return fmt.Errorf("need %d weights", len(s.objects[0]))
		}
		s.cost, s.costName = iq.WeightedL2Cost{Alpha: alpha}, "wl2"
	case "expr":
		if len(args) < 2 {
			return fmt.Errorf("usage: cost expr <expression over s1..sd>")
		}
		src := strings.Join(args[1:], " ")
		d := 0
		if len(s.objects) > 0 {
			d = len(s.objects[0])
		}
		c, err := iq.NewExprCost(src, d)
		if err != nil {
			return err
		}
		s.cost, s.costName = c, "expr("+src+")"
	default:
		return fmt.Errorf("unknown cost %q", args[0])
	}
	fmt.Fprintf(s.out, "cost function set to %s\n", s.costName)
	return nil
}

func (s *session) cmdFreeze(args []string) error {
	if len(s.objects) == 0 {
		return fmt.Errorf("no dataset loaded")
	}
	d := len(s.objects[0])
	var frozen []int
	for _, a := range args {
		i, err := strconv.Atoi(a)
		if err != nil || i < 0 || i >= d {
			return fmt.Errorf("bad attribute index %q", a)
		}
		frozen = append(frozen, i)
	}
	s.bounds = iq.Frozen(d, frozen...)
	fmt.Fprintf(s.out, "frozen attributes: %v\n", frozen)
	return nil
}

func (s *session) ready() error {
	if s.sys == nil {
		return fmt.Errorf("build the index first (command: build)")
	}
	if len(s.targets) == 0 {
		return fmt.Errorf("select targets first (command: targets or sql)")
	}
	return nil
}

func (s *session) cmdMinCost(args []string) error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: mincost <tau>")
	}
	tau, err := strconv.Atoi(args[0])
	if err != nil || tau < 0 {
		return fmt.Errorf("bad tau %q", args[0])
	}
	if len(s.targets) == 1 {
		res, err := s.sys.MinCost(iq.MinCostRequest{Target: s.targets[0], Tau: tau, Cost: s.cost, Bounds: s.bounds})
		if err != nil {
			return err
		}
		s.printResult(s.targets[0], res)
		return nil
	}
	specs := s.specs()
	res, err := s.sys.MinCostMultiCtx(context.Background(), specs, tau)
	if err != nil {
		return err
	}
	s.printMulti(res)
	return nil
}

func (s *session) cmdMaxHit(args []string) error {
	if err := s.ready(); err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: maxhit <budget>")
	}
	budget, err := strconv.ParseFloat(args[0], 64)
	if err != nil || budget < 0 {
		return fmt.Errorf("bad budget %q", args[0])
	}
	if len(s.targets) == 1 {
		res, err := s.sys.MaxHit(iq.MaxHitRequest{Target: s.targets[0], Budget: budget, Cost: s.cost, Bounds: s.bounds})
		if err != nil {
			return err
		}
		s.printResult(s.targets[0], res)
		return nil
	}
	specs := s.specs()
	res, err := s.sys.MaxHitMultiCtx(context.Background(), specs, budget)
	if err != nil {
		return err
	}
	s.printMulti(res)
	return nil
}

func (s *session) specs() []iq.TargetSpec {
	specs := make([]iq.TargetSpec, len(s.targets))
	for i, t := range s.targets {
		specs[i] = iq.TargetSpec{Target: t, Cost: s.cost, Bounds: s.bounds}
	}
	return specs
}

func (s *session) printResult(target int, res *iq.Result) {
	fmt.Fprintf(s.out, "target %d: strategy %s\n", target, vec.String(res.Strategy))
	fmt.Fprintf(s.out, "  cost %.4f, hits %d (was %d), cost/hit %.4f\n",
		res.Cost, res.Hits, res.BaseHits, safeRatio(res.Cost, res.Hits))
	for i, delta := range res.Strategy {
		if math.Abs(delta) > 1e-12 && i < len(s.attrNames) {
			fmt.Fprintf(s.out, "  adjust %s by %+.4f\n", s.attrNames[i], delta)
		}
	}
}

func (s *session) printMulti(res *iq.MultiResult) {
	ids := make([]int, 0, len(res.Strategies))
	for id := range res.Strategies {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(s.out, "target %d: strategy %s\n", id, vec.String(res.Strategies[id]))
	}
	fmt.Fprintf(s.out, "total cost %.4f, combined hits %d, cost/hit %.4f\n",
		res.TotalCost, res.TotalHits, safeRatio(res.TotalCost, res.TotalHits))
}

func safeRatio(cost float64, hits int) float64 {
	if hits == 0 {
		return 0
	}
	return cost / float64(hits)
}

func (s *session) cmdEval(args []string, commit bool) error {
	if s.sys == nil {
		return fmt.Errorf("build the index first")
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: eval|commit <target> <s1,s2,...>")
	}
	target, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad target %q", args[0])
	}
	strategy, err := parseVector(args[1])
	if err != nil {
		return err
	}
	if commit {
		if err := s.sys.CommitCtx(context.Background(), target, strategy); err != nil {
			return err
		}
		h, err := s.sys.Hits(target)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "committed; target %d now hits %d queries\n", target, h)
		return nil
	}
	h, err := s.sys.EvaluateStrategy(target, strategy)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "target %d would hit %d queries\n", target, h)
	return nil
}

func (s *session) cmdHits(args []string) error {
	if s.sys == nil {
		return fmt.Errorf("build the index first")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: hits <target>")
	}
	target, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad target %q", args[0])
	}
	h, err := s.sys.Hits(target)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "target %d hits %d of %d queries\n", target, h, s.sys.NumQueries())
	return nil
}

func (s *session) cmdTopK(args []string) error {
	if s.sys == nil {
		return fmt.Errorf("build the index first")
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: topk <k> <w1,w2,...>")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 {
		return fmt.Errorf("bad k %q", args[0])
	}
	point, err := parseVector(args[1])
	if err != nil {
		return err
	}
	ids, err := s.sys.EvaluateCtx(context.Background(), iq.Query{K: k, Point: point})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "top-%d: %v\n", k, ids)
	return nil
}

func (s *session) cmdStats() error {
	if s.sys == nil {
		return fmt.Errorf("build the index first")
	}
	st := s.sys.IndexStats()
	fmt.Fprintf(s.out, "objects %d  queries %d  subdomains %d  candidates %d  tree nodes %d  size %d bytes  splits %d\n",
		s.sys.NumObjects(), st.Queries, st.Subdomains, st.Candidates, st.TreeNodes, st.SizeBytes, st.Intersections)
	return nil
}

func parseVector(csvText string) (vec.Vector, error) {
	parts := strings.Split(csvText, ",")
	out := make(vec.Vector, 0, len(parts))
	for _, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, x)
	}
	return out, nil
}
