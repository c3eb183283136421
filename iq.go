// Package iq is a library for querying improvement strategies, implementing
// Yang & Cai, "Querying Improvement Strategies" (EDBT 2017). Given a dataset
// of objects (points over numeric attributes) and a workload of top-k
// queries (users' preference functions), an Improvement Query finds how to
// adjust a chosen object's attributes so it appears in more query results:
//
//   - MinCost: the cheapest adjustment reaching a desired number of hit
//     queries (Algorithm 3 of the paper).
//   - MaxHit: the adjustment hitting the most queries within a cost budget
//     (Algorithm 4).
//
// Both are NP-hard; the library answers them with the paper's greedy
// heuristics: objects are interpreted as functions over the query weight
// space, only the k-skyband of the objects can enter a top-k result, and
// each candidate strategy's hit count is read from a per-target table of
// the score each query's top-k demands (Eq. 6) instead of re-evaluating the
// workload.
//
// Scores are lower-is-better: a top-k query returns the k objects with the
// smallest score, and an improvement typically decreases attribute values.
// Model "bigger is better" attributes by negating or inverting them when
// building the dataset (the examples show both).
//
// The entry point is System:
//
//	sys, err := iq.NewLinear(objects, queries)
//	res, err := sys.MinCost(iq.MinCostRequest{Target: 3, Tau: 10, Cost: iq.L2Cost{}})
//	fmt.Println(res.Strategy, res.Cost, res.Hits)
//
// Non-linear utilities (Section 5.2), heterogeneous utility families
// (Section 5.3), multiple targets (Section 5.1), user-defined cost
// expressions, frozen attributes, and incremental data updates are all
// supported; see the examples directory.
package iq

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"iq/internal/core"
	"iq/internal/obs"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Vector is a point in attribute or weight space.
type Vector = vec.Vector

// Query is a top-k query: a weight-space point and the result size k.
type Query = topk.Query

// Space maps object attributes to function coefficients; see LinearSpace,
// NewExprSpace and NewHeterogeneousSpace.
type Space = topk.Space

// LinearSpace is the identity embedding for linear utility functions.
type LinearSpace = topk.LinearSpace

// NewExprSpace linearises a utility expression (e.g. "w1*price^2 +
// w2*(capacity/mpg)") into an embedding space via variable substitution.
var NewExprSpace = topk.NewExprSpace

// NewHeterogeneousSpace unifies several utility families into one generic
// space; queries from family f are placed with Lift(f, point).
var NewHeterogeneousSpace = topk.NewHeterogeneousSpace

// Cost is a user-defined strategy cost function.
type Cost = core.Cost

// L2Cost is the Euclidean cost sqrt(Σ sᵢ²) used in the paper's experiments.
type L2Cost = core.L2Cost

// L1Cost prices every unit of attribute change equally.
type L1Cost = core.L1Cost

// WeightedL2Cost prices attribute i at weight Alpha[i].
type WeightedL2Cost = core.WeightedL2Cost

// NewExprCost parses a custom cost expression over variables s1…sd.
var NewExprCost = core.NewExprCost

// Bounds restricts valid strategies per attribute; Frozen builds bounds
// pinning selected attributes.
type Bounds = core.Bounds

// Frozen returns bounds that freeze the listed attribute indices.
var Frozen = core.Frozen

// MinCostRequest parameterises a Min-Cost IQ.
type MinCostRequest = core.MinCostRequest

// MaxHitRequest parameterises a Max-Hit IQ.
type MaxHitRequest = core.MaxHitRequest

// Result is a single-target improvement query answer.
type Result = core.Result

// SolveStats is the per-solve work profile carried inside every Result:
// greedy rounds, candidate probes, prune counts, and wall time per stage.
type SolveStats = core.SolveStats

// Trace is a bounded buffer of hierarchical spans recorded during one solve
// (or any other traced operation). Attach one to a context with WithTrace
// and pass that context into the Ctx solver variants; every engine stage —
// greedy rounds, candidate probes, hit-table builds, index builds, clones
// and updates — records a span into it. Export the result with
// WriteTraceEvent (Perfetto / chrome://tracing) or WriteTree (human-readable).
type Trace = obs.Trace

// Span is one timed, attributed node of a Trace. Advanced callers can record
// their own spans around engine calls with StartSpan.
type Span = obs.Span

// DefaultMaxSpans is the span-buffer bound NewTrace applies when maxSpans
// is zero.
const DefaultMaxSpans = obs.DefaultMaxSpans

// NewTrace allocates an empty trace. maxSpans bounds the buffer (0 means
// DefaultMaxSpans); once full, further spans are counted as dropped rather
// than recorded, so a runaway solve cannot hold unbounded memory.
func NewTrace(name string, maxSpans int) *Trace { return obs.NewTrace(name, maxSpans) }

// WithTrace returns a context that records engine spans into t.
func WithTrace(ctx context.Context, t *Trace) context.Context { return obs.WithTrace(ctx, t) }

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace { return obs.TraceFrom(ctx) }

// StartSpan opens a span on ctx's trace (nil-safe: without a trace it
// returns the context unchanged and a nil span whose methods are no-ops).
// Close it with End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// WriteTraceEvent serialises a trace in Chrome trace_event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteTraceEvent(w io.Writer, t *Trace) error { return obs.WriteTraceEvent(w, t) }

// WriteTree renders a trace as an indented human-readable span tree.
func WriteTree(w io.Writer, t *Trace) error { return obs.WriteTree(w, t) }

// TargetSpec pairs a target with its cost function for multi-target IQs.
type TargetSpec = core.TargetSpec

// MultiResult is a multi-target improvement query answer.
type MultiResult = core.MultiResult

// ErrGoalUnreachable reports that the requested τ cannot be met.
var ErrGoalUnreachable = core.ErrGoalUnreachable

// ErrCanceled reports a solve stopped early because its context was
// cancelled; the error chain also matches context.Canceled. A cancelled
// solve discards its partial greedy state — the System's published epoch is
// untouched and no partial Result is returned.
var ErrCanceled = core.ErrCanceled

// ErrDeadlineExceeded reports a solve stopped early because its context's
// deadline passed; the error chain also matches context.DeadlineExceeded.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// IndexOptions tunes subdomain index construction.
type IndexOptions = subdomain.Options

// IndexStats summarises the index footprint.
type IndexStats = subdomain.Stats

// System bundles a workload (objects + queries + embedding space) with its
// subdomain index and answers improvement queries. Build one with New or
// NewLinear.
//
// A System is safe for unbounded concurrent use. Reads (MinCost, MaxHit,
// Evaluate, Hits, EvaluateStrategy, TopK, Stats, …) run lock-free against an
// immutable epoch snapshot of the workload and index; writes (Commit,
// AddObject, RemoveObject, AddQuery, RemoveQuery) serialise behind a mutex,
// apply copy-on-write to a clone of the current epoch, and atomically
// publish the result. A commit that lands mid-read therefore never corrupts
// the in-progress evaluation: the reader finishes against the epoch it
// started with, and the next read observes the new one.
type System struct {
	// mu serialises writers; readers never take it.
	mu  sync.Mutex
	cur atomic.Pointer[state]
	// dur, when non-nil, receives every committed transaction before it is
	// published — the write-ahead contract behind crash recovery. Attached by
	// a Store (see durability.go) under mu; nil for in-memory Systems.
	dur durabilitySink
}

// durabilitySink is the engine side of the WAL contract: logTxn must make
// the transaction durable (per the configured fsync policy) before the
// epoch publishes, or fail the whole mutation.
type durabilitySink interface {
	logTxn(ctx context.Context, epoch uint64, muts []Mutation) error
}

// state is one immutable epoch: a workload/index pair that is never mutated
// after publication. The two are cloned and replaced together — an index is
// only ever paired with the workload it was built against. opts records the
// construction options so snapshots round-trip them.
type state struct {
	w     *topk.Workload
	idx   *subdomain.Index
	opts  IndexOptions
	epoch uint64
}

// view returns the current epoch snapshot.
func (s *System) view() *state { return s.cur.Load() }

// publish installs st as the initial epoch.
func newSystem(w *topk.Workload, idx *subdomain.Index, opts IndexOptions) *System {
	s := &System{}
	s.cur.Store(&state{w: w, idx: idx, opts: opts})
	return s
}

// mutateCtx runs fn against a private clone of the current epoch under the
// writer lock and publishes the clone when fn succeeds. On error the clone
// is discarded and the visible state is unchanged — failed writes are
// all-or-nothing. muts is the logical description of the write, handed to
// the durability sink (if attached) before publication; ctx carries the
// caller's trace, so the clone and update work records spans into it.
//
// The clone's index keeps its per-query rows exact mutation by mutation, so
// the published snapshot needs nothing carried over: its first solve per
// target derives that target's hit table from the rows. A failed — or
// cancelled — fn discards the clone and its rows together: cancellation is
// re-checked at the MutationCheckpoint after fn, so a cancelled mutation
// never publishes a partially applied batch.
//
// When a durability sink is attached, the transaction is appended to the
// WAL — stamped with the post-mutation epoch — after fn succeeds and before
// the clone publishes. A WAL failure therefore aborts the mutation: the
// caller never gets an acknowledged write the log does not hold, and the
// log never holds an epoch no reader observed only if the process dies
// between append and publish — exactly the window crash recovery replays.
func (s *System) mutateCtx(ctx context.Context, muts []Mutation, fn func(st *state) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	w := old.w.Clone()
	next := &state{w: w, idx: old.idx.CloneCtx(ctx, w), opts: old.opts, epoch: old.epoch + 1}
	if err := fn(next); err != nil {
		return err
	}
	if err := core.MutationCheckpoint(ctx, -1); err != nil {
		return err
	}
	if s.dur != nil && len(muts) > 0 {
		if err := s.dur.logTxn(ctx, next.epoch, muts); err != nil {
			return err
		}
	}
	s.cur.Store(next)
	return nil
}

// apply publishes one mutation as its own epoch. It returns the id
// applyMutation assigned and the published state.
func (s *System) apply(ctx context.Context, m Mutation) (int, *state, error) {
	var id int
	var published *state
	err := s.mutateCtx(ctx, []Mutation{m}, func(st *state) error {
		var err error
		id, err = applyMutation(ctx, st, m)
		published = st
		return err
	})
	return id, published, err
}

// Epoch returns the number of committed writes. Two reads returning the
// same epoch were answered from the same immutable snapshot.
func (s *System) Epoch() uint64 { return s.view().epoch }

// New builds a System over an arbitrary embedding space.
func New(space Space, objects []Vector, queries []Query) (*System, error) {
	return NewWithOptions(space, objects, queries, IndexOptions{})
}

// NewWithOptions builds a System with explicit index options.
func NewWithOptions(space Space, objects []Vector, queries []Query, opts IndexOptions) (*System, error) {
	return NewWithOptionsCtx(context.Background(), space, objects, queries, opts)
}

// NewWithOptionsCtx is NewWithOptions under a context: when the context
// carries a Trace, subdomain-index construction records an "index/build"
// span into it, so tools can profile startup alongside solves.
func NewWithOptionsCtx(ctx context.Context, space Space, objects []Vector, queries []Query, opts IndexOptions) (*System, error) {
	w, err := topk.NewWorkload(space, objects, queries)
	if err != nil {
		return nil, err
	}
	idx, err := subdomain.BuildCtx(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	return newSystem(w, idx, opts), nil
}

// NewLinear builds a System for linear utility functions: query points are
// attribute weight vectors of the same dimension as the objects.
func NewLinear(objects []Vector, queries []Query) (*System, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("iq: no objects")
	}
	return New(LinearSpace{D: len(objects[0])}, objects, queries)
}

// MinCost answers a Min-Cost improvement query (Definition 2 /
// Algorithm 3).
func (s *System) MinCost(req MinCostRequest) (*Result, error) {
	return s.MinCostCtx(context.Background(), req)
}

// MinCostCtx is MinCost under a context: the greedy loop of Algorithm 3
// observes ctx at every round and before every probe, so a cancellation or
// deadline stops the solve promptly. A cancelled solve returns a nil Result
// and an error matching ErrCanceled/ErrDeadlineExceeded (and the
// corresponding context error); partial greedy progress is discarded and the
// System is unchanged.
func (s *System) MinCostCtx(ctx context.Context, req MinCostRequest) (*Result, error) {
	return s.view().solveMinCost(ctx, req)
}

// solveMinCost answers one Min-Cost solve against this epoch snapshot.
func (st *state) solveMinCost(ctx context.Context, req MinCostRequest) (*Result, error) {
	return core.MinCostIQCtx(ctx, st.idx, req)
}

// MaxHit answers a Max-Hit improvement query (Definition 3 / Algorithm 4).
func (s *System) MaxHit(req MaxHitRequest) (*Result, error) {
	return s.MaxHitCtx(context.Background(), req)
}

// MaxHitCtx is MaxHit under a context; cancellation semantics match
// MinCostCtx.
func (s *System) MaxHitCtx(ctx context.Context, req MaxHitRequest) (*Result, error) {
	return s.view().solveMaxHit(ctx, req)
}

// solveMaxHit answers one Max-Hit solve against this epoch snapshot.
func (st *state) solveMaxHit(ctx context.Context, req MaxHitRequest) (*Result, error) {
	return core.MaxHitIQCtx(ctx, st.idx, req)
}

// BatchItem is one solve of a batch: exactly one of MinCost or MaxHit must
// be set.
type BatchItem struct {
	MinCost *MinCostRequest
	MaxHit  *MaxHitRequest
}

// BatchResult is one batch item's outcome: Result on success, Err otherwise.
type BatchResult struct {
	Result *Result
	Err    error
}

// SolveBatch answers several independent improvement queries against one
// epoch snapshot; see SolveBatchCtx.
func (s *System) SolveBatch(items []BatchItem) []BatchResult {
	return s.SolveBatchCtx(context.Background(), items)
}

// SolveBatchCtx answers several independent improvement queries against a
// single epoch snapshot: every item sees the same immutable workload/index
// pair even if writers land mid-batch, and all items share the snapshot's
// hit tables, so a batch of N solves pays the cold-path cost at most once
// per distinct target. Items run on a worker
// pool of min(GOMAXPROCS, len(items)) goroutines with results delivered in
// item order regardless of completion order. Each solve runs on one
// goroutine, so a batch is how a caller spreads solves over more cores.
// Per-item failures land in the item's BatchResult; the batch itself never
// fails. Cancellation marks every
// not-yet-started item with the translated context error.
func (s *System) SolveBatchCtx(ctx context.Context, items []BatchItem) []BatchResult {
	st := s.view()
	out := make([]BatchResult, len(items))
	workers := min(runtime.GOMAXPROCS(0), len(items))
	if workers <= 1 {
		for i, it := range items {
			out[i] = st.solveBatchItem(ctx, i, it)
		}
		return out
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Strided assignment: worker k owns items k, k+workers, … Writes
			// go to disjoint slots, so no coordination is needed and the
			// output order is the input order.
			for i := k; i < len(items); i += workers {
				out[i] = st.solveBatchItem(ctx, i, items[i])
			}
		}(k)
	}
	wg.Wait()
	return out
}

// solveBatchItem answers one batch item against this epoch snapshot.
func (st *state) solveBatchItem(ctx context.Context, i int, it BatchItem) BatchResult {
	if err := core.CtxErr(ctx); err != nil {
		return BatchResult{Err: err}
	}
	switch {
	case it.MinCost != nil && it.MaxHit == nil:
		r, err := st.solveMinCost(ctx, *it.MinCost)
		return BatchResult{Result: r, Err: err}
	case it.MaxHit != nil && it.MinCost == nil:
		r, err := st.solveMaxHit(ctx, *it.MaxHit)
		return BatchResult{Result: r, Err: err}
	default:
		return BatchResult{Err: fmt.Errorf("iq: batch item %d must set exactly one of MinCost or MaxHit", i)}
	}
}

// MinCostMulti answers a combinatorial Min-Cost IQ over several targets
// (Section 5.1).
func (s *System) MinCostMulti(specs []TargetSpec, tau int) (*MultiResult, error) {
	return s.MinCostMultiCtx(context.Background(), specs, tau)
}

// MinCostMultiCtx is MinCostMulti under a context; cancellation semantics
// match MinCostCtx.
func (s *System) MinCostMultiCtx(ctx context.Context, specs []TargetSpec, tau int) (*MultiResult, error) {
	return core.CombinatorialMinCostIQCtx(ctx, s.view().idx, specs, tau)
}

// MaxHitMulti answers a combinatorial Max-Hit IQ over several targets.
func (s *System) MaxHitMulti(specs []TargetSpec, budget float64) (*MultiResult, error) {
	return s.MaxHitMultiCtx(context.Background(), specs, budget)
}

// MaxHitMultiCtx is MaxHitMulti under a context; cancellation semantics
// match MinCostCtx.
func (s *System) MaxHitMultiCtx(ctx context.Context, specs []TargetSpec, budget float64) (*MultiResult, error) {
	return core.CombinatorialMaxHitIQCtx(ctx, s.view().idx, specs, budget)
}

// MinCostExhaustive runs the optimal (exponential-time) solver; only
// feasible for very small inputs, as the paper notes.
func (s *System) MinCostExhaustive(req MinCostRequest) (*Result, error) {
	return s.MinCostExhaustiveCtx(context.Background(), req)
}

// MinCostExhaustiveCtx is MinCostExhaustive under a context; the subset
// enumeration aborts when ctx fails. The exponential solver is where a
// deadline matters most.
func (s *System) MinCostExhaustiveCtx(ctx context.Context, req MinCostRequest) (*Result, error) {
	return core.ExhaustiveMinCostCtx(ctx, s.view().idx, req)
}

// MaxHitExhaustive runs the optimal Max-Hit solver for tiny inputs.
func (s *System) MaxHitExhaustive(req MaxHitRequest) (*Result, error) {
	return s.MaxHitExhaustiveCtx(context.Background(), req)
}

// MaxHitExhaustiveCtx is MaxHitExhaustive under a context; cancellation
// semantics match MinCostExhaustiveCtx.
func (s *System) MaxHitExhaustiveCtx(ctx context.Context, req MaxHitRequest) (*Result, error) {
	return core.ExhaustiveMaxHitCtx(ctx, s.view().idx, req)
}

// Hits returns H(p), the number of queries object target currently hits.
func (s *System) Hits(target int) (int, error) {
	return s.HitsCtx(context.Background(), target)
}

// HitsCtx is Hits under a context. It counts against the target's hit
// table on the current snapshot, whose build records a span when the context
// carries a trace; repeat counts against an unchanged epoch reuse the table.
func (s *System) HitsCtx(ctx context.Context, target int) (int, error) {
	return core.CountHits(ctx, s.view().idx, target, nil)
}

// Evaluate answers a plain top-k query against the dataset.
func (s *System) Evaluate(q Query) []int {
	res := s.view().w.Evaluate(q)
	return res.Ordered
}

// EvaluateCtx is Evaluate under a context. A single top-k evaluation is far
// cheaper than a solve, so the context is observed once at entry — enough
// for a server to shed queued work after its deadline passed. Unlike
// Evaluate, it validates q the way AddQuery does (dimension, finite point,
// k ≥ 1) and returns an error instead of panicking on malformed input.
func (s *System) EvaluateCtx(ctx context.Context, q Query) ([]int, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	w := s.view().w
	if err := w.CheckQuery(q); err != nil {
		return nil, err
	}
	return w.Evaluate(q).Ordered, nil
}

// EvaluateStrategy returns H(p+strategy) without committing anything — the
// "what would happen if" primitive (Eq. 6 against the target's hit table).
func (s *System) EvaluateStrategy(target int, strategy Vector) (int, error) {
	return s.EvaluateStrategyCtx(context.Background(), target, strategy)
}

// EvaluateStrategyCtx is EvaluateStrategy under a context, observed at entry
// and between the hit-table lookup and the hit count — the two non-trivial
// stages of a what-if evaluation.
func (s *System) EvaluateStrategyCtx(ctx context.Context, target int, strategy Vector) (int, error) {
	st := s.view()
	if err := checkStrategy(st.w, target, strategy); err != nil {
		return 0, err
	}
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	return core.CountHits(ctx, st.idx, target, strategy)
}

// checkStrategy validates a (target, strategy) pair against a workload so
// malformed API input surfaces as an error instead of a vector-arithmetic
// panic deep in the engine.
func checkStrategy(w *topk.Workload, target int, strategy Vector) error {
	if target < 0 || target >= w.NumObjects() {
		return fmt.Errorf("iq: target %d out of range", target)
	}
	if d := len(w.Attrs(target)); len(strategy) != d {
		return fmt.Errorf("iq: strategy has %d dimensions, want %d", len(strategy), d)
	}
	if !vec.AllFinite(strategy) {
		return fmt.Errorf("iq: strategy %v is not finite", strategy)
	}
	return nil
}

// Commit permanently applies a strategy to a target, publishing a new
// epoch with the updated dataset and index.
func (s *System) Commit(target int, strategy Vector) error {
	return s.CommitCtx(context.Background(), target, strategy)
}

// CommitCtx is Commit under a context; the index clone and update record
// spans when the context carries a trace.
func (s *System) CommitCtx(ctx context.Context, target int, strategy Vector) error {
	_, _, err := s.apply(ctx, Mutation{Commit: &CommitMutation{Target: target, Strategy: strategy}})
	return err
}

// CommitAndCount applies a strategy and returns the target's hit count in
// the newly published epoch, atomically with respect to other writers.
func (s *System) CommitAndCount(target int, strategy Vector) (int, error) {
	return s.CommitAndCountCtx(context.Background(), target, strategy)
}

// CommitAndCountCtx is CommitAndCount under a context; tracing semantics
// match CommitCtx. The count runs on the epoch the commit published, against
// the target's hit table derived from that epoch's rows.
func (s *System) CommitAndCountCtx(ctx context.Context, target int, strategy Vector) (int, error) {
	_, published, err := s.apply(ctx, Mutation{Commit: &CommitMutation{Target: target, Strategy: strategy}})
	if err != nil {
		return 0, err
	}
	// The commit is published: cancellation can no longer turn it into an
	// error, so the count keeps only the context's trace.
	return core.CountHits(context.WithoutCancel(ctx), published.idx, target, nil)
}

// AddObject inserts a new object and returns its index.
func (s *System) AddObject(attrs Vector) (int, error) {
	return s.AddObjectCtx(context.Background(), attrs)
}

// AddObjectCtx is AddObject under a context; tracing semantics match
// CommitCtx.
func (s *System) AddObjectCtx(ctx context.Context, attrs Vector) (int, error) {
	id, _, err := s.apply(ctx, Mutation{AddObject: &AddObjectMutation{Attrs: attrs}})
	return id, err
}

// RemoveObject tombstones an object.
func (s *System) RemoveObject(id int) error {
	return s.RemoveObjectCtx(context.Background(), id)
}

// RemoveObjectCtx is RemoveObject under a context; tracing semantics match
// CommitCtx.
func (s *System) RemoveObjectCtx(ctx context.Context, id int) error {
	_, _, err := s.apply(ctx, Mutation{RemoveObject: &RemoveObjectMutation{ID: id}})
	return err
}

// AddQuery inserts a new top-k query and returns its index.
func (s *System) AddQuery(q Query) (int, error) {
	return s.AddQueryCtx(context.Background(), q)
}

// AddQueryCtx is AddQuery under a context; tracing semantics match
// CommitCtx.
func (s *System) AddQueryCtx(ctx context.Context, q Query) (int, error) {
	j, _, err := s.apply(ctx, Mutation{AddQuery: &AddQueryMutation{Query: q}})
	return j, err
}

// RemoveQuery removes a query from the workload index.
func (s *System) RemoveQuery(j int) error {
	return s.RemoveQueryCtx(context.Background(), j)
}

// RemoveQueryCtx is RemoveQuery under a context; tracing semantics match
// CommitCtx.
func (s *System) RemoveQueryCtx(ctx context.Context, j int) error {
	_, _, err := s.apply(ctx, Mutation{RemoveQuery: &RemoveQueryMutation{Index: j}})
	return err
}

// Mutation is one write operation of a batch; exactly one field must be
// set. See ApplyBatch.
type Mutation struct {
	Commit       *CommitMutation
	AddObject    *AddObjectMutation
	RemoveObject *RemoveObjectMutation
	AddQuery     *AddQueryMutation
	RemoveQuery  *RemoveQueryMutation
}

// CommitMutation applies an improvement strategy to a target (Commit).
type CommitMutation struct {
	Target   int
	Strategy Vector
}

// AddObjectMutation inserts a new object (AddObject).
type AddObjectMutation struct {
	Attrs Vector
}

// RemoveObjectMutation tombstones an object (RemoveObject).
type RemoveObjectMutation struct {
	ID int
}

// AddQueryMutation inserts a new top-k query (AddQuery).
type AddQueryMutation struct {
	Query Query
}

// RemoveQueryMutation removes a query (RemoveQuery).
type RemoveQueryMutation struct {
	Index int
}

// MutationResult reports one batch operation's outcome: ID is the index
// assigned by AddObject/AddQuery mutations and -1 for the others.
type MutationResult struct {
	ID int
}

// ApplyBatch applies several mutations as one atomic write; see
// ApplyBatchCtx.
func (s *System) ApplyBatch(muts []Mutation) ([]MutationResult, error) {
	return s.ApplyBatchCtx(context.Background(), muts)
}

// ApplyBatchCtx applies N mutations to one workload/index clone and
// publishes it as one epoch. The batch is all-or-nothing: if any mutation
// fails — or the context is cancelled between mutations — the clone and
// every row it replaced are discarded together and the visible System is
// unchanged, with the failing operation's error returned. Readers never observe
// intermediate states. An empty batch publishes nothing.
func (s *System) ApplyBatchCtx(ctx context.Context, muts []Mutation) ([]MutationResult, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	results := make([]MutationResult, len(muts))
	err := s.mutateCtx(ctx, muts, func(st *state) error {
		for i, m := range muts {
			if err := core.MutationCheckpoint(ctx, i); err != nil {
				return err
			}
			id, err := applyMutation(ctx, st, m)
			if err != nil {
				return fmt.Errorf("iq: batch mutation %d: %w", i, err)
			}
			results[i] = MutationResult{ID: id}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// applyMutation dispatches one mutation against the private clone.
func applyMutation(ctx context.Context, st *state, m Mutation) (int, error) {
	if n := countMutationOps(m); n != 1 {
		return -1, fmt.Errorf("exactly one operation must be set, got %d", n)
	}
	switch {
	case m.Commit != nil:
		if err := checkStrategy(st.w, m.Commit.Target, m.Commit.Strategy); err != nil {
			return -1, err
		}
		attrs := vec.Add(st.w.Attrs(m.Commit.Target), m.Commit.Strategy)
		return -1, st.idx.UpdateObjectCtx(ctx, m.Commit.Target, attrs)
	case m.AddObject != nil:
		return st.idx.AddObjectCtx(ctx, m.AddObject.Attrs)
	case m.RemoveObject != nil:
		return -1, st.idx.RemoveObjectCtx(ctx, m.RemoveObject.ID)
	case m.AddQuery != nil:
		return st.idx.AddQueryCtx(ctx, m.AddQuery.Query)
	default:
		return -1, st.idx.RemoveQueryCtx(ctx, m.RemoveQuery.Index)
	}
}

// countMutationOps counts how many operation fields a Mutation sets; valid
// mutations set exactly one.
func countMutationOps(m Mutation) int {
	n := 0
	if m.Commit != nil {
		n++
	}
	if m.AddObject != nil {
		n++
	}
	if m.RemoveObject != nil {
		n++
	}
	if m.AddQuery != nil {
		n++
	}
	if m.RemoveQuery != nil {
		n++
	}
	return n
}

// NumObjects returns the dataset size (including tombstoned objects).
func (s *System) NumObjects() int { return s.view().w.NumObjects() }

// NumQueries returns the query workload size.
func (s *System) NumQueries() int { return s.view().w.NumQueries() }

// Attrs returns a copy of an object's current attributes.
func (s *System) Attrs(id int) Vector { return vec.Clone(s.view().w.Attrs(id)) }

// IndexStats reports the subdomain index footprint. Every call runs
// Algorithm 1 over the current snapshot to build the partition it measures,
// which no solve reads.
func (s *System) IndexStats() IndexStats { return s.view().idx.Stats() }

// Internal accessors for the benchmark harness and tools.

// Workload exposes the current epoch's workload. The returned structure is
// immutable — a later write to the System publishes a new workload rather
// than mutating this one — so pointer equality across two calls means no
// write intervened.
func (s *System) Workload() *topk.Workload { return s.view().w }

// Index exposes the current epoch's subdomain index (immutable, like
// Workload). Callers needing a consistent workload/index pair should use
// Index().Workload() rather than two separate System calls.
func (s *System) Index() *subdomain.Index { return s.view().idx }
