package iq

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"iq/internal/fsatomic"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// Persistence: Save serialises a System's workload (objects, queries,
// tombstones, and the embedding space description) with encoding/gob; Load
// restores it and rebuilds the subdomain index. Index structures are
// rebuilt rather than stored — construction is fast relative to I/O and the
// rebuild guarantees the grouping invariant against format drift.
//
// Query indices are stable across a Save/Load cycle, exactly like object
// indices: every query slot is serialised, with removals preserved as
// tombstones (QueryRemoved) and re-applied on Load. Version 1 snapshots
// compacted removed queries away and shifted the survivors' indices —
// callers holding pre-save indices silently queried the wrong slot after a
// reload. Version 2 fixes that; version 1 snapshots still load (their
// surviving queries keep the compacted positions the old format stored).
// Version 3 additionally records the epoch, so a restored System resumes
// counting writes where the saved one stopped — the property the WAL's
// exact-epoch recovery is built on. Versions 1–2 load with epoch 0.
//
// Load is hardened against hostile or damaged input: the decoder reads at
// most MaxSnapshotBytes, decode panics surface as errors, and the decoded
// structure is validated (parallel slices must agree in length, dimensions
// must be consistent) before anything is built. Garbage bytes, truncated
// streams, and absurd declared lengths all return errors — no panic, no
// unbounded allocation.
//
// Load never reuses cache state: the rebuilt index is a fresh identity, so
// it stores no hit table until its first solve, and its rows are scanned
// from the rebuilt band.

// spaceSpec is the serialisable description of an embedding space.
type spaceSpec struct {
	Kind      string // "linear" | "expr" | "hetero"
	Dim       int
	Utility   string
	AttrNames []string
	Children  []spaceSpec
}

func specOf(s Space) (spaceSpec, error) {
	switch t := s.(type) {
	case LinearSpace:
		return spaceSpec{Kind: "linear", Dim: t.D}, nil
	case *topk.ExprSpace:
		return spaceSpec{Kind: "expr", Utility: t.Source(), AttrNames: t.AttrNames()}, nil
	case *topk.HeterogeneousSpace:
		spec := spaceSpec{Kind: "hetero"}
		for i := 0; i < t.Families(); i++ {
			child, err := specOf(t.Family(i))
			if err != nil {
				return spaceSpec{}, err
			}
			spec.Children = append(spec.Children, child)
		}
		return spec, nil
	default:
		return spaceSpec{}, fmt.Errorf("iq: space %T is not serialisable", s)
	}
}

func (s spaceSpec) build() (Space, error) {
	switch s.Kind {
	case "linear":
		return LinearSpace{D: s.Dim}, nil
	case "expr":
		// The utility is parsed again, so it meets expr.Parse's cap on
		// nodes and open groups like any new one.
		sp, err := topk.NewExprSpace(s.Utility, s.AttrNames)
		if err != nil {
			return nil, fmt.Errorf("iq: snapshot utility: %w", err)
		}
		return sp, nil
	case "hetero":
		children := make([]Space, len(s.Children))
		for i, c := range s.Children {
			child, err := c.build()
			if err != nil {
				return nil, err
			}
			children[i] = child
		}
		return topk.NewHeterogeneousSpace(children...)
	default:
		return nil, fmt.Errorf("iq: unknown space kind %q", s.Kind)
	}
}

// snapshot is the on-disk format. QueryRemoved is parallel to the query
// slices in version ≥ 2; in version 1 it is absent (removed queries were
// compacted out at save time instead). Epoch is present in version ≥ 3.
type snapshot struct {
	Version      int
	Epoch        uint64
	Space        spaceSpec
	Objects      []vec.Vector
	Removed      []bool
	QueryID      []int
	QueryK       []int
	QueryPt      []vec.Vector
	QueryRemoved []bool
	Options      IndexOptions
}

const snapshotVersion = 3

// MaxSnapshotBytes caps how much Load reads before giving up: a snapshot
// declaring (or simply being) more than this is rejected rather than
// swallowing unbounded memory. Generous next to any realistic workload —
// the benchmark datasets serialise to well under a megabyte.
const MaxSnapshotBytes = 1 << 30

// Save writes the System to w. The subdomain index is rebuilt on Load.
// The snapshot is taken from a single epoch: a concurrent commit either
// lands entirely before or entirely after the saved state.
func (s *System) Save(w io.Writer) error {
	return saveState(s.view(), w)
}

// saveState serialises one pinned epoch. The checkpoint writer uses it
// directly so the snapshot and its epoch can never disagree.
func saveState(st *state, w io.Writer) error {
	spec, err := specOf(st.w.Space())
	if err != nil {
		return err
	}
	snap := snapshot{Version: snapshotVersion, Epoch: st.epoch, Space: spec, Options: st.opts}
	n := st.w.NumObjects()
	snap.Objects = make([]vec.Vector, n)
	snap.Removed = make([]bool, n)
	for i := 0; i < n; i++ {
		snap.Objects[i] = st.w.Attrs(i)
		snap.Removed[i] = st.w.IsRemoved(i)
	}
	m := st.w.NumQueries()
	snap.QueryID = make([]int, m)
	snap.QueryK = make([]int, m)
	snap.QueryPt = make([]vec.Vector, m)
	snap.QueryRemoved = make([]bool, m)
	for j := 0; j < m; j++ {
		q := st.w.Query(j)
		snap.QueryID[j] = q.ID
		snap.QueryK[j] = q.K
		snap.QueryPt[j] = q.Point
		snap.QueryRemoved[j] = st.w.IsQueryRemoved(j)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// SaveFile writes the System to path atomically: the snapshot is written to
// a temporary file in the same directory, fsynced, and renamed over path,
// and the directory entry is fsynced too. A crash mid-save therefore leaves
// either the old complete file or the new complete file — never a
// half-written snapshot that could later masquerade as the newest
// checkpoint.
func (s *System) SaveFile(path string) error {
	st := s.view()
	return writeFileAtomic(path, func(w io.Writer) error { return saveState(st, w) })
}

// writeFileAtomic is the tmp + fsync + rename + dir-fsync dance shared by
// SaveFile and the checkpoint writer; the implementation lives in
// internal/fsatomic.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	return fsatomic.WriteFile(path, write)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error { return fsatomic.SyncDir(dir) }

// ErrCorruptSnapshot tags Load/LoadFile failures whose cause is provably
// invalid snapshot content — garbage bytes, truncation, failed validation —
// as opposed to an I/O fault reading it. Recovery leans on the distinction:
// a corrupt checkpoint is safely skipped in favour of an older generation,
// while a transient read error (EIO, permissions) must abort recovery — the
// bytes on disk may be perfectly good, and falling back would prune the
// newest generation's acknowledged history over a passing fault.
var ErrCorruptSnapshot = errors.New("iq: corrupt snapshot")

// cappedReader poisons reads past the byte cap with a descriptive error, so
// a snapshot (or attack payload) declaring absurd lengths fails cleanly
// instead of allocating without bound. It also latches the first real error
// the underlying reader returns, so Load can tell a failed read (I/O fault)
// apart from bytes that read fine but decode as garbage (corruption).
type cappedReader struct {
	r     io.Reader
	left  int64
	ioErr error // first non-EOF error from the underlying reader
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, fmt.Errorf("iq: snapshot exceeds %d bytes", int64(MaxSnapshotBytes))
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	if err != nil && err != io.EOF && c.ioErr == nil {
		c.ioErr = err
	}
	return n, err
}

// decodeSnapshot reads and validates the on-disk structure without building
// anything from it. Structural hostile-input defence lives here; Load adds
// the byte cap and the corruption-vs-I/O classification.
func decodeSnapshot(r io.Reader) (snap snapshot, err error) {
	// encoding/gob validates declared lengths against the input it has, but a
	// decode panic on adversarial bytes must still surface as an error, not
	// take the process down.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("iq: decoding snapshot: panic: %v", p)
		}
	}()
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("iq: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return snapshot{}, fmt.Errorf("iq: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.Removed) != len(snap.Objects) {
		return snapshot{}, fmt.Errorf("iq: corrupt snapshot: %d objects but %d removal flags",
			len(snap.Objects), len(snap.Removed))
	}
	m := len(snap.QueryID)
	if len(snap.QueryK) != m || len(snap.QueryPt) != m {
		return snapshot{}, fmt.Errorf("iq: corrupt snapshot: query slices disagree (%d ids, %d ks, %d points)",
			m, len(snap.QueryK), len(snap.QueryPt))
	}
	if snap.QueryRemoved != nil && len(snap.QueryRemoved) != m {
		return snapshot{}, fmt.Errorf("iq: corrupt snapshot: %d queries but %d query tombstones",
			m, len(snap.QueryRemoved))
	}
	if len(snap.Objects) > 0 {
		d := len(snap.Objects[0])
		for i, o := range snap.Objects {
			if len(o) != d {
				return snapshot{}, fmt.Errorf("iq: corrupt snapshot: object %d has %d attributes, want %d",
					i, len(o), d)
			}
		}
	}
	return snap, nil
}

// Load reads a snapshot written by Save and rebuilds the System (including
// its subdomain index). The restored System resumes at the saved epoch
// (version ≥ 3; older snapshots restore to epoch 0). When ctx carries a
// Trace, the index rebuild records an "index/build" span into it.
//
// Failures are classified: if the underlying reader itself errored, that
// I/O error is returned as-is; everything else — bytes that decode as
// garbage, validation failures, unbuildable content — wraps
// ErrCorruptSnapshot, marking the input provably invalid.
func Load(ctx context.Context, r io.Reader) (*System, error) {
	cr := &cappedReader{r: r, left: MaxSnapshotBytes}
	snap, err := decodeSnapshot(cr)
	if err != nil {
		if cr.ioErr != nil {
			return nil, fmt.Errorf("iq: reading snapshot: %w", cr.ioErr)
		}
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	sys, err := buildFromSnapshot(ctx, snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	return sys, nil
}

// LoadFile is Load against a file path, pairing with SaveFile.
func LoadFile(ctx context.Context, path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := Load(ctx, f)
	if err != nil {
		return nil, fmt.Errorf("iq: loading %s: %w", path, err)
	}
	return sys, nil
}

func buildFromSnapshot(ctx context.Context, snap snapshot) (*System, error) {
	space, err := snap.Space.build()
	if err != nil {
		return nil, err
	}
	queries := make([]Query, len(snap.QueryID))
	for i := range queries {
		queries[i] = Query{ID: snap.QueryID[i], K: snap.QueryK[i], Point: snap.QueryPt[i]}
	}
	w, err := topk.NewWorkload(space, snap.Objects, queries)
	if err != nil {
		return nil, err
	}
	for i, removed := range snap.Removed {
		if removed {
			w.RemoveObject(i)
		}
	}
	idx, err := subdomain.BuildCtx(ctx, w, snap.Options)
	if err != nil {
		return nil, err
	}
	// Version ≥ 2 carries query tombstones: the index is built over every
	// query slot (keeping indices stable) and removals are re-applied here,
	// mirroring the runtime RemoveQueryCtx path.
	for j, removed := range snap.QueryRemoved {
		if removed {
			if err := idx.RemoveQueryCtx(ctx, j); err != nil {
				return nil, fmt.Errorf("iq: replaying query tombstone %d: %w", j, err)
			}
		}
	}
	s := newSystem(w, idx, snap.Options)
	s.cur.Load().epoch = snap.Epoch
	return s, nil
}
