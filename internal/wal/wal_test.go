package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testOpts() Options {
	return Options{Policy: SyncOff}
}

func mustCreate(t *testing.T, dir string, gen uint64) *Log {
	t.Helper()
	l, err := Create(dir, gen, testOpts())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l
}

func rec(epoch uint64, body string) Record {
	return Record{Epoch: epoch, Kind: KindMutation, Body: []byte(body)}
}

func batch(epoch uint64, bodies ...string) []Record {
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(bodies)))
	recs := []Record{{Epoch: epoch, Kind: KindBegin, Body: count[:]}}
	for _, b := range bodies {
		recs = append(recs, rec(epoch, b))
	}
	return append(recs, Record{Epoch: epoch, Kind: KindEnd})
}

func replayAll(t *testing.T, dir string, gen, after uint64) ([]Txn, ReplayStats) {
	t.Helper()
	var txns []Txn
	stats, err := Replay(dir, gen, after, testOpts(), func(tx Txn) error {
		cp := Txn{Epoch: tx.Epoch, Batch: tx.Batch}
		for _, m := range tx.Mutations {
			cp.Mutations = append(cp.Mutations, append([]byte(nil), m...))
		}
		txns = append(txns, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return txns, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	if err := l.Append([]Record{rec(1, "alpha")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batch(2, "beta", "gamma")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(3, "delta")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 3 {
		t.Fatalf("got %d txns, want 3", len(txns))
	}
	if txns[0].Epoch != 1 || string(txns[0].Mutations[0]) != "alpha" || txns[0].Batch {
		t.Fatalf("txn 0 = %+v", txns[0])
	}
	if !txns[1].Batch || len(txns[1].Mutations) != 2 || string(txns[1].Mutations[1]) != "gamma" {
		t.Fatalf("txn 1 = %+v", txns[1])
	}
	if stats.Txns != 3 || stats.TruncatedRecords != 0 || stats.RolledBackTxns != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestReplaySkipsCheckpointedEpochs(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	for e := uint64(1); e <= 5; e++ {
		if err := l.Append([]Record{rec(e, fmt.Sprintf("e%d", e))}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	txns, stats := replayAll(t, dir, 1, 3)
	if len(txns) != 2 || txns[0].Epoch != 4 || txns[1].Epoch != 5 {
		t.Fatalf("txns = %+v", txns)
	}
	if stats.SkippedTxns != 3 {
		t.Fatalf("skipped = %d, want 3", stats.SkippedTxns)
	}
}

func TestReplayDetectsEpochGap(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	l.Append([]Record{rec(3, "c")}) // gap: epoch 2 missing
	l.Close()
	_, err := Replay(dir, 1, 0, testOpts(), func(Txn) error { return nil })
	if err == nil {
		t.Fatal("want epoch-gap error, got nil")
	}
}

func TestRotationSpansReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := l.ActiveSegment(); got != 1 {
		t.Fatalf("active segment = %d, want 1", got)
	}
	l.Append([]Record{rec(2, "b")})
	l.Close()

	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 2 || stats.Segments != 2 {
		t.Fatalf("txns=%d segments=%d", len(txns), stats.Segments)
	}

	// Pruning the retired segment and replaying past the checkpoint works.
	if err := RemoveSegmentsBelow(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	txns, _ = replayAll(t, dir, 1, 1)
	if len(txns) != 1 || txns[0].Epoch != 2 {
		t.Fatalf("post-prune txns = %+v", txns)
	}
}

func TestOpenForAppendResumes(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	l.Close()

	l2, err := OpenForAppend(dir, 1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(2, "b")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	txns, _ := replayAll(t, dir, 1, 0)
	if len(txns) != 2 || txns[1].Epoch != 2 {
		t.Fatalf("txns = %+v", txns)
	}
}

// corrupt opens the single live segment and applies fn to its bytes.
func corruptTail(t *testing.T, dir string, gen uint64, fn func(data []byte) []byte) string {
	t.Helper()
	segs, err := ListSegments(dir, gen)
	if err != nil || len(segs) == 0 {
		t.Fatalf("ListSegments: %v (%d segs)", err, len(segs))
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.Path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return last.Path
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "keep-me")})
	l.Append([]Record{rec(2, "torn-record")})
	l.Close()

	// Cut the last record in half: mid-payload truncation.
	corruptTail(t, dir, 1, func(data []byte) []byte { return data[:len(data)-5] })

	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || string(txns[0].Mutations[0]) != "keep-me" {
		t.Fatalf("txns = %+v", txns)
	}
	if stats.TruncatedRecords == 0 || stats.TruncatedBytes == 0 {
		t.Fatalf("truncation not counted: %+v", stats)
	}
	// The file was physically truncated: a verify now passes and appends resume.
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify after truncation: %v", err)
	}
	l2, err := OpenForAppend(dir, 1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(2, "replacement")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	txns, _ = replayAll(t, dir, 1, 0)
	if len(txns) != 2 || string(txns[1].Mutations[0]) != "replacement" {
		t.Fatalf("resumed txns = %+v", txns)
	}
}

func TestBitFlippedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "good")})
	l.Append([]Record{rec(2, "flipped")})
	l.Close()

	corruptTail(t, dir, 1, func(data []byte) []byte {
		data[len(data)-2] ^= 0x40 // flip a payload bit of the last record
		return data
	})
	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || txns[0].Epoch != 1 {
		t.Fatalf("txns = %+v", txns)
	}
	if stats.TruncatedRecords == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestMidTxnTailRolledBack(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "single")})
	// A batch missing its End marker: write Begin + mutations only.
	recs := batch(2, "b1", "b2")
	if err := l.Append(recs[:len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	l.Close()

	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || txns[0].Epoch != 1 {
		t.Fatalf("txns = %+v", txns)
	}
	if stats.RolledBackTxns != 1 {
		t.Fatalf("rolled back = %d, want 1", stats.RolledBackTxns)
	}
	// The rollback physically removed the batch: the next append reuses epoch 2.
	l2, err := OpenForAppend(dir, 1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(2, "retry")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	txns, _ = replayAll(t, dir, 1, 0)
	if len(txns) != 2 || txns[1].Epoch != 2 || string(txns[1].Mutations[0]) != "retry" {
		t.Fatalf("after retry: %+v", txns)
	}
}

func TestCorruptionInNonFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	l.Rotate()
	l.Append([]Record{rec(2, "b")})
	l.Close()

	// Damage segment 0 (non-final).
	segs, _ := ListSegments(dir, 1)
	data, _ := os.ReadFile(segs[0].Path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(segs[0].Path, data, 0o644)

	_, err := Replay(dir, 1, 0, testOpts(), func(Txn) error { return nil })
	var c *Corruption
	if !errors.As(err, &c) {
		t.Fatalf("want *Corruption, got %v", err)
	}
	if err := Verify(dir); err == nil {
		t.Fatal("Verify should fail on non-final corruption")
	}
}

func TestVerifyCleanAndDirty(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "x")})
	l.Append(batch(2, "y", "z"))
	l.Close()
	if err := Verify(dir); err != nil {
		t.Fatalf("clean Verify: %v", err)
	}
	corruptTail(t, dir, 1, func(data []byte) []byte { return data[:len(data)-3] })
	if err := Verify(dir); err == nil {
		t.Fatal("Verify should report a torn tail")
	}
}

func TestDumpListsRecordsAndCorruption(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "one")})
	l.Append([]Record{rec(2, "two")})
	l.Close()
	corruptTail(t, dir, 1, func(data []byte) []byte { return append(data, 0xde, 0xad) })

	var lines []DumpRecord
	var bad int
	err := Dump(dir, func(r ScanRecord) string { return string(r.Body) }, func(d DumpRecord) {
		lines = append(lines, d)
	}, func(SegmentRef, *Corruption) { bad++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0].Detail != "one" || lines[1].Detail != "two" {
		t.Fatalf("lines = %+v", lines)
	}
	if bad != 1 {
		t.Fatalf("bad segments = %d, want 1", bad)
	}
}

// TestSyncAlwaysAndIntervalPolicies checks both durable policies replay
// every append, and pins their fsync counts: SyncAlways pays at least one
// fsync per sequential append, while SyncInterval keeps fsyncs off the
// append path entirely (its ticker period here outlasts the test).
func TestSyncAlwaysAndIntervalPolicies(t *testing.T) {
	for _, pol := range []Policy{SyncAlways, SyncInterval} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, 1, Options{Policy: pol, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(1); e <= 10; e++ {
				before := mFsyncs.Value()
				if err := l.Append([]Record{rec(e, "p")}); err != nil {
					t.Fatal(err)
				}
				added := mFsyncs.Value() - before
				if pol == SyncAlways && added < 1 {
					t.Fatalf("append %d under %s added %d fsyncs, want >= 1", e, pol, added)
				}
				if pol == SyncInterval && added != 0 {
					t.Fatalf("append %d under %s added %d fsyncs, want 0", e, pol, added)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			l.Close()
			txns, _ := replayAll(t, dir, 1, 0)
			if len(txns) != 10 {
				t.Fatalf("got %d txns, want 10", len(txns))
			}
		})
	}
}

func TestAbortLeavesWrittenBytes(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "written")})
	l.Abort() // no fsync — models kill -9; page-cache bytes survive
	txns, _ := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || string(txns[0].Mutations[0]) != "written" {
		t.Fatalf("txns = %+v", txns)
	}
}

func TestCrashHookTearsRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "fine")})

	restore := SetCrashHook(func(point string) error {
		if point == "append:torn" {
			return ErrInjectedCrash
		}
		return nil
	})
	err := l.Append([]Record{rec(2, "never-lands")})
	restore()
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("append error = %v", err)
	}
	l.Abort()

	// The torn frame header must be truncated away; epoch 1 survives.
	txns, stats := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || txns[0].Epoch != 1 {
		t.Fatalf("txns = %+v", txns)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("torn header not truncated: %+v", stats)
	}
}

func TestGenerationManagement(t *testing.T) {
	dir := t.TempDir()
	l1 := mustCreate(t, dir, 1)
	l1.Append([]Record{rec(1, "g1")})
	l1.Close()
	l2 := mustCreate(t, dir, 2)
	l2.Append([]Record{rec(1, "g2")})
	l2.Close()

	gens, err := Generations(dir)
	if err != nil || len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
		t.Fatalf("gens = %v (%v)", gens, err)
	}
	if err := RemoveGeneration(dir, 1); err != nil {
		t.Fatal(err)
	}
	gens, _ = Generations(dir)
	if len(gens) != 1 || gens[0] != 2 {
		t.Fatalf("gens after removal = %v", gens)
	}
	txns, _ := replayAll(t, dir, 2, 0)
	if len(txns) != 1 || string(txns[0].Mutations[0]) != "g2" {
		t.Fatalf("g2 txns = %+v", txns)
	}
}

func TestSegmentHeaderMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "x")})
	l.Close()
	// Rename the segment so its embedded header disagrees with the file name.
	segs, _ := ListSegments(dir, 1)
	os.Rename(segs[0].Path, filepath.Join(dir, SegmentName(1, 7)))
	refs, _ := ListSegments(dir, 1)
	_, corrupt, err := ReadSegment(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	if corrupt == nil {
		t.Fatal("header/name mismatch not detected")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

// TestRecoveryAfterRotationCrashIsRepeatable reproduces a crash during
// rotation that leaves a segment shorter than its header. The first recovery
// truncates it and, when resuming appends, must REMOVE it: left behind as a
// zero-byte file it is no longer the final segment once the next one exists,
// and a second recovery would refuse the whole log as mid-log corruption.
func TestRecoveryAfterRotationCrashIsRepeatable(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	l.Abort()
	// A crash between a rotation's O_EXCL create and its header write leaves
	// the next segment sub-header.
	short := filepath.Join(dir, SegmentName(1, 1))
	if err := os.WriteFile(short, segMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}

	// First recovery cycle: replay truncates the torn header, OpenForAppend
	// sweeps the leftover and resumes on the next sequence.
	txns, _ := replayAll(t, dir, 1, 0)
	if len(txns) != 1 {
		t.Fatalf("first recovery: %d txns, want 1", len(txns))
	}
	l2, err := OpenForAppend(dir, 1, testOpts())
	if err != nil {
		t.Fatalf("first OpenForAppend: %v", err)
	}
	if err := l2.Append([]Record{rec(2, "b")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, err := os.Stat(short); !os.IsNotExist(err) {
		t.Fatalf("headerless segment still present after resume: %v", err)
	}

	// Second recovery cycle must see a clean log; before the fix the
	// zero-byte leftover made Replay fail here, permanently.
	txns, _ = replayAll(t, dir, 1, 0)
	if len(txns) != 2 || txns[1].Epoch != 2 {
		t.Fatalf("second recovery: txns = %+v", txns)
	}
	l3, err := OpenForAppend(dir, 1, testOpts())
	if err != nil {
		t.Fatalf("second OpenForAppend: %v", err)
	}
	l3.Close()
}

// TestReplayRemovesEmptyNonFinalSegment: a zero-byte segment below the tail
// (the artifact a pre-fix recovery could leave) is swept away, not treated
// as fatal corruption — but a NON-empty headerless mid-log segment stays
// fatal.
func TestReplayRemovesEmptyNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustCreate(t, dir, 1)
	l.Append([]Record{rec(1, "a")})
	l.Close()
	empty := filepath.Join(dir, SegmentName(1, 1))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Hand-build a valid record-less successor so the empty file is not final.
	var hdr [headerLen]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	binary.LittleEndian.PutUint64(hdr[16:24], 2)
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1, 2)), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}

	txns, _ := replayAll(t, dir, 1, 0)
	if len(txns) != 1 || txns[0].Epoch != 1 {
		t.Fatalf("txns = %+v", txns)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("empty segment still present: %v", err)
	}
	if err := os.WriteFile(empty, segMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 1, 0, testOpts(), func(Txn) error { return nil }); err == nil {
		t.Fatal("non-empty headerless mid-log segment must stay fatal")
	}
}
