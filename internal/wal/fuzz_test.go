package wal

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSegment writes the fuzzed bytes as generation 1's only segment and
// requires ReadSegment, Verify and Replay to read it without panicking and
// to agree on whether it is damaged:
//
//   - ReadSegment's records tile the segment from its header up to the
//     damage it reports, or to EOF when it reports none;
//   - Verify reports exactly ReadSegment's damage, and on an undamaged
//     segment only record-level faults;
//   - Replay truncates a damaged segment to at most the damage's offset
//     (earlier when the damage cuts a transaction short), and an undamaged
//     one only to roll back a transaction missing its end marker; a refused
//     replay names a record and leaves the file as it was;
//   - after an accepted replay the segment reads clean (or is empty, when
//     its header was the damage), and a second replay cuts nothing.
//
// Seeds in testdata/fuzz/FuzzReadSegment: a valid segment holding a
// standalone mutation and a two-mutation batch, the same with a torn tail,
// with a flipped CRC bit, and with a bad segment header.
func FuzzReadSegment(f *testing.F) {
	opts := Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ref := SegmentRef{Path: filepath.Join(dir, SegmentName(1, 0)), Gen: 1, Seq: 0}
		if err := os.WriteFile(ref.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, corrupt, err := ReadSegment(ref)
		if err != nil {
			t.Fatal(err)
		}
		end := int64(headerLen)
		offsets := map[int64]bool{}
		for _, r := range recs {
			if r.Offset != end {
				t.Fatalf("record at offset %d, want %d", r.Offset, end)
			}
			offsets[r.Offset] = true
			end += int64(r.Len)
		}
		switch {
		case corrupt == nil && end != int64(len(data)):
			t.Fatalf("clean segment of %d bytes parsed to offset %d", len(data), end)
		case corrupt != nil && corrupt.Offset != end && !(corrupt.Offset == 0 && len(recs) == 0):
			t.Fatalf("damage %v after records ending at %d", corrupt, end)
		}

		var vc *Corruption
		verr := Verify(dir)
		if corrupt != nil {
			if !errors.As(verr, &vc) || vc.Offset != corrupt.Offset || vc.Reason != corrupt.Reason {
				t.Fatalf("ReadSegment found %v, Verify reported %v", corrupt, verr)
			}
		} else if errors.As(verr, &vc) && !offsets[vc.Offset] {
			t.Fatalf("Verify reported %v in a segment ReadSegment parsed whole", verr)
		}

		stats, rerr := Replay(dir, 1, 0, opts, func(Txn) error { return nil })
		size := fileSize(t, ref.Path)
		if rerr != nil {
			var rc *Corruption
			if errors.As(rerr, &rc) && !offsets[rc.Offset] {
				t.Fatalf("Replay refused the segment at a non-record offset: %v", rerr)
			}
			if size != int64(len(data)) {
				t.Fatalf("refused replay (%v) resized the segment from %d to %d bytes", rerr, len(data), size)
			}
			return
		}
		if size != int64(len(data))-stats.TruncatedBytes {
			t.Fatalf("segment is %d bytes, want %d less %d truncated", size, len(data), stats.TruncatedBytes)
		}
		if corrupt != nil && (size > corrupt.Offset || stats.TruncatedRecords == 0) {
			t.Fatalf("damage at %d: replay left %d bytes, %+v", corrupt.Offset, size, stats)
		}
		if corrupt == nil && stats.TruncatedBytes > 0 && stats.RolledBackTxns != 1 {
			t.Fatalf("replay cut an undamaged segment without a rollback: %+v", stats)
		}
		if size > 0 {
			if _, again, err := ReadSegment(ref); err != nil || again != nil {
				t.Fatalf("segment after replay: damage %v, error %v", again, err)
			}
		}
		stats2, err := Replay(dir, 1, 0, opts, func(Txn) error { return nil })
		if err != nil || stats2.TruncatedBytes != 0 || stats2.RolledBackTxns != 0 || stats2.Txns != stats.Txns {
			t.Fatalf("second replay: %+v, %v; first %+v", stats2, err, stats)
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
