package db

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
)

// collectRecords reopens the WAL in dir and returns every replayed
// record.
func collectRecords(t *testing.T, dir string, opts WALOptions) ([]Record, *WAL) {
	t.Helper()
	var recs []Record
	w, err := OpenWAL(dir, opts, func(typ byte, payload []byte) error {
		recs = append(recs, Record{Type: typ, Payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	return recs, w
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	want := []Record{
		{Type: 1, Payload: []byte("alpha")},
		{Type: 2, Payload: nil},
		{Type: 3, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := w.Append(r.Type, r.Payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, w2 := collectRecords(t, dir, WALOptions{NoSync: true})
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d mismatch: got (%d, %x)", i, got[i].Type, got[i].Payload)
		}
	}
	if w2.Recovered() != nil {
		t.Errorf("clean log reported recovery %+v", w2.Recovered())
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	payload := bytes.Repeat([]byte{7}, 64)
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append(1, payload); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if w.Segments() < 2 {
		t.Fatalf("expected rotation, still %d segment(s)", w.Segments())
	}
	w.Close()
	got, w2 := collectRecords(t, dir, WALOptions{NoSync: true, SegmentBytes: 256})
	defer w2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
}

// TestWALTornTailEveryByteBoundary is the satellite regression test: a
// log truncated mid-record at EVERY byte boundary of the final record
// must reopen successfully, keep the intact prefix, and report a
// recovery — a torn tail is an interrupted write, not corruption.
func TestWALTornTailEveryByteBoundary(t *testing.T) {
	build := func(dir string) (prefixLen int64, recs []Record) {
		w, err := OpenWAL(dir, WALOptions{NoSync: true}, nil)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		recs = []Record{
			{Type: 1, Payload: []byte("first record")},
			{Type: 2, Payload: []byte("second record")},
		}
		for _, r := range recs {
			if err := w.Append(r.Type, r.Payload); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		prefixLen = w.SizeBytes()
		last := Record{Type: 3, Payload: []byte("the final, torn record")}
		if err := w.Append(last.Type, last.Payload); err != nil {
			t.Fatalf("Append final: %v", err)
		}
		w.Close()
		return prefixLen, recs
	}

	probe := t.TempDir()
	prefixLen, _ := build(probe)
	full, err := os.ReadFile(filepath.Join(probe, segName(1)))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}

	for cut := prefixLen + 1; cut < int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if _, want := build(dir); true {
				path := filepath.Join(dir, segName(1))
				if err := os.Truncate(path, cut); err != nil {
					t.Fatalf("truncate: %v", err)
				}
				got, w := collectRecords(t, dir, WALOptions{NoSync: true})
				defer w.Close()
				if len(got) != len(want) {
					t.Fatalf("cut at %d: replayed %d records, want the %d intact ones", cut, len(got), len(want))
				}
				for i := range want {
					if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
						t.Errorf("cut at %d: prefix record %d damaged", cut, i)
					}
				}
				rec := w.Recovered()
				if rec == nil {
					t.Fatalf("cut at %d: no recovery reported", cut)
				}
				if rec.DroppedBytes != cut-prefixLen {
					t.Errorf("cut at %d: dropped %d bytes, want %d", cut, rec.DroppedBytes, cut-prefixLen)
				}
				// The truncated log must accept new appends and replay
				// prefix+new cleanly.
				if err := w.Append(9, []byte("after recovery")); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				w.Close()
				again, w2 := collectRecords(t, dir, WALOptions{NoSync: true})
				defer w2.Close()
				if len(again) != len(want)+1 || again[len(again)-1].Type != 9 {
					t.Errorf("cut at %d: post-recovery log replayed %d records", cut, len(again))
				}
			}
		})
	}
}

// TestWALMidFileCorruptionFatal is the other half of the classification:
// damage to a record that has valid records after it — or any damage in
// a sealed segment — must fail the open with auerr.ErrCorruptStore, not
// silently drop data.
func TestWALMidFileCorruptionFatal(t *testing.T) {
	newLog := func(t *testing.T, segBytes int64) string {
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: segBytes}, nil)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		for i := 0; i < 8; i++ {
			if err := w.Append(1, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		w.Close()
		return dir
	}

	t.Run("flip byte in early record body", func(t *testing.T) {
		dir := newLog(t, 0)
		path := filepath.Join(dir, segName(1))
		data, _ := os.ReadFile(path)
		data[segHeaderSize+frameSize+10] ^= 0xFF
		os.WriteFile(path, data, 0o644)
		_, err := OpenWAL(dir, WALOptions{NoSync: true}, nil)
		if err == nil {
			t.Fatal("open accepted mid-file corruption")
		}
		if !errors.Is(err, auerr.ErrCorruptStore) {
			t.Errorf("error %v does not wrap auerr.ErrCorruptStore", err)
		}
	})

	t.Run("flip byte in sealed segment tail", func(t *testing.T) {
		dir := newLog(t, 300) // forces several sealed segments
		idxs, _ := listSegments(dir)
		if len(idxs) < 2 {
			t.Fatalf("expected rotation, got %d segments", len(idxs))
		}
		path := filepath.Join(dir, segName(idxs[0]))
		data, _ := os.ReadFile(path)
		// Damage the LAST record of a sealed segment: even a tail
		// position is fatal once the segment has a successor.
		data[len(data)-3] ^= 0xFF
		os.WriteFile(path, data, 0o644)
		_, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: 300}, nil)
		if err == nil {
			t.Fatal("open accepted corruption in sealed segment")
		}
		if !errors.Is(err, auerr.ErrCorruptStore) {
			t.Errorf("error %v does not wrap auerr.ErrCorruptStore", err)
		}
	})

	t.Run("bad segment magic", func(t *testing.T) {
		dir := newLog(t, 0)
		path := filepath.Join(dir, segName(1))
		data, _ := os.ReadFile(path)
		data[0] ^= 0xFF
		os.WriteFile(path, data, 0o644)
		_, err := OpenWAL(dir, WALOptions{NoSync: true}, nil)
		if !errors.Is(err, auerr.ErrCorruptStore) {
			t.Errorf("bad magic: error %v does not wrap auerr.ErrCorruptStore", err)
		}
	})
}

func TestWALCompactSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true, SegmentBytes: 512}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(1, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	preSegs := w.Segments()
	if preSegs < 2 {
		t.Fatalf("expected multiple segments before compaction, got %d", preSegs)
	}
	if err := w.Compact([]Record{{Type: 42, Payload: []byte("snapshot")}}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if w.Segments() != 1 {
		t.Errorf("post-compaction segments = %d, want 1", w.Segments())
	}
	// Tail records append behind the snapshot.
	if err := w.Append(7, []byte("tail")); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	w.Close()
	got, w2 := collectRecords(t, dir, WALOptions{NoSync: true})
	defer w2.Close()
	if len(got) != 2 || got[0].Type != 42 || got[1].Type != 7 {
		t.Fatalf("replay after compaction: %+v", got)
	}
}

func TestWALStickyWriteError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if err := w.Append(1, []byte("ok")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.f.Close() // simulate the descriptor dying under the WAL
	if err := w.Append(1, []byte("fails")); err == nil {
		t.Fatal("Append on closed file succeeded")
	}
	if err := w.Err(); err == nil {
		t.Fatal("sticky error not recorded")
	}
	if err := w.Append(1, []byte("still fails")); err == nil {
		t.Fatal("Append after sticky error succeeded")
	}
}

func TestWALRecordCap(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{NoSync: true, MaxRecordBytes: 64}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	if err := w.Append(1, bytes.Repeat([]byte{1}, 100)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := w.Append(1, []byte("fits")); err != nil {
		t.Fatalf("small record after oversize rejection: %v", err)
	}
}
