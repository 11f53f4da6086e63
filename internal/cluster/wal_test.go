package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:    fmt.Sprintf("key-%04d", i),
			Status: 200 + (i%2)*222, // alternate 200 / 422
			Body:   bytes.Repeat([]byte{byte('a' + i%26)}, 10+i%300),
		}
	}
	return recs
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(50)
	s := openTestStore(t, dir)
	if got := s.Replay(); len(got) != 0 {
		t.Fatalf("fresh store replayed %d records", len(got))
	}
	for _, r := range recs {
		if _, err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Replay()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Key != recs[i].Key || r.Status != recs[i].Status || !bytes.Equal(r.Body, recs[i].Body) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, recs[i])
		}
	}
	// Replay is consume-once.
	if again := s2.Replay(); len(again) != 0 {
		t.Fatalf("second Replay returned %d records", len(again))
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(40)
	s := openTestStore(t, dir)
	s.compactBytes = 1
	var advised bool
	for _, r := range recs {
		c, err := s.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		advised = advised || c
	}
	if !advised {
		t.Fatal("Append never advised compaction despite a 1-byte threshold")
	}
	// Compact down to the last 10 records (as if the LRU evicted the rest).
	live := recs[30:]
	if err := s.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.WALBytes != 0 {
		t.Fatalf("WAL not truncated after compact: %d bytes", st.WALBytes)
	}
	if st.SnapshotBytes == 0 {
		t.Fatal("snapshot empty after compact")
	}
	// New appends after compaction land in the WAL and survive too.
	extra := Record{Key: "post-compact", Status: 200, Body: []byte("fresh")}
	if _, err := s.Append(extra); err != nil {
		t.Fatalf("Append after compact: %v", err)
	}
	s.Close()

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Replay()
	want := append(append([]Record{}, live...), extra)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records after compact, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("record %d: got key %q want %q", i, got[i].Key, want[i].Key)
		}
	}
}

// TestStoreCrashRecoveryFuzz is the WAL's safety contract: truncate or
// corrupt the log at random offsets and replay must (a) never yield a
// record that was not appended, byte for byte, (b) recover a clean
// prefix, and (c) log the skipped tail loudly.
func TestStoreCrashRecoveryFuzz(t *testing.T) {
	recs := testRecords(60)
	byKey := map[string]Record{}
	for _, r := range recs {
		byKey[r.Key] = r
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		dir := t.TempDir()
		s := openTestStore(t, dir)
		for _, r := range recs {
			if _, err := s.Append(r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		s.Close()

		walPath := filepath.Join(dir, walName)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatalf("read wal: %v", err)
		}
		if trial%2 == 0 {
			// Simulate a crash mid-append: truncate at a random offset.
			cut := rng.Intn(len(data) + 1)
			if err := os.WriteFile(walPath, data[:cut], 0o666); err != nil {
				t.Fatalf("truncate: %v", err)
			}
		} else {
			// Flip a random byte: bit rot / torn write.
			mut := append([]byte{}, data...)
			i := rng.Intn(len(mut))
			mut[i] ^= 0xFF
			if err := os.WriteFile(walPath, mut, 0o666); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
		}

		var logBuf bytes.Buffer
		s2, err := OpenStore(dir, slog.New(slog.NewTextHandler(&logBuf, nil)))
		if err != nil {
			t.Fatalf("trial %d: reopen after damage: %v", trial, err)
		}
		got := s2.Replay()
		for i, r := range got {
			orig, ok := byKey[r.Key]
			if !ok {
				t.Fatalf("trial %d: replay yielded unknown key %q", trial, r.Key)
			}
			if r.Status != orig.Status || !bytes.Equal(r.Body, orig.Body) {
				t.Fatalf("trial %d: replayed record %d (%s) differs from what was appended", trial, i, r.Key)
			}
			// Prefix property: records come back in append order.
			if r.Key != recs[i].Key {
				t.Fatalf("trial %d: record %d is %q, want prefix order %q", trial, i, r.Key, recs[i].Key)
			}
		}
		if len(got) < len(recs) {
			// Something was dropped: the tail skip must have been logged.
			if !strings.Contains(logBuf.String(), "corrupt") {
				t.Fatalf("trial %d: dropped %d records silently; log: %s",
					trial, len(recs)-len(got), logBuf.String())
			}
			if s2.Stats().CorruptTails == 0 {
				t.Fatalf("trial %d: CorruptTails stat not bumped", trial)
			}
		}
		// The damaged tail was truncated away: appends after recovery must
		// survive a further clean reopen.
		extra := Record{Key: "after-crash", Status: 200, Body: []byte("recovered")}
		if _, err := s2.Append(extra); err != nil {
			t.Fatalf("trial %d: append after recovery: %v", trial, err)
		}
		prevCount := len(got)
		s2.Close()
		s3 := openTestStore(t, dir)
		final := s3.Replay()
		s3.Close()
		if len(final) != prevCount+1 || final[len(final)-1].Key != "after-crash" {
			t.Fatalf("trial %d: post-recovery append lost: %d records, last %q",
				trial, len(final), final[len(final)-1].Key)
		}
	}
}

func TestStoreInsaneLengthField(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Append(Record{Key: "good", Status: 200, Body: []byte("x")})
	s.Close()
	// Append a frame whose length field claims 3 GiB.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0xbf, 1, 2, 3, 4})
	f.Close()

	s2 := openTestStore(t, dir)
	defer s2.Close()
	got := s2.Replay()
	if len(got) != 1 || got[0].Key != "good" {
		t.Fatalf("replay past insane length: %+v", got)
	}
}

func TestStoreAppendAfterClose(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	s.Close()
	if _, err := s.Append(Record{Key: "k"}); err == nil {
		t.Fatal("Append on closed store succeeded")
	}
	if err := s.Compact(nil); err == nil {
		t.Fatal("Compact on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}
