package cluster

// The persistent warm cache: an append-only write-ahead log of envelope
// records plus periodically compacted snapshots, both in one directory
// per instance. Every record is CRC-framed, so a crash mid-append (or a
// corrupted byte anywhere) is detected on replay: the good prefix is
// served, the bad tail is skipped loudly and truncated away so the next
// append starts from a clean frame.
//
// This tier is a cache, not a system of record. Appends are not fsynced
// (a crash can lose the most recent entries — they will simply be
// recompiled), and the compaction that rewrites the snapshot from the
// in-memory LRU drops whatever the LRU has evicted, which is exactly the
// size bound the memory tier already enforces.
//
// File format (wal.log and snapshot share it):
//
//	record  := frame payload
//	frame   := u32 payloadLen | u32 crc32-IEEE(payload)
//	payload := u32 keyLen | key | u32 status | u32 bodyLen | body
//
// All integers little-endian. A record is valid iff its frame length
// fits the remaining file and the CRC matches; the first invalid record
// ends replay.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
)

// Record is one persisted cache entry: the content-addressed key, the
// HTTP status of the cached response, and its exact body bytes — enough
// to replay a warm compile response byte-identically after a restart.
type Record struct {
	Key    string
	Status int
	Body   []byte
}

// maxRecordBytes bounds a record's payload on read. Anything larger than
// this is a corrupt length field, not a real record (source is capped at
// 1 MiB and envelopes are the same order of magnitude).
const maxRecordBytes = 64 << 20

// compactThreshold is the WAL size past which Append starts advising
// compaction.
const compactThreshold = 4 << 20

const (
	walName      = "wal.log"
	snapshotName = "snapshot"
)

// StoreStats is a point-in-time view of one store, for /metrics.
type StoreStats struct {
	WALBytes      int64 // current WAL file size
	SnapshotBytes int64 // current snapshot file size
	Appends       int64 // records appended this process
	Replayed      int64 // records recovered at open
	CorruptTails  int64 // corrupt/truncated tails skipped at open (0 or more files affected)
	Compactions   int64 // snapshot rewrites this process
}

// Store is one instance's disk cache tier. Open it with OpenStore, drain
// the recovered records once with Replay, Append every newly cached
// envelope, and Compact when Append advises it (or at drain time).
type Store struct {
	dir          string
	log          *slog.Logger
	compactBytes int64 // compactThreshold; in-package tests shrink it

	mu       sync.Mutex
	wal      *os.File
	walBytes int64
	snapshot int64 // snapshot file size
	replay   []Record

	appends, replayed, corruptTails, compactions int64
}

// OpenStore opens (creating if needed) the cache directory, replays the
// snapshot and then the WAL, truncates any corrupt WAL tail, and leaves
// the WAL open for appends. The recovered records are held until Replay
// is called. log receives replay and corruption reports (nil =
// slog.Default); a skipped corrupt tail is always logged at Warn — losing
// cache entries silently would defeat the tier's purpose.
func OpenStore(dir string, log *slog.Logger) (*Store, error) {
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("cluster: create cache dir: %w", err)
	}
	s := &Store{dir: dir, log: log, compactBytes: compactThreshold}

	// Snapshot first (the compacted base), then the WAL (appends since).
	// Replay order is oldest-to-newest so the cache's LRU recency ends up
	// matching append order. A corrupt snapshot tail keeps its good
	// prefix; the WAL may still hold newer copies of the lost entries.
	snapRecs, _, snapCorrupt := s.readFile(filepath.Join(dir, snapshotName))
	walPath := filepath.Join(dir, walName)
	walRecs, goodOffset, walCorrupt := s.readFile(walPath)
	if snapCorrupt {
		s.corruptTails++
	}
	if walCorrupt {
		s.corruptTails++
		// Truncate the bad tail so the next append starts on a frame
		// boundary — appending after garbage would poison every future
		// replay past this point.
		if err := os.Truncate(walPath, goodOffset); err != nil {
			return nil, fmt.Errorf("cluster: truncate corrupt wal tail: %w", err)
		}
		s.log.Warn("cluster: truncated corrupt wal tail",
			"dir", dir, "good_bytes", goodOffset)
	}
	s.replay = append(snapRecs, walRecs...)
	s.replayed = int64(len(s.replay))

	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("cluster: open wal: %w", err)
	}
	s.wal = wal
	s.walBytes = goodOffset
	if fi, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		s.snapshot = fi.Size()
	}
	return s, nil
}

// readFile decodes every valid record in path. It returns the records,
// the offset just past the last valid one, and whether a corrupt or
// truncated tail was skipped (logged loudly). A missing file is simply
// empty.
func (s *Store) readFile(path string) (recs []Record, goodOffset int64, corrupt bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("cluster: cache file unreadable, starting empty", "path", path, "err", err)
		}
		return nil, 0, false
	}
	off := int64(0)
	for int64(len(data))-off >= 8 {
		payloadLen := int64(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if payloadLen > maxRecordBytes || off+8+payloadLen > int64(len(data)) {
			break // insane length or frame runs past EOF: corrupt tail
		}
		payload := data[off+8 : off+8+payloadLen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		rec, ok := decodePayload(payload)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += 8 + payloadLen
	}
	if off != int64(len(data)) {
		s.log.Warn("cluster: skipping corrupt/truncated cache tail",
			"path", path, "good_bytes", off, "dropped_bytes", int64(len(data))-off,
			"records_recovered", len(recs))
		return recs, off, true
	}
	return recs, off, false
}

// encodeRecord frames rec for appending.
func encodeRecord(rec Record) []byte {
	payloadLen := 4 + len(rec.Key) + 4 + 4 + len(rec.Body)
	buf := make([]byte, 8+payloadLen)
	payload := buf[8:]
	binary.LittleEndian.PutUint32(payload[0:], uint32(len(rec.Key)))
	copy(payload[4:], rec.Key)
	o := 4 + len(rec.Key)
	binary.LittleEndian.PutUint32(payload[o:], uint32(rec.Status))
	binary.LittleEndian.PutUint32(payload[o+4:], uint32(len(rec.Body)))
	copy(payload[o+8:], rec.Body)
	binary.LittleEndian.PutUint32(buf[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodePayload parses one CRC-verified payload. ok is false when the
// internal lengths disagree with the payload size (possible only via a
// CRC collision or an encoder bug — treated as corruption either way).
func decodePayload(p []byte) (Record, bool) {
	if len(p) < 12 {
		return Record{}, false
	}
	keyLen := int(binary.LittleEndian.Uint32(p[0:]))
	if keyLen < 0 || 4+keyLen+8 > len(p) {
		return Record{}, false
	}
	key := string(p[4 : 4+keyLen])
	o := 4 + keyLen
	status := int(binary.LittleEndian.Uint32(p[o:]))
	bodyLen := int(binary.LittleEndian.Uint32(p[o+4:]))
	if bodyLen < 0 || o+8+bodyLen != len(p) {
		return Record{}, false
	}
	body := make([]byte, bodyLen)
	copy(body, p[o+8:])
	return Record{Key: key, Status: status, Body: body}, true
}

// Replay returns the records recovered at open, oldest first, and
// releases them. Call it exactly once, at startup, to seed the in-memory
// cache.
func (s *Store) Replay() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.replay
	s.replay = nil
	return recs
}

// Append persists one record to the WAL. compact reports that the WAL
// has outgrown its threshold and the caller should schedule Compact with
// the current live set. Append never fsyncs — this tier trades the last
// few entries on power loss for not serializing every compile on disk
// latency.
func (s *Store) Append(rec Record) (compact bool, err error) {
	buf := encodeRecord(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return false, errors.New("cluster: store closed")
	}
	n, err := s.wal.Write(buf)
	s.walBytes += int64(n)
	if err != nil {
		return false, fmt.Errorf("cluster: wal append: %w", err)
	}
	s.appends++
	return s.walBytes >= s.compactBytes, nil
}

// Compact rewrites the snapshot from live (the caller's current cache
// contents, oldest first) and truncates the WAL. Crash-safe: the new
// snapshot is written to a temp file and renamed over the old one before
// the WAL shrinks, so every moment on disk replays to a superset of some
// recent cache state. Entries appended between the caller capturing live
// and Compact running can be lost from disk (they stay in memory and
// re-persist at the next compaction) — acceptable for a cache.
func (s *Store) Compact(live []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("cluster: store closed")
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("cluster: compact: %w", err)
	}
	var size int64
	w := func(b []byte) error {
		n, err := f.Write(b)
		size += int64(n)
		return err
	}
	for _, rec := range live {
		if err := w(encodeRecord(rec)); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cluster: compact write: %w", err)
		}
	}
	// The snapshot IS fsynced (unlike appends): after the rename it is
	// the only copy of everything the truncated WAL held.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: compact close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: compact rename: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("cluster: wal truncate: %w", err)
	}
	// O_APPEND writes land at the (now zero) end regardless of the file
	// offset, so no seek is needed.
	s.walBytes = 0
	s.snapshot = size
	s.compactions++
	return nil
}

// Stats returns a point-in-time view for metrics.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		WALBytes:      s.walBytes,
		SnapshotBytes: s.snapshot,
		Appends:       s.appends,
		Replayed:      s.replayed,
		CorruptTails:  s.corruptTails,
		Compactions:   s.compactions,
	}
}

// Close closes the WAL handle. Callers that want the fastest possible
// warm restart compact first (oicd does, as part of graceful drain).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
