// Package store is a persistent, content-addressed result store for
// deterministic VMAT workloads. Because every scenario is a pure
// function of its spec (the trial-runner guarantees bit-identical rows
// for any worker count), the canonical JSON encoding of a spec is a
// complete identity for its results: hashing it yields a key under
// which the rows can be cached forever, and a cache hit is provably
// equivalent to re-execution.
//
// Because a stored result never goes stale, the store is append-only:
// nothing is ever replaced or deleted, so no dead bytes build up and
// nothing needs compacting.
// On disk it is a segmented journal (see segment.go): appends land in
// the active segment, which rolls into an immutable sealed segment at a
// size threshold; the segment file names are the replay order; and an
// index snapshot turns reopen into snapshot-load plus tail-replay
// instead of a full-journal replay (snapshot.go). Every Put appends one
// checksummed record and fsyncs before the entry becomes visible, so a
// crash can only ever lose the record being written, never a completed
// one. A truncated or corrupt segment tail — the signature of a torn
// write — is logged, counted in metrics, and truncated away rather than
// treated as fatal.
//
// In memory, a 64-way sharded key→offset index (index.go) locates every
// record under per-shard read locks, and a bounded LRU of decoded
// entries fronts the disk so hot keys (a sweep re-reading its own
// cells, vmat-bench regenerating a figure) never touch a file.
// Hit/miss/eviction/corruption counters and entry/segment gauges land
// in an internal/metrics registry.
package store

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// Metric names the store reports into its registry.
const (
	MetricHits        = "store_hits_total"
	MetricMisses      = "store_misses_total"
	MetricPuts        = "store_puts_total"
	MetricEvictions   = "store_cache_evictions_total"
	MetricCorrupt     = "store_corrupt_records_total"
	MetricEntries     = "store_entries"
	MetricSegments    = "store_segments"
	MetricSnapshots   = "store_snapshots_total"
	MetricSnapshotAge = "store_snapshot_age_seconds"
)

// errClosed reports use of a store after Close.
var errClosed = errors.New("store: store is closed")

// Meta is the non-identity metadata stored alongside a result: how long
// the original execution took and which build produced it.
type Meta struct {
	DurationMicros int64  `json:"duration_us,omitempty"`
	Version        string `json:"version,omitempty"`
}

// Entry is one stored result: the content-address key, the kind of
// workload that produced it, its metadata, and the result value as raw
// JSON (decoded by typed helpers such as GetScenario).
type Entry struct {
	Key   string          `json:"key"`
	Kind  string          `json:"kind,omitempty"`
	Meta  Meta            `json:"meta"`
	Value json.RawMessage `json:"value"`
}

// Config configures a Store. Zero values pick serving defaults.
type Config struct {
	// CacheEntries bounds the in-memory LRU of decoded entries that
	// fronts the journal. Entries beyond the bound are evicted from
	// memory only — the journal keeps everything. Default 256.
	CacheEntries int
	// SegmentBytes is the size at which the active segment is sealed
	// and a new one started. Default 64 MiB.
	SegmentBytes int64
	// SnapshotInterval is the background maintenance period: each tick
	// refreshes the snapshot-age gauge and writes an index snapshot
	// when snapshotEvery appends have accumulated. Zero disables the
	// background loop (snapshots still happen on Close, and Snapshot
	// can be called explicitly).
	SnapshotInterval time.Duration
	// DisableFsync skips the per-record fsync on Put. Bulk loading and
	// benchmarks only: a crash can lose recent appends, though never
	// corrupt the store (the CRC frames still truncate cleanly).
	DisableFsync bool
	// Metrics receives the store's counters. Nil creates a private
	// registry.
	Metrics *metrics.Registry
	// Log receives human-readable notices (journal recovery, corrupt
	// tails, rolls, stale snapshots). Nil discards them.
	Log func(format string, args ...any)
}

// Status is a point-in-time view of the storage engine, served under
// the "store" section of /healthz.
type Status struct {
	Segments           int   `json:"segments"`
	Entries            int64 `json:"entries"`
	Bytes              int64 `json:"bytes"`                // total size of the segment files
	SnapshotAgeSeconds int64 `json:"snapshot_age_seconds"` // -1 when no snapshot exists
}

// Store is a file-backed content-addressed result store. All methods
// are safe for concurrent use.
//
// Locking, outermost first: maintMu serializes snapshot writes and
// Close; appendMu serializes appends and rolls so a record's offset,
// fsync, and index insert stay atomic without blocking readers; segMu
// guards the segment table (readers hold it shared across ReadAt; rolls
// and Close hold it exclusive); the index shards and the LRU have their
// own locks.
type Store struct {
	dir          string
	segmentBytes int64
	fsync        bool
	log          func(format string, args ...any)

	maintMu  sync.Mutex
	appendMu sync.Mutex

	segMu sync.RWMutex
	segs  map[int64]*segment // by segment id
	order []int64            // replay order of ids; last is active

	idx *shardedIndex

	// Bounded decoded-entry cache: cache maps key -> list element whose
	// value is an Entry; lru's front is the most recently used.
	cacheMu  sync.Mutex
	cache    map[string]*list.Element
	lru      *list.List
	cacheCap int

	closed           atomic.Bool
	entriesCount     atomic.Int64
	appendsSinceSnap atomic.Int64
	lastSnapUnix     atomic.Int64 // 0 = no snapshot this process knows of

	bgStop chan struct{}
	bgDone chan struct{}

	hits, misses, puts, evictions, corrupt, snapshots *metrics.Counter
	entries, segments, snapAge                        *metrics.Gauge
}

// Open opens (creating if needed) the store rooted at dir. A corrupt or
// truncated segment tail is recovered, logged via cfg.Log, and counted
// under MetricCorrupt; a valid index snapshot turns the replay into a
// tail-replay. Only I/O errors are fatal.
func Open(dir string, cfg Config) (*Store, error) {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:          dir,
		segmentBytes: cfg.SegmentBytes,
		fsync:        !cfg.DisableFsync,
		log:          cfg.Log,
		segs:         map[int64]*segment{},
		idx:          newShardedIndex(),
		cache:        map[string]*list.Element{},
		lru:          list.New(),
		cacheCap:     cfg.CacheEntries,
		hits:         cfg.Metrics.Counter(MetricHits),
		misses:       cfg.Metrics.Counter(MetricMisses),
		puts:         cfg.Metrics.Counter(MetricPuts),
		evictions:    cfg.Metrics.Counter(MetricEvictions),
		corrupt:      cfg.Metrics.Counter(MetricCorrupt),
		snapshots:    cfg.Metrics.Counter(MetricSnapshots),
		entries:      cfg.Metrics.Gauge(MetricEntries),
		segments:     cfg.Metrics.Gauge(MetricSegments),
		snapAge:      cfg.Metrics.Gauge(MetricSnapshotAge),
	}
	if err := s.openLayout(); err != nil {
		s.closeSegments()
		return nil, err
	}
	if err := s.load(); err != nil {
		s.closeSegments()
		return nil, err
	}
	s.segments.Set(int64(len(s.order)))
	s.entries.Set(s.entriesCount.Load())
	s.updateSnapAge()
	if cfg.SnapshotInterval > 0 {
		s.bgStop = make(chan struct{})
		s.bgDone = make(chan struct{})
		go s.background(cfg.SnapshotInterval)
	}
	return s, nil
}

// openLayout opens the layout the segment file names describe (see
// segment.go). A missing segment fails the open before anything is
// deleted. Otherwise it deletes what a crash or an earlier build left
// behind: tmp files, superseded generations and the manifest.
func (s *Store) openLayout() error {
	files, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	order, superseded, err := layout(files)
	if err != nil {
		return fmt.Errorf("store: %v — run vmat-store verify", err)
	}
	var debris []string
	for _, pat := range []string{legacyManifest, legacyManifest + ".tmp", SnapshotName + ".tmp", segPattern + ".tmp"} {
		matches, _ := filepath.Glob(filepath.Join(s.dir, pat))
		debris = append(debris, matches...)
	}
	for _, f := range superseded {
		s.log("store: dropping superseded segment %s (newer generation exists)", segName(f.id, f.gen))
		debris = append(debris, filepath.Join(s.dir, segName(f.id, f.gen)))
	}
	for _, p := range debris {
		os.Remove(p) // what survives a failed remove, the next open removes
	}
	if len(order) == 0 {
		order = []segRef{{id: 1, gen: 1}}
	}
	for _, f := range order {
		sg, err := openSegment(s.dir, f.id, f.gen)
		if err != nil {
			return err
		}
		s.segs[sg.id] = sg
		s.order = append(s.order, sg.id)
	}
	if len(debris) > 0 || len(files) == 0 {
		return syncDir(s.dir)
	}
	return nil
}

// load rebuilds the index: from the index snapshot plus per-segment
// tail replay when the snapshot still matches the layout, from a full
// replay otherwise.
func (s *Store) load() error {
	sn, err := loadSnapshotFile(s.dir)
	switch {
	case errors.Is(err, errSnapshotVersion):
		s.log("store: index snapshot stale (%v); replaying all segments", err)
	case err != nil:
		s.corrupt.Inc()
		s.log("store: index snapshot unusable (%v); replaying all segments", err)
	}
	start := make([]int64, len(s.order))
	if sn != nil {
		if ok, why := s.applySnapshot(sn, start); !ok {
			s.log("store: index snapshot stale (%s); replaying all segments", why)
			sn = nil
		}
	}
	for i, id := range s.order {
		if err := s.replaySegment(s.segs[id], start[i]); err != nil {
			return err
		}
	}
	if sn != nil {
		s.lastSnapUnix.Store(sn.unixTime)
	}
	s.entriesCount.Store(int64(s.idx.len()))
	return nil
}

// applySnapshot checks sn against the current layout and, if its
// covered segments still prefix the layout, installs its index
// and fills start with per-segment replay watermarks.
func (s *Store) applySnapshot(sn *snapshot, start []int64) (bool, string) {
	if len(sn.segs) > len(s.order) {
		return false, "covers more segments than the directory holds"
	}
	for i, ss := range sn.segs {
		sg := s.segs[s.order[i]]
		if sg.id != ss.id || sg.gen != ss.gen {
			return false, fmt.Sprintf("segment %d is now (%d,%d), snapshot has (%d,%d)", i, sg.id, sg.gen, ss.id, ss.gen)
		}
		if ss.covered > sg.size.Load() {
			return false, fmt.Sprintf("covers %d bytes of %s, file has %d", ss.covered, filepath.Base(sg.path), sg.size.Load())
		}
	}
	for i, ss := range sn.segs {
		start[i] = ss.covered
	}
	s.idx.preallocate(len(sn.keys))
	for _, k := range sn.keys {
		s.idx.insertUnlocked(k.key, recordRef{seg: s.order[k.segIdx], off: k.off, length: k.length})
	}
	return true, ""
}

// replaySegment indexes sg's records from byte offset from onward. The
// first record of a key wins, as it does for live appends (a later copy
// can only come from an earlier build's compaction; see segment.go).
// The first incomplete or corrupt record marks the recovery point —
// everything from there on is the debris of a torn write, and is
// logged, counted, and truncated so subsequent appends start from a
// clean boundary. A read error is not damage: it fails the replay and
// truncates nothing.
func (s *Store) replaySegment(sg *segment, from int64) error {
	off, reason, err := scanFile(sg.f, journalMagic, from, func(off int64, payload []byte) error {
		var e Entry
		if jerr := json.Unmarshal(payload, &e); jerr != nil || e.Key == "" {
			return errors.New("undecodable record payload")
		}
		s.idx.putIfAbsent(e.Key, recordRef{seg: sg.id, off: off, length: int64(frame.HeaderLen + len(payload))})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: replay %s: %w", filepath.Base(sg.path), err)
	}
	if reason != "" {
		s.corrupt.Inc()
		s.log("store: %s corrupt at offset %d (%s); recovering complete records and truncating", filepath.Base(sg.path), off, reason)
		if err := sg.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate corrupt tail of %s: %w", filepath.Base(sg.path), err)
		}
	}
	sg.size.Store(off)
	return nil
}

// active returns the append segment. Stable for callers holding
// appendMu (only rolls, themselves under appendMu, change it).
func (s *Store) active() *segment {
	s.segMu.RLock()
	sg := s.segs[s.order[len(s.order)-1]]
	s.segMu.RUnlock()
	return sg
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	return int(s.entriesCount.Load())
}

// Has reports whether key is stored, without counting a hit or miss.
func (s *Store) Has(key string) bool {
	return s.idx.has(key)
}

// Get returns the entry stored under key. A miss returns ok=false with
// no error; the error return is reserved for a closed store and for I/O
// and decode failures on a record the index says exists.
func (s *Store) Get(key string) (Entry, bool, error) {
	if s.closed.Load() {
		return Entry{}, false, errClosed
	}
	s.cacheMu.Lock()
	if el, ok := s.cache[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(Entry)
		s.cacheMu.Unlock()
		s.hits.Inc()
		return e, true, nil
	}
	s.cacheMu.Unlock()
	ref, ok := s.idx.get(key)
	if !ok {
		s.misses.Inc()
		return Entry{}, false, nil
	}
	s.segMu.RLock()
	sg := s.segs[ref.seg]
	if sg == nil { // Close tore the segments down after the check above
		s.segMu.RUnlock()
		return Entry{}, false, errClosed
	}
	buf := make([]byte, ref.length)
	_, err := sg.f.ReadAt(buf, ref.off)
	s.segMu.RUnlock()
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: read record for %s: %w", key, err)
	}
	e, derr := decodeRecord(buf)
	if derr != nil {
		// The record passed its checksum at replay time, so this is
		// in-place damage, not a torn write; surface it loudly.
		s.corrupt.Inc()
		return Entry{}, false, fmt.Errorf("store: record for %s: %w", key, derr)
	}
	s.cacheAdd(e)
	s.hits.Inc()
	return e, true, nil
}

// Put stores value (JSON-marshaled) under key. Puts are idempotent:
// storing an already-present key is a no-op, which makes it safe for
// two jobs of the same spec that executed side by side to both write
// back. The record is fsync'd before Put returns (unless the store was
// opened with DisableFsync).
func (s *Store) Put(key, kind string, value any, meta Meta) error {
	if s.closed.Load() {
		return errClosed
	}
	if s.idx.has(key) {
		return nil
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("store: marshal value for %s: %w", key, err)
	}
	e := Entry{Key: key, Kind: kind, Meta: meta, Value: raw}
	rec, err := encodeRecord(&e)
	if err != nil {
		return err
	}

	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	if s.idx.has(key) { // lost the race; first write wins
		return nil
	}
	active := s.active()
	off := active.size.Load()
	if _, err := active.f.WriteAt(rec, off); err != nil {
		return fmt.Errorf("store: append record: %w", err)
	}
	if s.fsync {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: sync segment: %w", err)
		}
	}
	n := int64(len(rec))
	active.size.Store(off + n)
	s.idx.putIfAbsent(key, recordRef{seg: active.id, off: off, length: n}) // absent: checked above under appendMu
	s.entries.Set(s.entriesCount.Add(1))
	s.cacheAdd(e)
	s.puts.Inc()
	s.appendsSinceSnap.Add(1)
	s.maybeRollLocked()
	return nil
}

// maybeRollLocked seals the active segment and starts a new one once it
// crosses the size threshold. Caller holds appendMu. A roll failure is
// logged, not fatal: appends continue on the oversize segment and the
// next append retries.
func (s *Store) maybeRollLocked() {
	if s.active().size.Load() < s.segmentBytes {
		return
	}
	if err := s.rollLocked(); err != nil {
		s.log("store: segment roll failed: %v (appends continue on the oversize segment)", err)
	}
}

// rollLocked creates the next segment file, makes its directory entry
// durable, and makes it the append target. Caller holds appendMu. A
// crash after the create leaves an empty active segment.
func (s *Store) rollLocked() error {
	sealing := s.active()
	if err := sealing.f.Sync(); err != nil { // seal durably even with DisableFsync
		return fmt.Errorf("store: sync sealing segment: %w", err)
	}
	sg, err := openSegment(s.dir, sealing.id+1, 1)
	if err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		sg.f.Close()
		os.Remove(sg.path)
		return err
	}
	s.segMu.Lock()
	s.segs[sg.id] = sg
	s.order = append(s.order, sg.id)
	n := len(s.order)
	s.segMu.Unlock()
	s.segments.Set(int64(n))
	s.log("store: rolled to segment %s (%d segments)", filepath.Base(sg.path), n)
	return nil
}

// Sync flushes the active segment to stable storage. Puts already sync
// on every record unless DisableFsync; Sync exists for shutdown and
// bulk-load paths that want an explicit final barrier.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return errClosed
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.active().f.Sync()
}

// Snapshot writes a fresh index snapshot, making the next open a
// snapshot-load plus tail-replay. The background loop does this
// automatically; Snapshot exists for admin tooling and tests.
func (s *Store) Snapshot() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.writeSnapshotLocked()
}

// writeSnapshotLocked captures and writes an index snapshot. Caller
// holds maintMu.
func (s *Store) writeSnapshotLocked() error {
	s.appendMu.Lock()
	s.segMu.RLock()
	empty := len(s.order) == 0
	s.segMu.RUnlock()
	if empty { // segments already torn down (killed store); nothing to capture
		s.appendMu.Unlock()
		return nil
	}
	// The snapshot's covered watermarks are trusted blindly on reopen
	// (that is the speedup), so every covered byte must be durable
	// first — with per-Put fsync this is a no-op, with DisableFsync it
	// is the barrier that keeps the invariant.
	if err := s.active().f.Sync(); err != nil {
		s.appendMu.Unlock()
		return fmt.Errorf("store: sync before snapshot: %w", err)
	}
	sn := s.captureSnapshot()
	s.appendsSinceSnap.Store(0)
	s.appendMu.Unlock()
	if err := writeSnapshotFile(s.dir, sn); err != nil {
		return err
	}
	s.lastSnapUnix.Store(sn.unixTime)
	s.snapshots.Inc()
	s.snapAge.Set(0)
	return nil
}

// Status reports the engine's current shape for /healthz and admin
// tooling.
func (s *Store) Status() Status {
	s.segMu.RLock()
	st := Status{Segments: len(s.order)}
	for _, id := range s.order {
		st.Bytes += s.segs[id].size.Load()
	}
	s.segMu.RUnlock()
	st.Entries = s.entriesCount.Load()
	st.SnapshotAgeSeconds = s.updateSnapAge()
	return st
}

// Close stops background maintenance, writes a final index snapshot,
// and syncs and closes every segment. The store must not be used after
// Close.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := s.writeSnapshotLocked(); err != nil {
		s.log("store: final snapshot: %v", err)
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.closeSegments()
}

// closeSegments syncs and closes every open segment file, keeping the
// first error.
func (s *Store) closeSegments() error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	var firstErr error
	for _, id := range s.order {
		sg := s.segs[id]
		if err := sg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := sg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.segs, id)
	}
	s.order = nil
	return firstErr
}

// background is the maintenance loop: refresh the snapshot-age gauge
// and snapshot after enough appends.
func (s *Store) background(interval time.Duration) {
	defer close(s.bgDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.bgStop:
			return
		case <-t.C:
		}
		s.updateSnapAge()
		if s.appendsSinceSnap.Load() >= snapshotEvery {
			s.maintMu.Lock()
			if !s.closed.Load() {
				if err := s.writeSnapshotLocked(); err != nil {
					s.log("store: background snapshot: %v", err)
				}
			}
			s.maintMu.Unlock()
		}
	}
}

// snapshotEvery is how many appends may accumulate before the
// background loop refreshes the index snapshot.
const snapshotEvery = 4096

// updateSnapAge recomputes the snapshot-age gauge and returns the age
// (-1 when no snapshot exists).
func (s *Store) updateSnapAge() int64 {
	age := int64(-1)
	if last := s.lastSnapUnix.Load(); last > 0 {
		if age = time.Now().Unix() - last; age < 0 {
			age = 0
		}
	}
	s.snapAge.Set(age)
	return age
}

// cacheAdd inserts (or refreshes) an entry in the bounded LRU, evicting
// the least recently used entries beyond capacity.
func (s *Store) cacheAdd(e Entry) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if el, ok := s.cache[e.Key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.cache[e.Key] = s.lru.PushFront(e)
	for s.lru.Len() > s.cacheCap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.cache, oldest.Value.(Entry).Key)
		s.evictions.Inc()
	}
}
