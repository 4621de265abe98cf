package store

// This file is the control-plane write-ahead log: a second append-only
// file in the store directory, sharing the journal's CRC'd record
// framing, that records sweep state transitions instead of results.
// The result journal is the authority on *what has been computed*; the
// WAL is the authority on *what was promised* — which sweeps are open —
// and on which of their cells failed. Replaying both on startup lets a
// restarted server resume every open sweep with zero operator action:
// stored cells are skipped, failed ones stay failed, the rest are
// re-enqueued, and first-write-wins Put makes any duplicate execution
// harmless.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
)

// WALName is the control-plane write-ahead log inside the store
// directory. Exported so operators (and tests) can find it.
const WALName = "control.wal"

// walMagic marks control-plane records in the shared framing.
var walMagic = [4]byte{'V', 'M', 'C', '1'}

// WAL record kinds. Each record is one control-plane state transition;
// the set is deliberately small enough to replay by a single pass. The
// sweep manager writes sweep-opened, sweep-closed, and unit-completed
// for a failed cell. Earlier builds also wrote unit-enqueued and
// executed or cluster unit-completed records; replay skips them.
const (
	RecSweepOpened   = "sweep-opened"   // a sweep was accepted (carries its grid)
	RecUnitEnqueued  = "unit-enqueued"  // a cell/scenario entered the execution path
	RecUnitCompleted = "unit-completed" // a cell/scenario reached a terminal outcome
	RecSweepClosed   = "sweep-closed"   // the sweep reached done or cancelled
)

// WAL metric names.
const (
	MetricWALAppends = "store_wal_appends_total"
	MetricWALRecords = "store_wal_records"
	MetricWALCorrupt = "store_wal_corrupt_records_total"
)

// WALRecord is one control-plane state transition. Which fields are
// meaningful depends on Kind: sweep-opened carries Sweep and Grid;
// unit-completed carries the owning Sweep, the cell's Key (a content
// address), its Source and its Error; sweep-closed carries Sweep and
// Status. Unit records from earlier builds' cluster coordinator leave
// Sweep empty, and earlier builds' sweep-opened records carry a
// grid_key that replay ignores.
type WALRecord struct {
	Kind   string          `json:"kind"`
	Sweep  string          `json:"sweep,omitempty"`
	Key    string          `json:"key,omitempty"`
	Grid   json.RawMessage `json:"grid,omitempty"`
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Status string          `json:"status,omitempty"`
}

// WALConfig configures a WAL. Zero values are usable defaults.
type WALConfig struct {
	// Metrics receives append/corruption counters. Nil creates a
	// private registry.
	Metrics *metrics.Registry
	// Log receives recovery notices. Nil discards them.
	Log func(format string, args ...any)
}

// WAL is the append-only control-plane log. All methods are safe for
// concurrent use.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
	n    int64 // live record count, mirrored into MetricWALRecords

	log     func(format string, args ...any)
	appends *metrics.Counter
	corrupt *metrics.Counter
	records *metrics.Gauge
}

// OpenWAL opens (creating if needed) the control-plane WAL in dir and
// replays it, returning every complete, checksummed record in append
// order. A torn or corrupt tail — the signature of a crash mid-append —
// is logged, counted under MetricWALCorrupt, and truncated away exactly
// like the result journal's recovery; only I/O errors are fatal.
func OpenWAL(dir string, cfg WALConfig) (*WAL, []WALRecord, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open control WAL: %w", err)
	}
	w := &WAL{
		f:       f,
		path:    path,
		log:     cfg.Log,
		appends: cfg.Metrics.Counter(MetricWALAppends),
		corrupt: cfg.Metrics.Counter(MetricWALCorrupt),
		records: cfg.Metrics.Gauge(MetricWALRecords),
	}
	var recs []WALRecord
	off, reason, err := scanFile(f, walMagic, 0, func(_ int64, payload []byte) error {
		var r WALRecord
		if jerr := json.Unmarshal(payload, &r); jerr != nil || r.Kind == "" {
			return errors.New("undecodable record payload")
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: replay control WAL: %w", err)
	}
	if reason != "" {
		w.corrupt.Inc()
		w.log("store: control WAL corrupt at offset %d (%s); recovering %d complete records and truncating", off, reason, len(recs))
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncate corrupt WAL tail: %w", err)
		}
	}
	w.size = off
	w.n = int64(len(recs))
	w.records.Set(w.n)
	return w, recs, nil
}

// encodeWAL frames recs back to back.
func encodeWAL(recs []WALRecord) ([]byte, error) {
	var buf []byte
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("store: marshal WAL record (%s): %w", recs[i].Kind, err)
		}
		if buf, err = appendFrame(buf, walMagic, payload); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Append writes the records as one batch with a single fsync before
// returning, so a control-plane transition is durable before the state
// it promises becomes externally visible. An empty batch is a no-op.
func (w *WAL) Append(recs ...WALRecord) error {
	if len(recs) == 0 {
		return nil
	}
	buf, err := encodeWAL(recs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: control WAL is closed")
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return fmt.Errorf("store: append WAL records: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync control WAL: %w", err)
	}
	w.size += int64(len(buf))
	w.n += int64(len(recs))
	w.appends.Add(int64(len(recs)))
	w.records.Set(w.n)
	return nil
}

// Compact atomically replaces the WAL's contents with keep. Recovery
// calls it after replay so records from closed sweeps and finished
// units of prior incarnations stop being replayed on every startup. A
// crash mid-compact leaves either the old log or the new one, never a
// mix, and appends after Compact go to the file named WALName.
func (w *WAL) Compact(keep []WALRecord) error {
	buf, err := encodeWAL(keep)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: control WAL is closed")
	}
	renamed, err := replaceFile(w.path, buf)
	if !renamed {
		return err // the old log is untouched and stays live
	}
	// The open handle now names an unlinked file. Follow the live name;
	// if that fails, leave the WAL closed so appends fail instead of
	// landing in the orphan.
	f, oerr := os.OpenFile(w.path, os.O_RDWR, 0)
	w.f.Close()
	w.f = f // nil when the reopen failed
	if oerr != nil {
		return fmt.Errorf("store: reopen compacted WAL: %w", oerr)
	}
	w.size = int64(len(buf))
	w.n = int64(len(keep))
	w.records.Set(w.n)
	return err
}

// Close syncs and closes the WAL. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
