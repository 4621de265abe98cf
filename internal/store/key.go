package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
)

// KindScenario is the record kind for service scenario results.
const KindScenario = "scenario"

// KeyJSON returns the content address for a (kind, spec) pair: the
// SHA-256 of the kind and the spec's canonical JSON encoding.
// encoding/json renders struct fields in declaration order and map keys
// sorted, so equal specs always hash equal. Callers must strip
// execution-only knobs (worker counts, contexts) from spec before
// keying — they do not affect results and must not affect the address.
func KeyJSON(kind string, spec any) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("store: marshal key spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ScenarioKey returns the content address of a scenario spec. The spec
// is normalized first (so defaulted and explicit encodings of the same
// scenario collide, as they must) and its execution-only fields are
// zeroed: Workers is invisible in the rows by the trial-runner's
// determinism contract, and Context/Trace/Metrics never reach the JSON
// encoding at all. The faults, ARQ, and max-slots fields all remain
// part of the identity — a degraded run is not the same result as a
// clean one.
func ScenarioKey(cfg experiments.ScenarioConfig) (string, error) {
	cfg.Normalize()
	cfg.Workers = 0
	cfg.Context = nil
	cfg.Trace = nil
	cfg.Metrics = nil
	return KeyJSON(KindScenario, cfg)
}

// GetScenario looks up the stored rows for a scenario spec. A miss
// returns ok=false; decode failures surface as errors.
func (s *Store) GetScenario(cfg experiments.ScenarioConfig) ([]experiments.ScenarioRow, bool, error) {
	key, err := ScenarioKey(cfg)
	if err != nil {
		return nil, false, err
	}
	e, ok, err := s.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	var rows []experiments.ScenarioRow
	if err := json.Unmarshal(e.Value, &rows); err != nil {
		return nil, false, fmt.Errorf("store: decode scenario rows for %s: %w", key, err)
	}
	return rows, true, nil
}

// PutScenario stores a scenario's rows under its content address.
// Idempotent like Put; the marshal is skipped when the key is already
// present.
func (s *Store) PutScenario(cfg experiments.ScenarioConfig, rows []experiments.ScenarioRow, meta Meta) error {
	key, err := ScenarioKey(cfg)
	if err != nil {
		return err
	}
	if s.Has(key) {
		return nil
	}
	return s.Put(key, KindScenario, rows, meta)
}
