package shard

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

// FuzzDecodeBatch feeds arbitrary bytes to the grant-batch decoder: it
// must never panic or over-allocate, and anything it does accept must
// re-encode to a fixed point, compared byte for byte (so a worker and
// the coordinator can never disagree about a grant that passed
// decoding). A decoded value need not equal its re-decoded copy: an
// empty slice in the spec decodes as empty, re-encodes without the
// field and decodes back as nil. Same contract as the store's journal
// replay: hostile bytes are an error, not a crash.
func FuzzDecodeBatch(f *testing.F) {
	spec := experiments.ScenarioConfig{N: 24, Topology: "line", Query: "min", Attack: "none", Trials: 8, Seed: 3}
	seed, err := EncodeBatch([]Descriptor{
		{ID: "u000001", Key: Key("f00d", 0, 4), Parent: "f00d", Start: 0, End: 4, Spec: spec},
		{ID: "u000002", Key: Key("beef", 0, 8), Parent: "beef", Start: 0, End: 8, Spec: spec},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte(`[{"id":"u1","key":"k","start":0,"end":4,"spec":{"n":24,"trials":4,"seed":1,"faults":{"crashes":[]}}}]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := DecodeBatch(b)
		if err != nil {
			return
		}
		once, err := EncodeBatch(ds)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		ds2, err := DecodeBatch(once)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		twice, err := EncodeBatch(ds2)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, once, twice)
		}
	})
}
