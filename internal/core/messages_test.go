package core

import (
	"math"
	"testing"

	"repro/internal/crypto"
)

// macKey returns KeyFromUint64(v) prepared for HMAC.
func macKey(v uint64) *crypto.MACKey {
	k := crypto.NewMACKey(crypto.KeyFromUint64(v))
	return &k
}

func TestRecordMACRoundTrip(t *testing.T) {
	key := macKey(1)
	nonce := []byte("nonce-1")
	r := NewRecord(7, 2, 3.25, key, nonce)
	if !r.VerifyWith(key, nonce) {
		t.Fatal("valid record rejected")
	}
	if r.VerifyWith(macKey(2), nonce) {
		t.Fatal("record accepted under wrong key")
	}
	if r.VerifyWith(key, []byte("other-nonce")) {
		t.Fatal("record accepted under wrong nonce")
	}
}

func TestRecordTamperDetected(t *testing.T) {
	key := macKey(3)
	nonce := []byte("n")
	r := NewRecord(7, 0, 10, key, nonce)
	r.Value = 5 // adversary lowers the value
	if r.VerifyWith(key, nonce) {
		t.Fatal("tampered value accepted")
	}
	r2 := NewRecord(7, 0, 10, key, nonce)
	r2.Origin = 8 // adversary reattributes
	if r2.VerifyWith(key, nonce) {
		t.Fatal("tampered origin accepted")
	}
	r3 := NewRecord(7, 0, 10, key, nonce)
	r3.Instance = 1
	if r3.VerifyWith(key, nonce) {
		t.Fatal("tampered instance accepted")
	}
}

func TestRecordIDDistinguishes(t *testing.T) {
	key := macKey(4)
	nonce := []byte("n")
	a := NewRecord(1, 0, 1, key, nonce)
	b := NewRecord(1, 0, 2, key, nonce)
	if a.ID() == b.ID() {
		t.Fatal("distinct records share an ID")
	}
	if a.ID() != NewRecord(1, 0, 1, key, nonce).ID() {
		t.Fatal("identical records have different IDs")
	}
}

func TestVetoMACRoundTrip(t *testing.T) {
	key := macKey(5)
	nonce := []byte("confirm-nonce")
	v := NewVeto(9, 1, 0.5, 3, key, nonce)
	if !v.VerifyWith(key, nonce) {
		t.Fatal("valid veto rejected")
	}
	v.Level = 2
	if v.VerifyWith(key, nonce) {
		t.Fatal("tampered level accepted")
	}
}

func TestEnvelopeSealOpen(t *testing.T) {
	key := macKey(6)
	msg := AggMsg{Records: []Record{{Origin: 1, Value: 2}}}
	env := Seal(42, key, 3, 4, msg)
	got, ok := env.Open(key, 3, 4)
	if !ok {
		t.Fatal("valid envelope rejected")
	}
	if agg, isAgg := got.(AggMsg); !isAgg || agg.Records[0].Value != 2 {
		t.Fatalf("payload corrupted: %#v", got)
	}
}

func TestEnvelopeDirectionBound(t *testing.T) {
	key := macKey(7)
	env := Seal(42, key, 3, 4, TreeFormMsg{})
	if _, ok := env.Open(key, 4, 3); ok {
		t.Fatal("envelope replayed in reverse direction")
	}
	if _, ok := env.Open(key, 3, 5); ok {
		t.Fatal("envelope replayed to another recipient")
	}
}

func TestEnvelopeWrongKeyOrTamper(t *testing.T) {
	key := macKey(8)
	env := Seal(1, key, 0, 1, TreeFormMsg{})
	if _, ok := env.Open(macKey(9), 0, 1); ok {
		t.Fatal("envelope opened with wrong key")
	}
	env2 := Seal(1, key, 0, 1, VetoMsg{Vetoer: 5, Value: 1})
	env2.Inner = VetoMsg{Vetoer: 5, Value: 0} // payload swap
	if _, ok := env2.Open(key, 0, 1); ok {
		t.Fatal("swapped payload accepted")
	}
	var empty Envelope
	if _, ok := empty.Open(key, 0, 1); ok {
		t.Fatal("empty envelope accepted")
	}
}

func TestWireSizes(t *testing.T) {
	if (AggMsg{Records: make([]Record, 100)}).WireSize() != 2400 {
		t.Fatal("100-synopsis message must be 2400 bytes (the paper's 2.4KB)")
	}
	if (VetoMsg{}).WireSize() != 24 {
		t.Fatal("veto must be 24 bytes")
	}
	env := Seal(1, macKey(1), 0, 1, AggMsg{Records: make([]Record, 1)})
	if env.WireSize() != 24+12 {
		t.Fatalf("envelope wire size = %d, want 36", env.WireSize())
	}
}

func TestPredicateEncodeDistinct(t *testing.T) {
	a := Predicate{Kind: PredSentAgg, Instance: 1, VMax: 2, Pos: 3, KeyLo: 4, KeyHi: 5}
	b := a
	b.KeyHi = 6
	if string(a.Encode()) == string(b.Encode()) {
		t.Fatal("distinct predicates encode identically")
	}
}

func TestKeyRef(t *testing.T) {
	s := SensorKeyRef(7)
	if !s.IsSensorKey() || s.Sensor != 7 {
		t.Fatalf("SensorKeyRef wrong: %+v", s)
	}
	p := PoolKeyRef(42)
	if p.IsSensorKey() || p.PoolIndex != 42 {
		t.Fatalf("PoolKeyRef wrong: %+v", p)
	}
	if string(s.Encode()) == string(p.Encode()) {
		t.Fatal("key refs encode identically")
	}
}

func TestSensorStateSatisfiesSentAgg(t *testing.T) {
	s := newSensorState(5, 1, crypto.NewStreamFromSeed(1))
	s.level = 3
	s.sentAgg = append(s.sentAgg, sentTuple{instance: 0, record: Record{Value: 2.5}, level: 3, inKey: 10, outKey: 50, parent: 4})
	ok := s.satisfies(Predicate{Kind: PredSentAgg, Instance: 0, VMax: 3, Pos: 3, KeyLo: 40, KeyHi: 60}, NoKey)
	if !ok {
		t.Fatal("matching PredSentAgg not satisfied")
	}
	// Value above VMax fails.
	if s.satisfies(Predicate{Kind: PredSentAgg, Instance: 0, VMax: 2, Pos: 3, KeyLo: 40, KeyHi: 60}, NoKey) {
		t.Fatal("PredSentAgg satisfied despite value above VMax")
	}
	// Wrong level fails.
	if s.satisfies(Predicate{Kind: PredSentAgg, Instance: 0, VMax: 3, Pos: 2, KeyLo: 40, KeyHi: 60}, NoKey) {
		t.Fatal("PredSentAgg satisfied at wrong level")
	}
	// Out-key outside the window fails.
	if s.satisfies(Predicate{Kind: PredSentAgg, Instance: 0, VMax: 3, Pos: 3, KeyLo: 51, KeyHi: 60}, NoKey) {
		t.Fatal("PredSentAgg satisfied outside key window")
	}
	// Wrong instance fails.
	if s.satisfies(Predicate{Kind: PredSentAgg, Instance: 1, VMax: 3, Pos: 3, KeyLo: 40, KeyHi: 60}, NoKey) {
		t.Fatal("PredSentAgg satisfied for wrong instance")
	}
}

func TestSensorStateSatisfiesReceivedAgg(t *testing.T) {
	s := newSensorState(5, 1, crypto.NewStreamFromSeed(2))
	s.level = 2
	s.noteReceivedRecord(Record{Origin: 9, Instance: 0, Value: 1.5}, 3, 77, 9)
	pred := Predicate{Kind: PredReceivedAgg, Instance: 0, VMax: 2, Pos: 3, IDLo: 0, IDHi: 10}
	if !s.satisfies(pred, 77) {
		t.Fatal("matching PredReceivedAgg not satisfied")
	}
	if s.satisfies(pred, 78) {
		t.Fatal("PredReceivedAgg satisfied for wrong tested key")
	}
	// Sensor-key re-confirmation (testedPool == NoKey) matches any in-key.
	if !s.satisfies(pred, NoKey) {
		t.Fatal("re-confirmation predicate not satisfied")
	}
	// ID range excludes the sensor.
	out := pred
	out.IDLo, out.IDHi = 6, 10
	if s.satisfies(out, 77) {
		t.Fatal("PredReceivedAgg satisfied outside ID range")
	}
	// Wrong child level fails.
	lvl := pred
	lvl.Pos = 2
	if s.satisfies(lvl, 77) {
		t.Fatal("PredReceivedAgg satisfied at wrong child level")
	}
}

func TestSensorStateBestTracksMinimum(t *testing.T) {
	s := newSensorState(1, 2, crypto.NewStreamFromSeed(3))
	if !math.IsInf(s.best[0].Value, 1) {
		t.Fatal("fresh state must start at infinity")
	}
	s.noteReceivedRecord(Record{Origin: 2, Instance: 0, Value: 5}, 1, 10, 2)
	s.noteReceivedRecord(Record{Origin: 3, Instance: 0, Value: 3}, 1, 11, 3)
	s.noteReceivedRecord(Record{Origin: 4, Instance: 0, Value: 4}, 1, 12, 4)
	if s.best[0].Value != 3 || s.best[0].Origin != 3 || s.bestInKey[0] != 11 {
		t.Fatalf("best tracking wrong: %+v inKey=%d", s.best[0], s.bestInKey[0])
	}
	if s.best[1].Value != math.Inf(1) {
		t.Fatal("instance 1 affected by instance 0 records")
	}
	// Out-of-range instances are ignored, not panicked on.
	s.noteReceivedRecord(Record{Origin: 5, Instance: 9, Value: 1}, 1, 13, 5)
	if len(s.recvAgg) != 3 {
		t.Fatal("out-of-range instance stored")
	}
}

func TestSensorStateSatisfiesVetoKinds(t *testing.T) {
	s := newSensorState(4, 1, crypto.NewStreamFromSeed(4))
	v := VetoMsg{Vetoer: 9, Instance: 0, Value: 0.5, Level: 3}
	s.vetoSent = &sofTuple{veto: v, interval: 4, inKey: 30, outKeys: []int{41, 42}}

	sent := Predicate{Kind: PredSentJunkVeto, MsgID: v.ID(), Pos: 4, IDLo: 0, IDHi: 10}
	if !s.satisfies(sent, 41) {
		t.Fatal("PredSentJunkVeto not satisfied for forwarded key")
	}
	if s.satisfies(sent, 43) {
		t.Fatal("PredSentJunkVeto satisfied for unused key")
	}
	wrongInterval := sent
	wrongInterval.Pos = 3
	if s.satisfies(wrongInterval, 41) {
		t.Fatal("PredSentJunkVeto satisfied at wrong interval")
	}

	recv := Predicate{Kind: PredReceivedJunkVeto, MsgID: v.ID(), Pos: 3, KeyLo: 25, KeyHi: 35}
	if !s.satisfies(recv, NoKey) {
		t.Fatal("PredReceivedJunkVeto not satisfied")
	}
	badRange := recv
	badRange.KeyLo, badRange.KeyHi = 31, 35
	if s.satisfies(badRange, NoKey) {
		t.Fatal("PredReceivedJunkVeto satisfied outside key range")
	}
	// An originated veto (no in-key) never satisfies the receive kind.
	s.vetoSent.inKey = NoKey
	if s.satisfies(recv, NoKey) {
		t.Fatal("originated veto satisfied a receive predicate")
	}
}

func TestOutcomeKindStrings(t *testing.T) {
	for _, k := range []OutcomeKind{OutcomeResult, OutcomeVetoRevocation, OutcomeJunkAggRevocation, OutcomeJunkConfRevocation} {
		if k.String() == "" || k.String()[0] == 'O' {
			t.Fatalf("OutcomeKind %d has bad name %q", int(k), k.String())
		}
	}
	_ = OutcomeKind(99).String()
	for _, p := range []Phase{PhaseTree, PhaseAggregation, PhaseConfirmation} {
		if p.String() == "unknown" {
			t.Fatalf("phase %d unnamed", int(p))
		}
	}
}

// TestHotPrimitivesAllocationFree pins the engine's per-message MAC and
// identity paths to the stack: each builds its input in place, and an
// envelope's payload is encoded by its concrete type, so no input
// escapes. A 40-record aggregate is the cold-mix AVERAGE query's (20
// synopses per leg); the paper's 100-synopsis one fits the same buffer.
func TestHotPrimitivesAllocationFree(t *testing.T) {
	key := macKey(12)
	nonce := []byte("query-nonce")
	records := make([]Record, 40)
	for i := range records {
		records[i] = NewRecord(7, i, float64(i), key, nonce)
	}
	var agg inner = AggMsg{Records: records}
	if n := testing.AllocsPerRun(100, func() {
		env := Seal(3, key, 1, 2, agg)
		if _, ok := env.Open(key, 1, 2); !ok {
			t.Fatal("valid envelope rejected")
		}
	}); n != 0 {
		t.Fatalf("Seal+Open of a 40-record aggregate allocates %.1f times per op", n)
	}
	veto := NewVeto(9, 1, 0.5, 3, key, nonce)
	for _, p := range []inner{TreeFormMsg{}, veto, PredicateReply{MAC: veto.MAC}} {
		if n := testing.AllocsPerRun(100, func() { Seal(3, key, 1, 2, p).Open(key, 1, 2) }); n != 0 {
			t.Fatalf("Seal+Open of %T allocates %.1f times per op", p, n)
		}
	}
	r := records[5]
	if n := testing.AllocsPerRun(100, func() { r.ID() }); n != 0 {
		t.Fatalf("Record.ID allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { veto.ID() }); n != 0 {
		t.Fatalf("VetoMsg.ID allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { NewRecord(7, 0, 1, key, nonce).VerifyWith(key, nonce) }); n != 0 {
		t.Fatalf("record MAC and check allocate %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { NewVeto(9, 1, 0.5, 3, key, nonce).VerifyWith(key, nonce) }); n != 0 {
		t.Fatalf("veto MAC and check allocate %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { ReplyMAC(key, nonce) }); n != 0 {
		t.Fatalf("ReplyMAC allocates %.1f times per op", n)
	}
}

// TestMessageEncodingsMatchParts pins the in-place MAC and identity
// inputs to the part lists they replaced, so every MAC and message
// identity keeps its value.
func TestMessageEncodingsMatchParts(t *testing.T) {
	raw := crypto.KeyFromUint64(13)
	key := crypto.NewMACKey(raw)
	nonce := []byte("confirm-nonce")
	r := NewRecord(7, 2, -3.25, &key, nonce)
	if want := crypto.ComputeMAC(raw, []byte("agg-record"), crypto.Uint64(7), crypto.Uint64(2), crypto.Float64(-3.25), nonce); r.MAC != want {
		t.Fatalf("record MAC %v, parts MAC %v", r.MAC, want)
	}
	rEnc := append(append(append(crypto.Uint64(7), crypto.Uint64(2)...), crypto.Float64(-3.25)...), r.MAC[:]...)
	if want := crypto.HashOf([]byte("record-id"), rEnc); r.ID() != want {
		t.Fatalf("record ID %v, parts hash %v", r.ID(), want)
	}
	v := NewVeto(9, 1, 0.5, -4, &key, nonce)
	if want := crypto.ComputeMAC(raw, []byte("veto"), crypto.Uint64(9), crypto.Uint64(1), crypto.Float64(0.5), crypto.Int64(-4), nonce); v.MAC != want {
		t.Fatalf("veto MAC %v, parts MAC %v", v.MAC, want)
	}
	vEnc := append(append(append(append(crypto.Uint64(9), crypto.Uint64(1)...), crypto.Float64(0.5)...), crypto.Int64(-4)...), v.MAC[:]...)
	if want := crypto.HashOf([]byte("veto-id"), vEnc); v.ID() != want {
		t.Fatalf("veto ID %v, parts hash %v", v.ID(), want)
	}
	if want := crypto.ComputeMAC(raw, []byte("pred-reply"), nonce); ReplyMAC(&key, nonce) != want {
		t.Fatalf("reply MAC %v, parts MAC %v", ReplyMAC(&key, nonce), want)
	}
	payloads := []struct {
		p   inner
		enc []byte
	}{
		{AggMsg{Records: []Record{r, r}}, append(append([]byte("agg"), rEnc...), rEnc...)},
		{TreeFormMsg{}, []byte("tree-form")},
		{v, append([]byte("veto"), vEnc...)},
		{PredicateReply{MAC: r.MAC}, append([]byte("reply"), r.MAC[:]...)},
	}
	for _, c := range payloads {
		env := Seal(42, &key, 3, 4, c.p)
		want := crypto.ComputeMAC(raw, []byte("envelope"), crypto.Uint64(42), crypto.Uint64(3), crypto.Uint64(4), c.enc)
		if env.MAC != want {
			t.Fatalf("%T envelope MAC %v, parts MAC %v", c.p, env.MAC, want)
		}
	}
}
