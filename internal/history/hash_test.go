package history

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// randRecord draws a record over small domains, so equal records recur.
func randRecord(rng *rand.Rand) record {
	entry := func() Entry {
		return Entry{
			PID: rng.Intn(2),
			Seq: int64(rng.Intn(2) + 1),
			Val: slotted{slot: rng.Intn(2), val: []int64{int64(rng.Intn(2)), 1}},
		}
	}
	var hist []Entry
	for i := rng.Intn(3); i > 0; i-- {
		hist = append(hist, entry())
	}
	return record{hist: hist, entry: entry()}
}

// TestPayloadHashAgreesWithEqualValues: records and slotted entries hash
// equal exactly when machine.EqualValues says they are equal (distinct
// payloads in this small sample never collide).
func TestPayloadHashAgreesWithEqualValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]record, 200)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	equalPairs := 0
	for i := range recs {
		for j := range recs {
			a, b := recs[i], recs[j]
			eq := machine.EqualValues(a, b)
			if same := machine.HashValue(a) == machine.HashValue(b); same != eq {
				t.Fatalf("EqualValues=%v but equal hashes=%v:\n%v\n%v", eq, same, a, b)
			}
			if eq && i != j {
				equalPairs++
			}
			sa, sb := a.entry.Val.(slotted), b.entry.Val.(slotted)
			if (sa.Hash64() == sb.Hash64()) != machine.EqualValues(sa, sb) {
				t.Fatalf("slotted hash disagrees with EqualValues: %v %v", sa, sb)
			}
		}
	}
	if equalPairs == 0 {
		t.Fatal("sample drew no equal pair of distinct records")
	}
}

// TestPayloadHashCoversEveryField: changing any one field of a record or of
// a slotted entry changes its hash.
func TestPayloadHashCoversEveryField(t *testing.T) {
	base := func() record {
		return record{
			hist: []Entry{
				{PID: 0, Seq: 1, Val: slotted{slot: 0, val: []int64{1, 0}}},
				{PID: 1, Seq: 1, Val: slotted{slot: 1, val: []int64{0, 1}}},
			},
			entry: Entry{PID: 0, Seq: 2, Val: slotted{slot: 0, val: []int64{2, 0}}},
		}
	}
	want := base().Hash64()
	if again := base().Hash64(); again != want {
		t.Fatalf("equal records hash %x and %x", want, again)
	}
	edits := map[string]func(*record){
		"hist PID":      func(r *record) { r.hist[1].PID = 2 },
		"hist Seq":      func(r *record) { r.hist[1].Seq = 2 },
		"hist slot":     func(r *record) { r.hist[0].Val = slotted{slot: 1, val: []int64{1, 0}} },
		"hist value":    func(r *record) { r.hist[0].Val = slotted{slot: 0, val: []int64{1, 1}} },
		"hist order":    func(r *record) { r.hist[0], r.hist[1] = r.hist[1], r.hist[0] },
		"hist length":   func(r *record) { r.hist = r.hist[:1] },
		"hist to entry": func(r *record) { r.entry, r.hist = r.hist[1], r.hist[:1] },
		"entry PID":     func(r *record) { r.entry.PID = 1 },
		"entry Seq":     func(r *record) { r.entry.Seq = 3 },
		"entry slot":    func(r *record) { r.entry.Val = slotted{slot: 1, val: []int64{2, 0}} },
		"entry value":   func(r *record) { r.entry.Val = slotted{slot: 0, val: []int64{3, 0}} },
	}
	for name, edit := range edits {
		r := base()
		edit(&r)
		if r.Hash64() == want {
			t.Errorf("changing the %s left the record hash unchanged", name)
		}
		if machine.EqualValues(r, base()) {
			t.Errorf("changing the %s left the record equal", name)
		}
	}
}
