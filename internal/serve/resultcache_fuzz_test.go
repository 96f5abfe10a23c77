package serve

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary lines to the result-cache decoder. The
// loader hands it whatever a damaged log holds, so it must never panic, and
// whatever it accepts must be a well-formed record: a non-empty key, a
// report, and a checksum prefix that matches the body. An accepted record
// framed again by encodeRecord (the framing put writes) must decode to an
// equal record. The seed corpus is in testdata/fuzz/FuzzDecodeRecord.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(checkDecodeRecord)
}

func checkDecodeRecord(t *testing.T, line []byte) {
	rec, err := decodeRecord(line)
	if err != nil {
		return
	}
	if rec.Key == "" || rec.Report == nil {
		t.Fatalf("accepted record without key or report: %+v", rec)
	}
	sum, perr := strconv.ParseUint(string(line[:8]), 16, 32)
	if perr != nil || line[8] != ' ' || uint32(sum) != crc32.ChecksumIEEE(line[9:]) {
		t.Fatalf("accepted a line whose checksum prefix does not match its body: %q", line)
	}
	again, err := encodeRecord(rec.Key, rec.Report)
	if err != nil {
		t.Fatalf("re-encoding an accepted record: %v", err)
	}
	rec2, err := decodeRecord(bytes.TrimSuffix(again, []byte{'\n'}))
	if err != nil {
		t.Fatalf("re-framed record rejected: %v\nline: %q", err, again)
	}
	if !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("re-framed record decodes differently:\nfirst:  %+v\nsecond: %+v", rec, rec2)
	}
}

// randomRecordBody is the JSON body of a valid record the random driver
// mutates: a verdict with violations, decided values and memory figures,
// so the mutations land in every part of the report.
const randomRecordBody = `{"key":"T1.10/n=3/inputs=0,1,2/depth=5","report":{"Runs":27,"States":64,` +
	`"Deduped":9,"Truncated":false,"Violations":["schedule [0 1 2]: agreement"],` +
	`"DecidedValues":[0,1,2],"DistinctStates":55,"UnderApprox":true,"FalseMergeProb":1e-9,` +
	`"Mem":{"TableBytes":4096,"TableOccupancy":0.5,"PeakFrontier":12}}}`

// TestDecodeRecordRandom runs FuzzDecodeRecord's body over a fixed-seed
// stream of lines: a valid record body mutated by random byte edits, most
// framed with the checksum of the mutated body (so the JSON decoder sees
// it) and the rest with a damaged checksum field, plus random byte lines.
func TestDecodeRecordRandom(t *testing.T) {
	const inputs = 40000
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for i := 0; i < inputs; i++ {
		var line []byte
		switch k := rng.Intn(8); {
		case k == 0:
			line = make([]byte, rng.Intn(64))
			rng.Read(line)
		default:
			body := mutateBytes(rng, []byte(randomRecordBody))
			line = fmt.Appendf(nil, "%08x %s", crc32.ChecksumIEEE(body), body)
			if k == 1 {
				line = mutateBytes(rng, line[:9])
				line = append(line, body...)
			}
		}
		checkRandomInput(t, i, func(t *testing.T) { checkDecodeRecord(t, line) }, "%q", line)
		if _, err := decodeRecord(line); err == nil {
			accepted++
		}
	}
	t.Logf("%d inputs, %d accepted", inputs, accepted)
}

// mutateBytes applies up to four random byte edits to a copy of b.
func mutateBytes(rng *rand.Rand, b []byte) []byte {
	b = bytes.Clone(b)
	for k := rng.Intn(5); k > 0; k-- {
		i := rng.Intn(len(b) + 1)
		switch rng.Intn(3) {
		case 0:
			b = append(b[:i], append([]byte{byte(rng.Intn(256))}, b[i:]...)...)
		case 1:
			if i < len(b) {
				b = append(b[:i], b[i+1:]...)
			}
		default:
			if i < len(b) {
				b[i] = byte(rng.Intn(256))
			}
		}
	}
	return b
}

// checkRandomInput runs check on generated input i and, if it fails, logs
// the input, described by format and args, before the test stops.
func checkRandomInput(t *testing.T, i int, check func(*testing.T), format string, args ...any) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("failing input %d: "+format, append([]any{i}, args...)...)
		}
	}()
	check(t)
}
