package serve

import (
	"bytes"
	"hash/crc32"
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
	f.Fuzz(func(t *testing.T, line []byte) {
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
	})
}
