package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"

	"repro"
)

// resultCache is the persistent verify-result cache: an in-memory index
// over an append-only, checksummed record log. A hit turns an exhaustive
// exploration into one map lookup; the log survives restarts, so repeated
// certifications of one (protocol, inputs, envelope) across service
// lifetimes are O(lookup) after the first.
//
// File format: one record per line, "<crc32-hex> <json>\n", where the CRC
// (IEEE, 8 lowercase hex digits) covers exactly the JSON bytes. While the
// service runs the file is only ever appended to — no in-place rewrites —
// so a crash can corrupt at most the final partial line. Loading skips
// corrupt records loudly (bad framing, CRC mismatch, malformed JSON,
// missing fields) and keeps going: a damaged cache degrades to misses,
// never to wrong answers or a dead service. Duplicate keys are legal (two
// racing writers may both append a freshly computed result); the last
// record wins, and both racers computed the same deterministic report
// anyway.
//
// Compaction happens only at startup, when the load finds more superseded
// records (earlier duplicates shadowed by a later record for the same key)
// than live entries: the live index is rewritten to a temporary file in the
// same framing and atomically renamed over the log before the append handle
// opens. A crash mid-compaction leaves either the old log or the new one,
// never a mix; a failed rewrite is logged and the service carries on over
// the uncompacted log — compaction is an optimization, never a correctness
// dependency.
//
// The cache key must encode every result-affecting parameter of a Verify
// call — see verifyParams.cacheKey and the DESIGN.md soundness argument for
// which options are in (depth, run cap, solo budget, symmetry, table mode,
// table budget) and which are provably not (workers, spilling).
type resultCache struct {
	mu    sync.Mutex
	f     *os.File // nil = memory-only (no persistence configured)
	path  string
	index map[string]*repro.VerifyReport

	hits, misses, corrupt, writeErrs int64
	compacted                        int64 // superseded records dropped by the startup compaction
}

// resultRecord is the on-disk JSON shape of one cache entry.
type resultRecord struct {
	Key    string              `json:"key"`
	Report *repro.VerifyReport `json:"report"`
}

// openResultCache loads the record log at path (creating it if absent) and
// returns the ready cache. An empty path disables persistence: the cache
// still memoizes within the process. Corrupt records are counted, reported
// through logf, and skipped.
func openResultCache(path string, logf func(string, ...any)) (*resultCache, error) {
	c := &resultCache{path: path, index: make(map[string]*repro.VerifyReport)}
	if path == "" {
		return c, nil
	}
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	var superseded int64
	for lineno, line := range bytes.Split(buf, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeRecord(line)
		if err != nil {
			c.corrupt++
			logf("reprod: result cache %s:%d: skipping corrupt entry: %v", path, lineno+1, err)
			continue
		}
		if _, dup := c.index[rec.Key]; dup {
			superseded++
		}
		c.index[rec.Key] = rec.Report
	}
	if superseded > int64(len(c.index)) {
		if err := c.compactLog(); err != nil {
			// Degrade to the uncompacted log: every live record is intact
			// there, only the dead weight stays.
			logf("reprod: result cache %s: compaction failed, keeping uncompacted log: %v", path, err)
		} else {
			c.compacted = superseded
			logf("reprod: result cache %s: compacted, dropped %d superseded records (%d live)",
				path, superseded, len(c.index))
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	c.f = f
	return c, nil
}

// compactLog rewrites the log as exactly the live index — one record per
// key, same checksummed framing — through a temporary file atomically
// renamed over the log, so a crash leaves a complete log either way.
// Corrupt lines are dropped along with the superseded records. Called only
// from openResultCache, before the append handle exists and before the
// cache is shared, so it runs unlocked.
func (c *resultCache) compactLog() (err error) {
	tmp := c.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(f)
	for key, rep := range c.index {
		var line []byte
		if line, err = encodeRecord(key, rep); err != nil {
			return err
		}
		if _, err = w.Write(line); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// encodeRecord frames one record as a log line, newline included.
func encodeRecord(key string, rep *repro.VerifyReport) ([]byte, error) {
	body, err := json.Marshal(resultRecord{Key: key, Report: rep})
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(body), body), nil
}

// decodeRecord parses and checks one log line, without its newline.
func decodeRecord(line []byte) (resultRecord, error) {
	var rec resultRecord
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("bad framing (want 8-hex-digit checksum prefix)")
	}
	// All eight bytes must be hex digits: a scan that stops at the first
	// non-hex byte would take "8406dcbg" as 0x8406dcb.
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad checksum field: %v", err)
	}
	body := line[sp+1:]
	if got := crc32.ChecksumIEEE(body); got != uint32(sum) {
		return rec, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("malformed record: %v", err)
	}
	if rec.Key == "" || rec.Report == nil {
		return rec, fmt.Errorf("record missing key or report")
	}
	return rec, nil
}

// get returns the cached report for the key, if any.
func (c *resultCache) get(key string) (*repro.VerifyReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.index[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rep, ok
}

// put records a freshly computed report under the key, appending it to the
// log when persistence is configured. The in-memory index is updated even
// if the append fails (the result is correct either way); persistent write
// failures are counted and reported to the caller.
func (c *resultCache) put(key string, rep *repro.VerifyReport) error {
	line, err := encodeRecord(key, rep)
	if err != nil {
		return fmt.Errorf("result cache: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index[key] = rep
	if c.f == nil {
		return nil
	}
	if _, err := c.f.Write(line); err != nil {
		c.writeErrs++
		return fmt.Errorf("result cache append: %w", err)
	}
	return nil
}

// stats snapshots the cache counters for /status and /metrics.
func (c *resultCache) stats() (hits, misses, corrupt, compacted int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.corrupt, c.compacted, len(c.index)
}

// close releases the log file handle (memory-only caches are a no-op).
func (c *resultCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
