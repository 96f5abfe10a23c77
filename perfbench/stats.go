package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyondTail is the number of samples that must lie beyond the reported
// tail percentile; with fewer, the percentile is one or two samples and
// repeats no better than a maximum would.
const minBeyondTail = 10

// latSummary is a latency distribution reduced to the reported figures.
type latSummary struct {
	n      int
	p50    float64 // ms
	tail   float64 // ms
	beyond int     // samples strictly after the tail rank
}

// rank returns the nearest-rank index of percentile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// summarize sorts the latencies in place and reads off p50 and the tail.
func summarize(lat []time.Duration, q float64) latSummary {
	s := latSummary{n: len(lat)}
	if len(lat) == 0 {
		return s
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	s.p50 = ms(lat[rank(len(lat), 0.5)])
	ti := rank(len(lat), q)
	s.tail = ms(lat[ti])
	s.beyond = len(lat) - 1 - ti
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of xs (not modified).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// heapSampler reads the live heap — the bytes the last GC marked live —
// every heapSampleEvery while the timed region runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var out []float64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				out = append(out, float64(sample[0].Value.Uint64())/1e6)
			}
		}
		read()
		for {
			select {
			case <-h.stopc:
				read()
				h.done <- out
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit, and returns the p95
// of the samples in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return percentile(<-h.done, 0.95)
}

// hostInfo describes the machine and the code under test: CPU count,
// GOMAXPROCS, CPU model, Go version, and the commit (from build info when
// the checkout is a repository, else a digest of the Go sources).
func hostInfo() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "src-sha256:" + sourceDigest(".")
}

// sourceDigest hashes every .go file and go.mod under root, in path order,
// skipping hidden directories (the build directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tailRule refuses a figure whose tail percentile has fewer than
// minBeyondTail samples beyond it.
func (s latSummary) tailRule(q float64) error {
	if s.beyond < minBeyondTail {
		return fmt.Errorf("p%g rests on %d samples beyond it (of %d); it needs at least %d",
			q*100, s.beyond, s.n, minBeyondTail)
	}
	return nil
}

// cpuNow is the CPU time the process has used so far, on all its threads,
// at microsecond resolution. Unlike wall time it leaves out the time the
// process waits: for the next request of an open loop, for a timer, or for
// the host to run its vCPU, where the kernel accounts steal time. It reads
// getrusage, which sums the threads' run times exactly; the process CPU
// clock reads a tick-granular cache while the CPU profiler's timer is set.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host's steal time, summed over all vCPUs, in clock
// ticks from /proc/stat; 0 where it is not reported.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
