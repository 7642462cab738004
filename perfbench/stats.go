package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hist is a fixed-size log-bucketed latency histogram: 64 buckets per
// power of two (about 1.1% wide) from 1 ns to about 2^40 ns. Its memory
// does not grow with the number of operations, so a faster program does
// not pay for its extra samples in rss_peak_mb.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	bucketsPerOctave = 64
	histBuckets      = 40 * bucketsPerOctave
)

func (h *hist) add(d time.Duration) {
	ns := float64(d)
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log2(ns) * bucketsPerOctave)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-th quantile in microseconds, interpolated
// geometrically inside the bucket that holds it. It returns 0 for an
// empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			ns := math.Exp2((float64(i) + frac) / bucketsPerOctave)
			return ns / 1e3
		}
		cum += c
	}
	return math.Exp2(float64(histBuckets)/bucketsPerOctave) / 1e3
}

// runStats accumulates what one timed window measured. Each load
// goroutine owns one and the owner merges them once the goroutines end.
type runStats struct {
	attempted, failed int64
	op                hist // operation latency
	ev                hist // status-stream: due time to the tool's callback
	lag               hist // status-stream: how late the pacer issued a burst
	acked, delivered  int64
	errs              []string // first few failure descriptions
}

func (s *runStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *runStats) merge(o *runStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.op.merge(&o.op)
	s.ev.merge(&o.ev)
	s.lag.merge(&o.lag)
	s.acked += o.acked
	s.delivered += o.delivered
	for _, e := range o.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, e)
		}
	}
}

// cpuTime returns the process's user+system CPU time. Daemons and
// clients run in this one process, so it covers both.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// machine is the shape stamped on every result.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
}

func machineShape() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// loadGoroutines is how many goroutines generate closed-loop load: one
// per client handle, but never more than the CPUs the process may use.
func loadGoroutines(handles int) int {
	n := runtime.GOMAXPROCS(0)
	if n > handles {
		n = handles
	}
	return n
}
