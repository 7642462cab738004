package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer's public API. Spans stay in memory (one recorder per
// goroutine, so recording takes no lock) and are written out as Chrome
// trace-event JSON when the run ends. Every span also feeds a
// per-name histogram, so the per-layer metrics cover all calls even
// when the span list itself is capped.

// maxSpans caps the spans a run keeps for the trace file (about 10 MB
// of JSON). Later spans still reach the histograms and are counted as
// dropped.
const maxSpans = 100000

type spanRec struct {
	id, parent, op int64
	name           string
	start, end     int64 // ns since the tracer's epoch
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	kept   atomic.Int64

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recorder is one goroutine's span buffer. A nil *recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	t       *tracer
	process string // the workload replay this recorder belongs to
	tid     int
	spans   []spanRec
	dropped int64
	hists   map[string]*hist
	gauges  map[string]int64
}

func (t *tracer) recorder(process string) *recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{t: t, process: process, tid: len(t.recs) + 1,
		hists: make(map[string]*hist), gauges: make(map[string]int64)}
	t.recs = append(t.recs, r)
	return r
}

// newID reserves a span id, for a parent whose children end first.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.t.nextID.Add(1)
}

// span records [start, now) under name and returns its id.
func (r *recorder) span(name string, start time.Time, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.record(id, name, start, time.Now(), parent, op)
	return id
}

func (r *recorder) record(id int64, name string, start, end time.Time, parent, op int64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = new(hist)
		r.hists[name] = h
	}
	h.add(end.Sub(start))
	if r.t.kept.Add(1) > maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, spanRec{id: id, parent: parent, op: op, name: name,
		start: start.Sub(r.t.epoch).Nanoseconds(), end: end.Sub(r.t.epoch).Nanoseconds()})
}

// gauge keeps the largest value seen under name (a count, not a time).
func (r *recorder) gauge(name string, v int64) {
	if r == nil {
		return
	}
	if v > r.gauges[name] {
		r.gauges[name] = v
	}
}

// hist merges every recorder's histogram for name.
func (t *tracer) hist(name string) *hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	var h hist
	for _, r := range t.recs {
		if rh := r.hists[name]; rh != nil {
			h.merge(rh)
		}
	}
	return &h
}

func (t *tracer) maxGauge(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m int64
	for _, r := range t.recs {
		if v := r.gauges[name]; v > m {
			m = v
		}
	}
	return m
}

// p50us is the median of the spans named name, in microseconds.
func (t *tracer) p50us(name string) float64 { return t.hist(name).quantile(0.5) }

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event with a duration; "M" = metadata naming a process).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is what the traced run writes. Chrome's about://tracing and
// Perfetto read traceEvents and ignore the other keys.
type traceFile struct {
	TraceEvents []chromeEvent      `json:"traceEvents"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Machine     machine            `json:"machine"`
	Transport   string             `json:"transport"`
	Budget      budget             `json:"budget"`
	Metrics     map[string]float64 `json:"metrics"`
	Dropped     int64              `json:"spans_dropped"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	pids := map[string]int{}
	for _, r := range t.recs {
		pid, ok := pids[r.process]
		if !ok {
			pid = len(pids) + 1
			pids[r.process] = pid
			tf.TraceEvents = append(tf.TraceEvents, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": r.process}})
		}
		tf.Dropped += r.dropped
		for _, s := range r.spans {
			tf.TraceEvents = append(tf.TraceEvents, chromeEvent{
				Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: pid, Tid: r.tid,
				Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
			})
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// rung is one line of a budget: a time measured for one operation at
// some depth of the stack.
type rung struct {
	Rung string  `json:"rung"`
	Us   float64 `json:"us"`
	// Share is Us as a share of the tdp-level operation time.
	Share float64 `json:"share"`
	// Adds names what this rung adds to the rung it extends.
	Adds string `json:"adds"`
	// Extends names the rung this one contains ("" for a standalone
	// layer); DerivedUs is the difference, the derived cost of Adds.
	Extends   string   `json:"extends,omitempty"`
	DerivedUs *float64 `json:"derived_us,omitempty"`
	// Attributed marks the standalone layer measurements whose sum is
	// the attributed part of the operation.
	Attributed bool `json:"attributed"`
}

type budget struct {
	Workload     string  `json:"workload"`
	Op           string  `json:"op"`
	OpUs         float64 `json:"op_us"`
	Rungs        []rung  `json:"rungs"`
	AttributedUs float64 `json:"attributed_us"`
	Unattributed float64 `json:"unattributed_share"`
}

// rungSpec names a rung by the per-layer metric that holds its time.
type rungSpec struct {
	name, metric string
	scale        float64 // multiplier: metric unit to µs, times repeats per op
	adds         string
	extends      string
	attributed   bool
}

// makeBudget fills a budget from the per-layer metrics. The
// unattributed share is 1 - (sum of the attributed rungs) / op time:
// the part of a tdp-level operation that no standalone layer
// measurement explains.
func makeBudget(workload, op string, opUs float64, specs []rungSpec, m map[string]float64) budget {
	b := budget{Workload: workload, Op: op, OpUs: opUs}
	byName := map[string]float64{}
	for _, s := range specs {
		us := m[s.metric] * s.scale
		byName[s.name] = us
		r := rung{Rung: s.name, Us: us, Share: us / opUs, Adds: s.adds, Extends: s.extends, Attributed: s.attributed}
		if s.extends != "" {
			base := 0.0
			for _, e := range strings.Split(s.extends, "+") {
				base += byName[e]
			}
			d := us - base
			r.DerivedUs = &d
		}
		if s.attributed {
			b.AttributedUs += us
		}
		b.Rungs = append(b.Rungs, r)
	}
	b.Unattributed = 1 - b.AttributedUs/opUs
	return b
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "budget %s: %s = %.2f us (p50, traced)\n", b.Workload, b.Op, b.OpUs)
	fmt.Fprintf(w, "  %-18s %10s %7s %12s  %s\n", "rung", "us", "share", "derived_us", "adds")
	for _, r := range b.Rungs {
		d := "-"
		if r.DerivedUs != nil {
			d = fmt.Sprintf("%.3f", *r.DerivedUs)
		}
		mark := ""
		if r.Attributed {
			mark = " [attributed]"
		}
		fmt.Fprintf(w, "  %-18s %10.3f %7.3f %12s  %s%s\n", r.Rung, r.Us, r.Share, d, r.Adds, mark)
	}
	fmt.Fprintf(w, "  attributed %.3f us; unattributed_share %.3f\n", b.AttributedUs, b.Unattributed)
}
