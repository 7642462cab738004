package tdp

import (
	"strconv"
	"time"

	"tdp/internal/telemetry"
)

// This file wires the unified telemetry layer (internal/telemetry)
// into the public TDP handle. Every tdp_* entry point counts an op and
// observes its latency under "tdp.*" when the Config carries a
// Registry; the configured Tracer flows into the attribute space
// clients so traced operations propagate _tid/_sid to the servers.

// MonitorPrefix is the attribute-name prefix under which daemons
// self-publish their metrics into the attribute space; re-exported
// from internal/telemetry so RM/RT code needs no extra import.
const MonitorPrefix = telemetry.MonitorPrefix

// Telemetry returns the handle's metrics registry (nil when the Config
// carried none).
func (h *Handle) Telemetry() *telemetry.Registry { return h.cfg.Telemetry }

// Tracer returns the handle's span tracer (nil when the Config carried
// none).
func (h *Handle) Tracer() *telemetry.Tracer { return h.cfg.Tracer }

// observe counts one tdp-level operation and starts the stopwatch
// that records its latency; inert without a registry.
func (h *Handle) observe(op string) telemetry.Stopwatch {
	reg := h.cfg.Telemetry
	if reg == nil {
		return telemetry.Stopwatch{}
	}
	reg.Counter("tdp.ops." + op).Inc()
	return reg.Histogram("tdp.latency."+op, nil).Start()
}

// noteEventDepth tracks the completion-callback backlog — the distance
// between async completions arriving and the daemon's poll loop
// servicing them.
func (h *Handle) noteEventDepth() {
	if reg := h.cfg.Telemetry; reg != nil {
		reg.Gauge("tdp.events.pending").Set(int64(h.queue.Len()))
	}
}

// StartMonitorPublisher periodically publishes this handle's registry
// into its local attribute space under MonitorPrefix + identity + ".",
// so any participant can watch the daemon with a plain Get — the same
// mechanism the paper uses for process status (§2.3). Counters and
// gauges publish their value; histograms publish ".count", ".p50" and
// ".p99". The returned stop function ends publication.
func (h *Handle) StartMonitorPublisher(interval time.Duration) (stop func()) {
	reg := h.cfg.Telemetry
	if reg == nil {
		return func() {}
	}
	prefix := MonitorPrefix + h.cfg.Identity + "."
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			// One batched put per tick: the whole snapshot crosses the
			// wire as a single MPUT instead of one round trip per metric.
			snap := reg.Snapshot()
			pairs := make([]KV, 0, len(snap.Counters)+len(snap.Gauges)+3*len(snap.Histograms))
			for name, v := range snap.Counters {
				pairs = append(pairs, KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
			}
			for name, v := range snap.Gauges {
				pairs = append(pairs, KV{Key: prefix + name, Value: strconv.FormatInt(v, 10)})
			}
			for name, hs := range snap.Histograms {
				pairs = append(pairs,
					KV{Key: prefix + name + ".count", Value: strconv.FormatInt(hs.Count, 10)},
					KV{Key: prefix + name + ".p50", Value: strconv.FormatFloat(hs.Quantile(0.50), 'g', -1, 64)},
					KV{Key: prefix + name + ".p99", Value: strconv.FormatFloat(hs.Quantile(0.99), 'g', -1, 64)})
			}
			h.lass.PutBatch(pairs)
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}
