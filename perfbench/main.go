// Command perfbench is the repository's end-to-end benchmark. It brings
// up TDP daemons (LASS, caching LASS, CASS shards) and handles inside
// its own process, drives one seeded workload through the public API,
// checks every result, and prints its metrics: the end-to-end set with
// --trace 0, the per-layer set with --trace 1. README.md maps each
// metric to the layer and workload it belongs to.
//
//	perfbench --workload local-rpc --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// workload is one seeded operation stream and the world it runs in.
// The constructor generates every input from the seed; setup brings
// the world up (daemons listening, handles through tdp_init, preload
// done) and may be repeated after teardown.
type workload interface {
	setup() error
	// run drives the operation stream for d. tr is nil when untraced.
	run(d time.Duration, tr *tracer, st *runStats)
	// check verifies the final state; mismatches count as failures.
	check(st *runStats)
	teardown()
	// server is the LASS whose counters the per-layer metrics read.
	server() *attrspace.Server
	// sample returns the workload's own request and reply messages and
	// attribute set, for the standalone layer measurements.
	sample() (req, reply *wire.Message, keys []string)
}

var workloads = []string{"local-rpc", "status-stream", "global-sharded", "job-launch"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "local-rpc":
		return newLocalRPC(seed), nil
	case "status-stream":
		return newStatusStream(seed), nil
	case "global-sharded":
		return newGlobalSharded(seed), nil
	case "job-launch":
		return newJobLaunch(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemons sees, measured with
// tracing off; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics; README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"wire.codec_ns", "ns"}, {"wire.conn_ns", "ns"}, {"wire.mux_ns", "ns"},
	{"wire.shmring_hot_us", "us"}, {"wire.shmring_idle_us", "us"}, {"wire.shmring_setup_us", "us"},
	{"wire.msgs_per_op", "count"}, {"wire.bytes_per_op", "bytes"}, {"wire.mux_stalls_per_op", "count"},
	{"attr.put_ns", "ns"}, {"attr.tryget_ns", "ns"}, {"attr.fanout_us", "us"}, {"attr.join_leave_us", "us"},
	{"attrspace.client.put_us", "us"}, {"attrspace.client.tryget_us", "us"}, {"attrspace.client.pipe_put_us", "us"},
	{"attrspace.server.put_p50_us", "us"}, {"attrspace.server.tryget_p50_us", "us"},
	{"attrspace.client.event_us", "us"}, {"attrspace.client.dial_us", "us"},
	{"attrspace.server.events_coalesced_ratio", "ratio"}, {"attrspace.server.puts_per_mput", "count"},
	{"attrspace.router.put_us", "us"}, {"attrspace.router.snapshot_many_us", "us"}, {"attrspace.router.cass_put_us", "us"},
	{"attrspace.cache.hit_ratio", "ratio"}, {"attrspace.cache.invalidations_per_put", "count"},
	{"attrspace.router.pooled_per_op", "count"},
	{"events.post_to_run_us", "us"},
	{"tdp.put_us", "us"}, {"tdp.tryget_us", "us"}, {"tdp.get_us", "us"},
	{"tdp.async_put_issue_us", "us"}, {"tdp.async_put_to_event_us", "us"}, {"tdp.service_events_us", "us"},
	{"tdp.pending_events_max", "count"},
	{"tdp.get_global_us", "us"}, {"tdp.put_global_us", "us"}, {"tdp.snapshot_global_many_us", "us"},
	{"tdp.init_us", "us"}, {"tdp.exit_us", "us"}, {"tdp.create_process_us", "us"}, {"tdp.attach_us", "us"},
	{"tdp.continue_to_exit_us", "us"},
	{"procsim.spawn_paused_us", "us"},
	{"event_p50_us", "us"}, {"event_p99_us", "us"}, {"event_delivered_ratio", "ratio"}, {"gen_lag_p99_us", "us"},
	{"allocs_per_op", "count"}, {"alloc_bytes_per_op", "bytes"}, {"gc_per_kop", "count"},
	{"unattributed_share", "ratio"}, {"trace_overhead_share", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string // trace files and budget tables
	tmp      string // parent of the run's own temp directory
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRepeats is how many times a run brings its world up to time
// set-up; set-up takes milliseconds, so one sample would be noise.
const setupRepeats = 21

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: local-rpc, status-stream, global-sharded or job-launch")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for trace files")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "parent of each run's temp directory")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the result line. The report
// lines it writes to w come before that line.
func run(o options, w io.Writer) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, errors.New("--trace must be 0 or 1")
	}
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		return result{}, err
	}
	var res result
	err := withRunTempDir(o.tmp, func() error {
		transport, err := probeTransport()
		if err != nil {
			return err
		}
		m := machineShape()
		fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d\n", o.workload, o.seed, o.seconds, o.trace)
		fmt.Fprintf(w, "machine nproc=%d gomaxprocs=%d cpu=%q go=%s transport=%s\n",
			m.NProc, m.GOMAXPROCS, m.CPU, m.GoVersion, transport)
		if o.trace == 1 {
			res, err = tracedRun(o, transport, w)
		} else {
			res, err = timedRun(o, w)
		}
		return err
	})
	return res, err
}

func window(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warmup lets lazy set-up finish and caches fill before timing.
func warmup(d time.Duration) time.Duration {
	if w := d / 10; w < time.Second {
		return w
	}
	return time.Second
}

// bringUp sets the world up setupRepeats times, tearing down all but
// the last, and returns the median set-up time.
func bringUp(wl workload) (time.Duration, error) {
	var ts []time.Duration
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0))
		if i < setupRepeats-1 {
			wl.teardown()
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)/2], nil
}

// timedRun is the untraced run: the end-to-end metrics.
func timedRun(o options, w io.Writer) (result, error) {
	wl, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	setup, err := bringUp(wl)
	if err != nil {
		return result{}, err
	}
	defer wl.teardown()
	d := window(o)
	var discard, st runStats
	wl.run(warmup(d), nil, &discard)
	cpu0, t0 := cpuTime(), time.Now()
	wl.run(d, nil, &st)
	elapsed, cpu := time.Since(t0), cpuTime()-cpu0
	wl.check(&st)

	done := completed(o.workload, &st)
	if done <= 0 {
		return result{}, fmt.Errorf("no operation completed (%d attempted, %d failed: %v)", st.attempted, st.failed, st.errs)
	}
	vals := map[string]float64{
		"setup_s":       setup.Seconds(),
		"ops_per_s":     float64(done) / elapsed.Seconds(),
		"op_p50_us":     st.op.quantile(0.50),
		"op_p99_us":     st.op.quantile(0.99),
		"cpu_us_per_op": float64(cpu.Microseconds()) / float64(done),
		"rss_peak_mb":   peakRSSMB(),
	}
	fmt.Fprintf(w, "samples op=%d setup=%d window=%.3fs completed=%d\n", st.op.n, setupRepeats, elapsed.Seconds(), done)
	fmt.Fprintf(w, "fail_ratio %.6f (%d of %d)\n", float64(st.failed)/float64(st.attempted), st.failed, st.attempted)
	if o.workload == "status-stream" {
		fmt.Fprintf(w, "event_p50_us %.3f event_p99_us %.3f (n=%d) event_delivered_ratio %.4f\n",
			st.ev.quantile(0.5), st.ev.quantile(0.99), st.ev.n, float64(st.delivered)/float64(st.acked))
		fmt.Fprintf(w, "gen_lag_p50_us %.3f gen_lag_p99_us %.3f (n=%d)\n", st.lag.quantile(0.5), st.lag.quantile(0.99), st.lag.n)
	}
	for _, e := range st.errs {
		fmt.Fprintln(w, "failure:", e)
	}
	return makeResult(&st, endToEnd, vals), nil
}

// completed counts the operations that finished without failing. For
// status-stream an operation is an acknowledged put.
func completed(workload string, st *runStats) int64 {
	if workload == "status-stream" {
		return st.acked
	}
	return st.attempted - st.failed
}

func makeResult(st *runStats, defs []metricDef, vals map[string]float64) result {
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// tracedRun replays the chosen workload with a span around every call
// into a layer, alternating traced and untraced chunks so the tracing
// overhead is measured; replays the other three workloads briefly, so
// that every per-layer metric has a value; and times the standalone
// layer ladder on the chosen workload's own messages and keys. It
// writes the spans and the budget table under o.out.
func tracedRun(o options, transport string, w io.Writer) (result, error) {
	tr := newTracer()
	d := window(o)
	m := map[string]float64{}
	var total runStats
	var primaryOps int64
	var opP50 float64
	order := []string{o.workload}
	for _, name := range workloads {
		if name != o.workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		wl, err := newWorkload(name, o.seed)
		if err != nil {
			return result{}, err
		}
		if err := wl.setup(); err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		var discard, st, untraced runStats
		var mem memDelta
		wl.run(warmup(d), nil, &discard)
		before := wl.server().Telemetry().Snapshot()
		if name == o.workload {
			const rounds = 4
			chunk := d / (2 * rounds)
			for r := 0; r < rounds; r++ {
				wl.run(chunk, nil, &untraced)
				mem.start()
				wl.run(chunk, tr, &st)
				mem.stop()
			}
		} else {
			short := d / 4
			if short > time.Second {
				short = time.Second
			}
			wl.run(short, tr, &st)
		}
		after := wl.server().Telemetry().Snapshot()
		wl.check(&st)
		wl.teardown()
		if name == o.workload {
			// The ladder runs next to the replay it is compared with, so
			// both see the machine in the same state.
			req, reply, keys := wl.sample()
			layers, err := runLadder(tr.recorder("ladder"), req, reply, keys)
			if err != nil {
				return result{}, err
			}
			for k, v := range layers {
				m[k] = v
			}
		}
		if st.failed > 0 {
			for _, e := range st.errs {
				fmt.Fprintln(w, "failure:", name+":", e)
			}
		}
		all := st
		all.merge(&untraced)
		total.attempted += all.attempted
		total.failed += all.failed
		done := completed(name, &all)
		c := counterDelta{before, after}
		switch name {
		case "local-rpc":
			m["attrspace.server.put_p50_us"] = c.histP50us("attrspace.latency.put")
			m["attrspace.server.tryget_p50_us"] = c.histP50us("attrspace.latency.tryget")
		case "status-stream":
			m["attrspace.server.events_coalesced_ratio"] = c.ratio("attrspace.events.coalesced", "attrspace.events.pushed")
			m["attrspace.server.puts_per_mput"] = float64(all.acked) /
				float64(c.get("attrspace.ops.mput")+c.get("attrspace.ops.put"))
			m["event_p50_us"] = all.ev.quantile(0.5)
			m["event_p99_us"] = all.ev.quantile(0.99)
			m["event_delivered_ratio"] = float64(all.delivered) / float64(all.acked)
			m["gen_lag_p99_us"] = all.lag.quantile(0.99)
		case "global-sharded":
			hits := c.get("attrspace.cache.hits")
			m["attrspace.cache.hit_ratio"] = float64(hits) / float64(hits+c.get("attrspace.cache.misses"))
			m["attrspace.cache.invalidations_per_put"] = c.ratio("attrspace.cache.invalidations", "attrspace.ops.gput")
			m["attrspace.router.pooled_per_op"] = float64(c.get("attrspace.router.pooled")) / float64(done)
		}
		if name != o.workload {
			continue
		}
		primaryOps = all.op.n
		m["wire.msgs_per_op"] = float64(c.get("wire.tx.msgs")+c.get("wire.rx.msgs")) / float64(done)
		m["wire.bytes_per_op"] = float64(c.get("wire.tx.bytes")+c.get("wire.rx.bytes")) / float64(done)
		m["wire.mux_stalls_per_op"] = float64(c.get("wire.mux.stalls")) / float64(done)
		tracedDone := completed(name, &st)
		m["allocs_per_op"] = float64(mem.mallocs) / float64(tracedDone)
		m["alloc_bytes_per_op"] = float64(mem.bytes) / float64(tracedDone)
		m["gc_per_kop"] = 1000 * float64(mem.gcs) / float64(tracedDone)
		m["trace_overhead_share"] = st.op.quantile(0.5)/untraced.op.quantile(0.5) - 1
		opP50 = st.op.quantile(0.5)
	}

	for _, span := range []string{"tdp.put", "tdp.tryget", "tdp.get",
		"tdp.async_put_issue", "tdp.async_put_to_event", "tdp.service_events",
		"tdp.get_global", "tdp.put_global", "tdp.snapshot_global_many",
		"tdp.init", "tdp.exit", "tdp.create_process", "tdp.attach", "tdp.continue_to_exit"} {
		m[span+"_us"] = tr.p50us(span)
	}
	m["tdp.pending_events_max"] = float64(tr.maxGauge("tdp.pending_events_max"))

	b := budgetFor(o.workload, tr, m)
	m["unattributed_share"] = b.Unattributed

	fmt.Fprintf(w, "samples op=%d (traced and untraced chunks) traced op_p50_us %.3f\n", primaryOps, opP50)
	fmt.Fprintf(w, "fail_ratio %.6f (%d of %d, all replays)\n", float64(total.failed)/float64(total.attempted),
		total.failed, total.attempted)
	b.print(w)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	if err := tr.write(path, traceFile{Workload: o.workload, Seed: o.seed, Machine: machineShape(),
		Transport: transport, Budget: b, Metrics: m}); err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, "trace", path)
	return makeResult(&total, perLayer, m), nil
}

// budgetOps names the tdp-level operation each workload's budget splits.
var budgetOps = map[string]string{
	"local-rpc":      "tdp.put",
	"status-stream":  "tdp.async_put_to_event",
	"global-sharded": "tdp.put_global",
	"job-launch":     "job.launch",
}

// budgetRungs lays out each workload's rungs, from the standalone layer
// measurements up to the operation itself ("op").
var budgetRungs = map[string][]rungSpec{
	"local-rpc": {
		{"codec", "wire.codec_ns", 1e-3, "encode+decode of request and reply", "", true},
		{"pipe", "wire.conn_ns", 1e-3, "framing, two goroutine hand-offs over net.Pipe", "codec", false},
		{"mux", "wire.mux_ns", 1e-3, "stream mux on the control stream", "pipe", false},
		{"apply", "attr.put_ns", 1e-3, "attr.Space apply", "", true},
		{"ring-hot", "wire.shmring_hot_us", 1, "shm ring round trip, spin path", "", true},
		{"client-over-pipe", "attrspace.client.pipe_put_us", 1, "client and server dispatch", "mux+apply", false},
		{"client-over-shm", "attrspace.client.put_us", 1, "shm ring in place of the pipe", "client-over-pipe", false},
		{"tdp", "op", 1, "tdp handle, two loaded clients", "client-over-shm", false},
	},
	"status-stream": {
		{"codec", "wire.codec_ns", 1e-3, "encode+decode of MPUT and EVENT", "", true},
		{"ring-idle", "wire.shmring_idle_us", 1, "ring round trip from a parked peer", "", true},
		{"fanout", "attr.fanout_us", 1, "apply and subscription fan-out", "", true},
		{"post-to-run", "events.post_to_run_us", 1, "tdp events queue and poll loop", "", true},
		{"client-event", "attrspace.client.event_us", 1, "client put to watcher event over shm", "", false},
		{"tdp", "op", 1, "async put batching, WatchUpdates", "client-event+post-to-run", false},
	},
	"global-sharded": {
		{"codec", "wire.codec_ns", 1e-3, "encode+decode of GPUT and reply", "", false},
		{"cass-put", "attrspace.router.cass_put_us", 1, "client put to a CASS shard over TCP", "", true},
		{"router-put", "attrspace.router.put_us", 1, "GlobalCache routing, pooled shard conn", "cass-put", false},
		{"local-hop", "attrspace.client.put_us", 1, "client put to the LASS over shm", "", true},
		{"tdp", "op", 1, "caching LASS G-verb dispatch", "router-put+local-hop", false},
	},
	"job-launch": {
		{"spawn", "procsim.spawn_paused_us", 1, "procsim spawn, run to exit, reap", "", true},
		{"shm-setup", "wire.shmring_setup_us", 2, "two ring pairs set up and torn down", "", true},
		{"dial", "attrspace.client.dial_us", 2, "two dials: HELLO, shm cutover, close", "shm-setup", false},
		{"join-leave", "attr.join_leave_us", 2, "two context joins and leaves", "", true},
		{"tdp", "op", 1, "tdp calls, attach, probe, continue, exit", "spawn+dial+join-leave", false},
	},
}

// budgetFor splits the median traced time of the workload's operation
// into its rungs.
func budgetFor(name string, tr *tracer, m map[string]float64) budget {
	op := budgetOps[name]
	vals := maps.Clone(m)
	vals["op"] = tr.p50us(op)
	return makeBudget(name, op, vals["op"], budgetRungs[name], vals)
}

// counterDelta reads telemetry differences between two snapshots of
// one registry.
type counterDelta struct{ before, after telemetry.Snapshot }

func (c counterDelta) get(name string) int64 { return c.after.Counters[name] - c.before.Counters[name] }

func (c counterDelta) ratio(num, den string) float64 {
	return float64(c.get(num)) / float64(c.get(den))
}

// histP50us is the median of the observations made between the two
// snapshots (the server's histograms record seconds).
func (c counterDelta) histP50us(name string) float64 {
	a, b := c.after.Histograms[name], c.before.Histograms[name]
	d := a
	d.Counts = append([]int64(nil), a.Counts...)
	d.Count -= b.Count
	for i := range b.Counts {
		d.Counts[i] -= b.Counts[i]
	}
	return d.Quantile(0.5) * 1e6
}

// memDelta sums allocation and GC counts over the traced chunks.
type memDelta struct {
	ms                  runtime.MemStats
	mallocs, bytes, gcs uint64
}

func (d *memDelta) start() { runtime.ReadMemStats(&d.ms) }

func (d *memDelta) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	d.mallocs += now.Mallocs - d.ms.Mallocs
	d.bytes += now.TotalAlloc - d.ms.TotalAlloc
	d.gcs += uint64(now.NumGC - d.ms.NumGC)
}
