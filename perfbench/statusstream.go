package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tdp"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// status-stream: an open loop. The RM publishes status-style updates
// with tdp_async_put in paced bursts over a rotating 4096-attribute
// set; the tool holds WatchUpdates, and both handles drain their
// callbacks through an Activity/ServiceEvents poll loop (paper §3.3).
// The offered rate is far below capacity, so the ring idles between
// bursts and every burst takes the park/doorbell wake-up path that a
// saturated loop (local-rpc) never sees. Async-put coalescing (MPUT),
// subscription fan-out and the events queue do the work.

const (
	streamAttrs    = 4096
	streamPeriod   = 5 * time.Millisecond
	streamMinBurst = 12
	streamMaxBurst = 20 // mean 16 puts per 5 ms burst: 3,200 puts/s
	streamSuffixes = 256
	streamBursts   = 1 << 12 // burst-size schedule, cycled
	// streamRing sizes the per-put due/issue time rings. A put's event
	// arrives within milliseconds, far less than the 20 s it takes the
	// pacer to come round the ring.
	streamRing = 1 << 16
)

type statusStream struct {
	ctxName string
	attrs   []string
	index   map[string]int
	order   []int32  // seeded attribute rotation
	sizes   []uint8  // seeded burst sizes
	suffix  []string // seeded value payloads

	srv      *attrspace.Server
	rm, tool *tdp.Handle
	stop     chan struct{}
	loops    sync.WaitGroup

	nextPut int64
	burst   int
	dueNs   []int64 // per put (ring): when its burst was due
	issueNs []int64 // per put (ring): when AsyncPut was called
	epoch   time.Time
	lastVal []string // per attribute: the last value the RM put

	// Callbacks run on the two poll-loop goroutines; mu guards what
	// they record and the recorders the current run installed.
	mu       sync.Mutex
	cur      *runStats
	winLo    int64 // first put index of the current window
	lastSeq  []int64
	rmRec    *recorder
	toolRec  *recorder
	fenceSeq int64
	fenceGot chan struct{}
}

func newStatusStream(seed int64) *statusStream {
	rng := rand.New(rand.NewSource(seed))
	w := &statusStream{ctxName: fmt.Sprintf("stream-%08x", rng.Uint32()), index: make(map[string]int)}
	for i := 0; i < streamAttrs; i++ {
		a := fmt.Sprintf("status.%04d", i)
		w.attrs = append(w.attrs, a)
		w.index[a] = i
	}
	for _, p := range rng.Perm(streamAttrs) {
		w.order = append(w.order, int32(p))
	}
	for i := 0; i < streamBursts; i++ {
		w.sizes = append(w.sizes, uint8(streamMinBurst+rng.Intn(streamMaxBurst-streamMinBurst+1)))
	}
	for i := 0; i < streamSuffixes; i++ {
		w.suffix = append(w.suffix, randValue(rng, 16))
	}
	return w
}

// attrOf and valueOf derive put idx's attribute and value from the
// generated tables: the value carries idx, so the tool can check order
// and find the put's due time.
func (w *statusStream) attrOf(idx int64) int { return int(w.order[idx%streamAttrs]) }

func (w *statusStream) valueOf(idx int64) string {
	return strconv.FormatInt(idx, 10) + "." + w.suffix[idx%streamSuffixes]
}

func (w *statusStream) setup() error {
	srv, addr, err := serveLASS()
	if err != nil {
		return err
	}
	w.srv = srv
	w.nextPut, w.burst = 0, 0
	w.dueNs = make([]int64, streamRing)
	w.issueNs = make([]int64, streamRing)
	w.lastVal = make([]string, streamAttrs)
	w.lastSeq = make([]int64, streamAttrs)
	for i := range w.lastSeq {
		w.lastSeq[i] = -1
	}
	w.epoch = time.Now()
	w.cur = new(runStats)
	w.stop = make(chan struct{})
	w.rm, err = tdp.Init(tdp.Config{Context: w.ctxName, LASSAddr: addr, Identity: "rm"})
	if err == nil {
		w.tool, err = tdp.Init(tdp.Config{Context: w.ctxName, LASSAddr: addr, Identity: "tool"})
	}
	if err == nil {
		err = w.tool.WatchUpdates(w.onUpdate)
	}
	if err != nil {
		w.teardown()
		return err
	}
	w.loops.Add(2)
	go w.pollLoop(w.rm, func() *recorder { return w.rmRec })
	go w.pollLoop(w.tool, func() *recorder { return w.toolRec })
	return nil
}

// pollLoop is a daemon's §3.3 event loop: wait for the tdp descriptor
// to go active, then service the queued callbacks.
func (w *statusStream) pollLoop(h *tdp.Handle, rec func() *recorder) {
	defer w.loops.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-h.Activity():
		}
		w.mu.Lock()
		r := rec()
		w.mu.Unlock()
		if r != nil {
			r.gauge("tdp.pending_events_max", int64(h.PendingEvents()))
		}
		t0 := time.Now()
		h.ServiceEvents()
		r.span("tdp.service_events", t0, 0, 0)
	}
}

func (w *statusStream) nowNs() int64 { return time.Since(w.epoch).Nanoseconds() }

// onPut is the RM's completion callback for one async put.
func (w *statusStream) onPut(r tdp.Result, arg any) {
	idx := arg.(int64)
	now := w.nowNs()
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.cur
	if r.Err != nil {
		st.fail("async put %s: %v", r.Attr, r.Err)
		return
	}
	st.acked++
	st.op.add(time.Duration(now - w.dueNs[idx%streamRing]))
}

// onUpdate is the tool's WatchUpdates callback.
func (w *statusStream) onUpdate(attr, value, op string) {
	now := w.nowNs()
	w.mu.Lock()
	defer w.mu.Unlock()
	if attr == "fence" {
		if n, _ := strconv.ParseInt(value, 10, 64); n == w.fenceSeq && w.fenceGot != nil {
			close(w.fenceGot)
			w.fenceGot = nil
		}
		return
	}
	st := w.cur
	head, _, _ := strings.Cut(value, ".")
	idx, err := strconv.ParseInt(head, 10, 64)
	ai, known := w.index[attr]
	switch {
	case op != "put" || err != nil || !known:
		st.fail("unexpected event %s %s=%q", op, attr, value)
		return
	case w.attrOf(idx) != ai || w.valueOf(idx) != value:
		st.fail("event %s=%q does not match put %d", attr, value, idx)
		return
	case idx <= w.lastSeq[ai]:
		st.fail("event %s=%q arrived after put %d", attr, value, w.lastSeq[ai])
		return
	}
	w.lastSeq[ai] = idx
	if idx < w.winLo {
		return // a put from before this window
	}
	st.delivered++
	st.ev.add(time.Duration(now - w.dueNs[idx%streamRing]))
	if w.toolRec != nil {
		w.toolRec.record(w.toolRec.newID(), "tdp.async_put_to_event", w.epoch.Add(time.Duration(w.issueNs[idx%streamRing])),
			w.epoch.Add(time.Duration(now)), 0, idx)
	}
}

// setTimerSlack asks the kernel to wake this thread's sleeps without
// the default 50 µs slack (PR_SET_TIMERSLACK). Go's own timers round
// sub-millisecond sleeps up to the millisecond when the process is
// idle, which would dominate the due-time latencies; a locked thread in
// nanosleep with no slack wakes within tens of microseconds and burns
// no CPU while it waits.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the remainder
	}
}

func (w *statusStream) run(d time.Duration, tr *tracer, st *runStats) {
	cur := new(runStats)
	w.mu.Lock()
	w.cur, w.winLo = cur, w.nextPut
	w.rmRec, w.toolRec = tr.recorder("status-stream"), tr.recorder("status-stream")
	w.mu.Unlock()
	pacerRec := tr.recorder("status-stream")

	// The pacer is the only load generator; it runs on its own locked
	// thread so the timer-slack setting stays with it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		start := time.Now()
		for b := 0; ; b++ {
			due := start.Add(time.Duration(b) * streamPeriod)
			if due.Sub(start) >= d {
				return
			}
			sleepUntil(due)
			dueNs := due.Sub(w.epoch).Nanoseconds()
			cur.lag.add(time.Since(due))
			n := int(w.sizes[w.burst%streamBursts])
			w.burst++
			for i := 0; i < n; i++ {
				idx := w.nextPut
				w.nextPut++
				ai := w.attrOf(idx)
				val := w.valueOf(idx)
				w.lastVal[ai] = val
				t0 := time.Now()
				w.dueNs[idx%streamRing] = dueNs
				w.issueNs[idx%streamRing] = t0.Sub(w.epoch).Nanoseconds()
				w.mu.Lock()
				cur.attempted++
				w.mu.Unlock()
				if err := w.rm.AsyncPut(w.attrs[ai], val, w.onPut, idx); err != nil {
					w.mu.Lock()
					cur.fail("async put: %v", err)
					w.mu.Unlock()
				}
				pacerRec.span("tdp.async_put_issue", t0, 0, idx)
			}
		}
	}()
	<-done
	w.quiesce(cur)
	w.mu.Lock()
	st.merge(cur)
	w.cur = new(runStats) // late callbacks land nowhere
	w.rmRec, w.toolRec = nil, nil
	w.mu.Unlock()
}

// quiesce waits until every put of the window is acknowledged and then
// until a fence put has reached the tool: events of one connection are
// delivered in order, so every event of the window has been seen (or
// coalesced away) by then.
func (w *statusStream) quiesce(cur *runStats) {
	limit := time.Now().Add(30 * time.Second)
	for {
		w.mu.Lock()
		pending := cur.attempted - cur.acked - cur.failed
		w.mu.Unlock()
		if pending <= 0 {
			break
		}
		if time.Now().After(limit) {
			w.mu.Lock()
			cur.fail("%d async puts never completed", pending)
			w.mu.Unlock()
			return
		}
		time.Sleep(time.Millisecond)
	}
	w.mu.Lock()
	w.fenceSeq++
	got := make(chan struct{})
	w.fenceGot = got
	seq := w.fenceSeq
	w.mu.Unlock()
	if err := w.rm.Put("fence", strconv.FormatInt(seq, 10)); err != nil {
		w.mu.Lock()
		cur.fail("fence put: %v", err)
		w.mu.Unlock()
		return
	}
	select {
	case <-got:
	case <-time.After(30 * time.Second):
		w.mu.Lock()
		cur.fail("fence event never arrived")
		w.mu.Unlock()
	}
}

// check compares the final snapshot with the last put of every
// attribute.
func (w *statusStream) check(st *runStats) {
	snap, err := w.tool.Snapshot()
	if err != nil {
		st.fail("final snapshot: %v", err)
		return
	}
	for ai, want := range w.lastVal {
		if want == "" {
			continue
		}
		if got := snap[w.attrs[ai]]; got != want {
			st.fail("final snapshot %s = %q, last put %q", w.attrs[ai], got, want)
		}
	}
}

func (w *statusStream) teardown() {
	if w.stop != nil {
		close(w.stop)
		w.loops.Wait()
		w.stop = nil
	}
	for _, h := range []*tdp.Handle{w.rm, w.tool} {
		if h != nil {
			h.Exit()
		}
	}
	w.rm, w.tool = nil, nil
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *statusStream) server() *attrspace.Server { return w.srv }

func (w *statusStream) sample() (req, reply *wire.Message, keys []string) {
	req = wire.NewMessage("MPUT").Set("id", "5120").SetInt("n", 16)
	for i := int64(0); i < 16; i++ {
		idx := strconv.Itoa(int(i))
		req.Set("k"+idx, w.attrs[w.attrOf(i)]).Set("v"+idx, w.valueOf(i))
	}
	reply = wire.NewMessage("EVENT").Set("attr", w.attrs[w.attrOf(0)]).Set("value", w.valueOf(0)).
		Set("op", "put").Set("seq", "77310")
	return req, reply, w.attrs
}
