package attrspace

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/telemetry"
)

// API is the attribute-space surface the tdp layer programs against:
// everything Handle (attrops.go, async.go, monitor.go) calls on its
// LASS/CASS connection. Both the raw *Client and the reconnecting
// *Session satisfy it, which is how Config.Resilient swaps one for the
// other without the upper layers noticing.
type API interface {
	Close() error
	Delete(attribute string) error
	Events() <-chan Event
	Get(ctx context.Context, attribute string) (string, error)
	GetAsync(attribute string) (<-chan Result, error)
	GetGlobal(ctx context.Context, attribute string) (string, error)
	PutAsync(attribute, value string) (<-chan Result, error)
	PutBatch(pairs []KV) error
	PutBatchCtx(ctx context.Context, pairs []KV) error
	PutBatchGlobal(ctx context.Context, pairs []KV) error
	PutCtx(ctx context.Context, attribute, value string) error
	PutGlobal(ctx context.Context, attribute, value string) error
	SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer)
	Snapshot() (map[string]string, error)
	Subscribe() error
	TryGet(attribute string) (string, error)
	TryGetGlobal(ctx context.Context, attribute string) (string, error)
}

var (
	_ API = (*Client)(nil)
	_ API = (*Session)(nil)
)

// ErrSessionClosed is returned for operations on a Session after Close.
var ErrSessionClosed = errors.New("attrspace: session closed")

// ErrSessionGaveUp reports that the reconnect loop exhausted its attempt
// budget; the session is terminal and every subsequent operation fails
// with this error.
var ErrSessionGaveUp = errors.New("attrspace: session gave up reconnecting")

// Backoff is the reconnect schedule: delays start at Initial, multiply
// by Factor up to Max, and each is randomized by ±Jitter/2 of itself so
// a fleet of daemons reconnecting after a server restart does not
// stampede in lockstep.
type Backoff struct {
	Initial time.Duration
	Max     time.Duration
	Factor  float64
	Jitter  float64 // fraction of the delay randomized, 0..1
}

// DefaultBackoff is the schedule used when SessionConfig.Backoff is
// zero, after applying the TDP_RETRY_INITIAL / TDP_RETRY_MAX duration
// env knobs (the deployment-level override an operator reaches for
// without rebuilding the tool).
func DefaultBackoff() Backoff {
	b := Backoff{Initial: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2.0, Jitter: 0.5}
	if v := os.Getenv("TDP_RETRY_INITIAL"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			b.Initial = d
		}
	}
	if v := os.Getenv("TDP_RETRY_MAX"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			b.Max = d
		}
	}
	if b.Max < b.Initial {
		b.Max = b.Initial
	}
	return b
}

// DefaultMaxAttempts is the consecutive-failure budget of one outage
// when SessionConfig.MaxAttempts is zero and TDP_RETRY_ATTEMPTS unset.
const DefaultMaxAttempts = 8

// SessionConfig configures a reconnecting Session.
type SessionConfig struct {
	Dial    DialFunc // nil = TCPDial
	Addr    string
	Context string

	// Backoff is the reconnect schedule; zero value = DefaultBackoff().
	Backoff Backoff
	// MaxAttempts bounds consecutive failed connect attempts in one
	// outage before the session turns terminal (ErrSessionGaveUp).
	// 0 = DefaultMaxAttempts (or TDP_RETRY_ATTEMPTS), negative = retry
	// forever. The counter resets on every successful connect.
	MaxAttempts int
	// ConnectWait bounds how long one operation waits for a live
	// connection before failing with ErrConnLost. 0 = 15s, negative =
	// wait as long as the caller's context allows.
	ConnectWait time.Duration
	// DialTimeout bounds each individual dial + HELLO round trip.
	// 0 = 3s.
	DialTimeout time.Duration
	// Heartbeat, when > 0, pings the server at this interval on every
	// live connection and declares the connection lost when a ping gets
	// no reply within one interval — catching half-dead transports that
	// never produce a read error. 0 = disabled.
	Heartbeat time.Duration
	// Seed seeds the jitter RNG so tests are deterministic; 0 seeds
	// from the clock.
	Seed int64

	Registry *telemetry.Registry // session.* counters; nil = private registry
	Tracer   *telemetry.Tracer   // per-op spans, passed through to each Client
	Logger   *telemetry.Logger   // reconnect diagnostics; nil discards
}

// seqMark is the session's memory of one attribute: the newest write
// seq it has delivered and whether that write was a delete. It is what
// lets a post-reconnect snapshot diff tell "missed update" from
// "already seen" and "missed delete" from "never existed".
type seqMark struct {
	seq  uint64
	dead bool
}

// Session is a self-healing connection to a LASS or CASS: a Client
// that, when the transport dies, reconnects with jittered exponential
// backoff, re-issues HELLO, replays its subscription, resynchronizes
// its event stream from a versioned snapshot, and retries the
// interrupted operation under the caller's deadline. Idempotent reads
// retry blindly; mutations whose ack was lost are seq-guarded — the
// session probes the attribute on the new connection and only re-sends
// when the probe shows its write is not (or no longer) there, so a
// retried put can never clobber a newer value with a stale one.
//
// Consumers of Events() additionally see Event{Resync: true} markers:
// a bare Op "resync" event first (the gap announcement), then
// synthetic put/delete events replaying what the snapshot diff proved
// was missed. Per-attribute event order stays monotonic in seq across
// any number of reconnects.
type Session struct {
	cfg         SessionConfig
	maxAttempts int

	mu     sync.Mutex
	cur    *Client       // nil while disconnected
	gen    uint64        // bumped on every successful install
	ready  chan struct{} // closed while cur != nil; replaced on loss
	err    error         // terminal error; nil while alive
	subbed bool
	rng    *rand.Rand

	done     chan struct{} // closed exactly once on terminal failure/Close
	doneOnce sync.Once

	// emitMu serializes everything that delivers events downstream —
	// live pushes, resync replays, channel close — so consumers observe
	// one totally-ordered stream and per-attr seq checks are atomic
	// with delivery.
	emitMu   sync.Mutex
	seqs     map[string]seqMark
	ctxSeq   uint64 // newest context seq delivered to consumers
	events   chan Event
	evClosed bool
	handler  func(Event)

	// maxSeq is the newest context seq this session has observed from
	// any ack, reply, or event: the baseline for seq-guarded retries.
	maxSeq atomic.Uint64

	everConnected bool

	cReconnects *telemetry.Counter
	cRetries    *telemetry.Counter
	cGaveUp     *telemetry.Counter
	cResyncs    *telemetry.Counter
}

// NewSession starts a session toward addr/context. It returns
// immediately: the first connection is established by the background
// reconnect loop, and operations issued before it lands simply wait
// (bounded by ConnectWait / their context). Use WaitReady to block
// until the session is live — tdp.Init does, so a missing daemon still
// surfaces as a prompt error when the caller wants one.
func NewSession(cfg SessionConfig) *Session {
	if cfg.Backoff == (Backoff{}) {
		cfg.Backoff = DefaultBackoff()
	}
	if cfg.Backoff.Factor < 1 {
		cfg.Backoff.Factor = 2.0
	}
	if cfg.Backoff.Max < cfg.Backoff.Initial {
		cfg.Backoff.Max = cfg.Backoff.Initial
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
		if v := os.Getenv("TDP_RETRY_ATTEMPTS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n != 0 {
				cfg.MaxAttempts = n
			}
		}
	}
	if cfg.ConnectWait == 0 {
		cfg.ConnectWait = 15 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Session{
		cfg:         cfg,
		maxAttempts: cfg.MaxAttempts,
		ready:       make(chan struct{}),
		done:        make(chan struct{}),
		seqs:        make(map[string]seqMark),
		events:      make(chan Event, 256),
		rng:         rand.New(rand.NewSource(seed)),
	}
	s.bindCounters(cfg.Registry)
	go s.connectLoop()
	return s
}

func (s *Session) bindCounters(reg *telemetry.Registry) {
	s.cReconnects = reg.Counter("session.reconnects")
	s.cRetries = reg.Counter("session.retries")
	s.cGaveUp = reg.Counter("session.gaveup")
	s.cResyncs = reg.Counter("session.resyncs")
}

func (s *Session) log() *telemetry.Logger { return s.cfg.Logger }

// Stats reports the session's lifetime resilience counters:
// reconnects (successful re-establishments after the first connect),
// retries (operations re-issued after a transport failure), and
// resyncs (snapshot-diff replays after a reconnect).
func (s *Session) Stats() (reconnects, retries, resyncs int64) {
	return s.cReconnects.Value(), s.cRetries.Value(), s.cResyncs.Value()
}

// GaveUp reports whether the reconnect loop exhausted its budget and
// turned the session terminal.
func (s *Session) GaveUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Is(s.err, ErrSessionGaveUp)
}

// Up reports whether the session currently holds a live connection.
// False means disconnected: either still dialing the first connection
// or inside a reconnect outage. The shard router uses this as its
// liveness signal.
func (s *Session) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur != nil && s.err == nil
}

// HasConnected reports whether the session has ever held a live
// connection. Up()==false before the first connect means "not yet",
// after it means "lost" — callers that fail fast on outages (the shard
// router) use the distinction to stay permissive during startup.
func (s *Session) HasConnected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.everConnected
}

// WaitReady blocks until the session has a live connection, the
// session turns terminal, or ctx expires.
func (s *Session) WaitReady(ctx context.Context) error {
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.cur != nil {
			s.mu.Unlock()
			return nil
		}
		ready := s.ready
		s.mu.Unlock()
		select {
		case <-ready:
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// jitterDelay randomizes one backoff delay by ±Jitter/2.
func (s *Session) jitterDelay(d time.Duration) time.Duration {
	j := s.cfg.Backoff.Jitter
	if j <= 0 {
		return d
	}
	s.mu.Lock()
	f := s.rng.Float64()
	s.mu.Unlock()
	out := time.Duration(float64(d) * (1 + j*(f-0.5)))
	if out <= 0 {
		out = d
	}
	return out
}

// connectLoop is the single-flight reconnect driver: exactly one runs
// per outage (spawned by NewSession and by lost()), and it exits as
// soon as a connection is installed, the session closes, or the
// attempt budget runs dry.
func (s *Session) connectLoop() {
	delay := s.cfg.Backoff.Initial
	var lastErr error
	for attempt := 1; ; attempt++ {
		s.mu.Lock()
		dead := s.err != nil
		s.mu.Unlock()
		if dead {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DialTimeout)
		c, err := DialCtx(ctx, s.cfg.Dial, s.cfg.Addr, s.cfg.Context)
		cancel()
		if err == nil {
			if s.install(c) {
				return
			}
			// install failed: session closed underneath us, or the
			// subscription replay died — either way count the attempt.
			err = lastErr
			if err == nil {
				err = ErrConnLost
			}
		}
		lastErr = err
		s.log().Debugf("attrspace: session connect %s attempt %d failed: %v", s.cfg.Addr, attempt, err)
		if s.maxAttempts > 0 && attempt >= s.maxAttempts {
			s.cGaveUp.Inc()
			s.log().Errorf("attrspace: session %s gave up after %d attempts: %v", s.cfg.Addr, attempt, err)
			s.fail(fmt.Errorf("%w (%d attempts, last error: %v)", ErrSessionGaveUp, attempt, err))
			return
		}
		t := time.NewTimer(s.jitterDelay(delay))
		select {
		case <-t.C:
		case <-s.done:
			t.Stop()
			return
		}
		delay = time.Duration(float64(delay) * s.cfg.Backoff.Factor)
		if delay > s.cfg.Backoff.Max {
			delay = s.cfg.Backoff.Max
		}
	}
}

// install publishes a freshly-dialed client as the current connection:
// bump the generation, replay the subscription if one is active, wire
// the loss trigger, then resynchronize the event stream. Returns false
// when the client could not be installed (session closed, or the
// subscription replay failed) — the connect loop counts that as a
// failed attempt.
func (s *Session) install(c *Client) bool {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		c.Close()
		return false
	}
	s.gen++
	gen := s.gen
	subbed := s.subbed
	reconnect := s.everConnected
	s.mu.Unlock()

	// The epoch baseline must predate the new subscription: once SUB is
	// live, fresh events advance ctxSeq past whatever snapshot resync
	// will fetch, and comparing against the moving value would misread
	// that race as a context restart.
	s.emitMu.Lock()
	preSeq := s.ctxSeq
	s.emitMu.Unlock()
	var gate *evGate
	if subbed {
		// Handler before SUB: no pushed event can slip past delivery.
		// The gate holds live events back until the resync below has
		// re-established the seq epoch (see evGate).
		gate = &evGate{s: s}
		c.SetEventHandler(gate.handle)
		if err := c.Subscribe(); err != nil {
			c.Close()
			return false
		}
	}
	if s.cfg.Registry != nil || s.cfg.Tracer != nil {
		c.SetTelemetry(s.cfg.Registry, s.cfg.Tracer)
	}

	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		c.Close()
		return false
	}
	s.cur = c
	s.everConnected = true
	close(s.ready)
	s.mu.Unlock()

	if reconnect {
		s.cReconnects.Inc()
		s.log().Infof("attrspace: session reconnected to %s (gen %d)", s.cfg.Addr, gen)
	}
	// The loss trigger arms after publication: if the client is already
	// dead, OnClose fires immediately and tears this generation down.
	c.OnClose(func(error) { s.lost(gen, c) })
	// The heartbeat starts before the resync on purpose: pings running
	// concurrently with a large snapshot replay are exactly the traffic
	// the server's chunked replies exist to keep answering.
	if s.cfg.Heartbeat > 0 {
		go s.heartbeatLoop(gen, c)
	}
	if subbed {
		// SUB is live on the new connection; diff a versioned snapshot
		// against what consumers have already seen and replay the gap,
		// then release the live events the gate held back across the
		// fetch. Released even when the resync itself failed: in the
		// common same-epoch case the held events are fine as-is, and in
		// the epoch-restart case the failed client re-enters the
		// reconnect loop and the next install resyncs again.
		s.resync(c, preSeq)
		gate.release()
	}
	return true
}

// lost retires generation gen: the first caller (the client's OnClose
// hook, or an operation that saw a retryable error) clears the current
// client and spawns the next connect loop; later callers for the same
// generation are no-ops.
func (s *Session) lost(gen uint64, c *Client) {
	s.mu.Lock()
	if s.err != nil || s.gen != gen || s.cur != c {
		s.mu.Unlock()
		return
	}
	s.cur = nil
	s.ready = make(chan struct{})
	s.mu.Unlock()
	c.Close()
	s.log().Debugf("attrspace: session lost connection to %s (gen %d)", s.cfg.Addr, gen)
	go s.connectLoop()
}

// fail turns the session terminal exactly once.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	c := s.cur
	s.cur = nil
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	s.doneOnce.Do(func() { close(s.done) })
	s.emitMu.Lock()
	if !s.evClosed {
		s.evClosed = true
		close(s.events)
	}
	s.emitMu.Unlock()
}

// Close tears the session down. Idempotent.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// client returns the current connection, waiting through an outage if
// necessary. The wait is bounded by ctx and by ConnectWait, whichever
// ends first.
func (s *Session) client(ctx context.Context) (*Client, uint64, error) {
	var bound <-chan time.Time
	if s.cfg.ConnectWait > 0 {
		t := time.NewTimer(s.cfg.ConnectWait)
		defer t.Stop()
		bound = t.C
	}
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return nil, 0, err
		}
		if s.cur != nil {
			c, gen := s.cur, s.gen
			s.mu.Unlock()
			return c, gen, nil
		}
		ready := s.ready
		s.mu.Unlock()
		select {
		case <-ready:
		case <-s.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-bound:
			return nil, 0, fmt.Errorf("%w: no connection to %s after %v", ErrConnLost, s.cfg.Addr, s.cfg.ConnectWait)
		}
	}
}

// noteSeq folds a context seq observed from an ack or reply into the
// retry baseline.
func (s *Session) noteSeq(seq uint64) {
	for {
		cur := s.maxSeq.Load()
		if seq <= cur || s.maxSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Event stream: live delivery, loss, and resync.

// evGate holds one connection's live events back until the
// post-reconnect resync has re-established the seq epoch. Between SUB
// going live and the resync snapshot being applied, deliver would judge
// incoming events against the *previous* connection's per-attribute seq
// marks. Usually that is exactly right — such events are replays or
// fresh writes with higher seqs — but when the context was destroyed
// and recreated while the session was away, the new epoch's seqs
// restart from 1: every live event compares stale against the old
// marks, and the resync snapshot (fetched at a moment that predates
// them) cannot replay them either, so real writes would be dropped for
// good. Holding delivery until resync has run lets applyFullResync
// detect the epoch restart (ctxSeq < preSeq) and reset the marks first;
// the held events then replay against the correct epoch. The buffer is
// bounded in practice by the resync RPC duration (cfg.DialTimeout).
type evGate struct {
	s    *Session
	mu   sync.Mutex
	open bool
	pend []Event
}

func (g *evGate) handle(ev Event) {
	g.mu.Lock()
	if !g.open {
		g.pend = append(g.pend, ev)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	g.s.deliver(ev)
}

// release flushes the held events in arrival order and switches the
// gate to pass-through. The mutex is held across the flush so an event
// arriving concurrently cannot overtake the backlog.
func (g *evGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = true
	for _, ev := range g.pend {
		g.s.deliver(ev)
	}
	g.pend = nil
}

// deliver forwards one server-pushed event downstream, holding the
// per-attribute monotonic-seq invariant across reconnects: an event
// whose seq is not newer than what consumers have already seen for
// that attribute is dropped (it is a replay straddling a reconnect).
func (s *Session) deliver(ev Event) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if ev.Op == "destroy" {
		// The context itself is gone: every per-attr mark is from a
		// seq epoch that no longer exists.
		s.seqs = make(map[string]seqMark)
		s.ctxSeq = 0
		s.forwardLocked(ev)
		return
	}
	if ev.Seq != 0 {
		if mark, ok := s.seqs[ev.Attr]; ok && ev.Seq <= mark.seq {
			return
		}
		s.seqs[ev.Attr] = seqMark{seq: ev.Seq, dead: ev.Op == "delete"}
		if ev.Seq > s.ctxSeq {
			s.ctxSeq = ev.Seq
		}
		s.noteSeq(ev.Seq)
	}
	s.forwardLocked(ev)
}

// forwardLocked hands an event to the consumer; emitMu held. A handler
// sees every event synchronously; the channel drops oldest under a
// lagging consumer, exactly like Client.Events.
func (s *Session) forwardLocked(ev Event) {
	if s.evClosed {
		return
	}
	if s.handler != nil {
		s.handler(ev)
		return
	}
	select {
	case s.events <- ev:
	default:
		select {
		case <-s.events:
		default:
		}
		select {
		case s.events <- ev:
		default:
		}
	}
}

// resync closes the event gap a reconnect opened: fetch a versioned
// snapshot, announce the gap with a bare Resync marker, then replay the
// diff — puts for attributes whose snapshot seq is newer than what
// consumers saw, deletes for attributes consumers believe live that the
// snapshot no longer holds. Stale snapshot entries (an event from the
// new subscription already delivered something newer) are skipped, so
// the per-attr seq order never goes backward.
//
// preSeq is the newest context seq delivered before this reconnect: a
// snapshot whose context seq is below it means the context was
// destroyed and recreated while we were away (seqs restarted), so the
// old epoch's marks are meaningless — consumers get a synthetic
// destroy, then the snapshot replayed as the new truth.
func (s *Session) resync(c *Client, preSeq uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DialTimeout)
	defer cancel()
	if preSeq > 0 {
		ops, full, ctxSeq, err := c.SnapshotDelta(ctx, preSeq)
		switch {
		case err == nil && full != nil:
			// The server's change log was compacted past our gap and it
			// shipped the whole context instead.
			s.applyFullResync(full, ctxSeq, preSeq)
			return
		case err == nil && ctxSeq >= preSeq:
			s.applyDelta(ops, ctxSeq)
			return
		case err == nil:
			// ctxSeq < preSeq: the context was destroyed and recreated
			// while we were away. The delta is from the wrong seq epoch;
			// only a full snapshot can establish the new one.
		default:
			// A transport error here fails the client, which re-triggers
			// the reconnect loop — the next install resyncs again.
			s.log().Debugf("attrspace: session delta resync failed: %v", err)
			return
		}
	}
	snap, ctxSeq, err := c.SnapshotSeq(ctx)
	if err != nil {
		s.log().Debugf("attrspace: session resync snapshot failed: %v", err)
		return
	}
	s.applyFullResync(snap, ctxSeq, preSeq)
}

// applyDelta replays a server-shipped mutation log covering the
// reconnect gap: traffic proportional to what was missed, not to the
// context size. Deletes arrive explicitly, so no presence diff against
// consumer state is needed.
func (s *Session) applyDelta(ops []DeltaOp, ctxSeq uint64) {
	s.cResyncs.Inc()
	s.noteSeq(ctxSeq)
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.forwardLocked(Event{Op: "resync", Seq: ctxSeq, Resync: true})
	for _, op := range ops {
		if mark, ok := s.seqs[op.Attr]; ok && op.Seq <= mark.seq {
			continue // the new subscription already delivered this (or newer)
		}
		s.seqs[op.Attr] = seqMark{seq: op.Seq, dead: op.Delete}
		evOp := "put"
		if op.Delete {
			evOp = "delete"
		}
		s.forwardLocked(Event{Attr: op.Attr, Value: op.Value, Op: evOp, Seq: op.Seq, Resync: true})
	}
	if ctxSeq > s.ctxSeq {
		s.ctxSeq = ctxSeq
	}
}

// applyFullResync diffs a complete versioned snapshot against what
// consumers have seen and replays the difference (see resync).
func (s *Session) applyFullResync(snap map[string]Versioned, ctxSeq, preSeq uint64) {
	s.cResyncs.Inc()
	s.noteSeq(ctxSeq)
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	// Gap announcement first: consumers holding derived state (caches,
	// monitors) learn events may have been missed before the replay.
	s.forwardLocked(Event{Op: "resync", Seq: ctxSeq, Resync: true})
	if ctxSeq < preSeq {
		// New seq epoch: drop every mark and tell consumers the old
		// context is gone before replaying the new one.
		s.seqs = make(map[string]seqMark)
		s.ctxSeq = 0
		s.forwardLocked(Event{Op: "destroy", Resync: true})
	}
	for k, v := range snap {
		if mark, ok := s.seqs[k]; ok && v.Seq <= mark.seq {
			continue // consumers already saw this write (or newer)
		}
		s.seqs[k] = seqMark{seq: v.Seq}
		s.forwardLocked(Event{Attr: k, Value: v.Value, Op: "put", Seq: v.Seq, Resync: true})
	}
	for k, mark := range s.seqs {
		if mark.dead || mark.seq > ctxSeq {
			// Already deleted, or written after the snapshot was taken
			// (a live event overtook the resync): the snapshot cannot
			// speak for it.
			continue
		}
		if _, ok := snap[k]; ok {
			continue
		}
		// Consumers think k is live; the snapshot says it is gone — the
		// delete happened in the gap. Version the synthetic delete with
		// the context seq so a later live put supersedes it.
		s.seqs[k] = seqMark{seq: ctxSeq, dead: true}
		s.forwardLocked(Event{Attr: k, Op: "delete", Seq: ctxSeq, Resync: true})
	}
	if ctxSeq > s.ctxSeq {
		s.ctxSeq = ctxSeq
	}
}

// heartbeatLoop probes one connection generation with periodic PINGs,
// retiring it through the normal loss path when a probe times out. It
// runs alongside everything else the connection does — including a
// chunked snapshot replay, which is why large resyncs no longer read
// as dead transports.
func (s *Session) heartbeatLoop(gen uint64, c *Client) {
	t := time.NewTicker(s.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-s.done:
			return
		}
		s.mu.Lock()
		live := s.err == nil && s.gen == gen && s.cur == c
		s.mu.Unlock()
		if !live {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Heartbeat)
		err := c.Ping(ctx)
		cancel()
		if err != nil {
			s.log().Debugf("attrspace: session heartbeat to %s failed (gen %d): %v", s.cfg.Addr, gen, err)
			s.lost(gen, c)
			return
		}
	}
}

// Events returns the session's event channel. Unlike Client.Events it
// survives reconnects; it closes only when the session turns terminal.
func (s *Session) Events() <-chan Event { return s.events }

// SetEventHandler installs a synchronous per-event callback replacing
// the Events channel, with the same contract as Client.SetEventHandler
// — plus delivery of the session's synthetic Resync events. The
// handler must not call back into this session's blocking operations.
func (s *Session) SetEventHandler(fn func(Event)) {
	s.emitMu.Lock()
	s.handler = fn
	s.emitMu.Unlock()
}

// Subscribe starts event push and keeps it running: the subscription
// is replayed automatically on every reconnect, with a resync filling
// whatever the outage dropped.
func (s *Session) Subscribe() error {
	s.mu.Lock()
	if s.subbed {
		s.mu.Unlock()
		return nil
	}
	s.subbed = true
	s.mu.Unlock()
	return s.retry(context.Background(), func(c *Client) error {
		c.SetEventHandler(func(ev Event) { s.deliver(ev) })
		return c.Subscribe()
	})
}

// ---------------------------------------------------------------------------
// Retry plumbing.

// retry runs op against the current connection, re-issuing it after
// transport failures until it settles, the caller's ctx expires, or the
// session turns terminal. Only for idempotent operations — mutations go
// through the seq-guarded paths below.
func (s *Session) retry(ctx context.Context, op func(*Client) error) error {
	for {
		c, gen, err := s.client(ctx)
		if err != nil {
			return err
		}
		err = op(c)
		if err == nil || !IsRetryable(err) {
			return err
		}
		s.cRetries.Inc()
		s.lost(gen, c)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
}

// retryVal is retry for operations returning a value.
func retryVal[T any](s *Session, ctx context.Context, op func(*Client) (T, error)) (T, error) {
	var out T
	err := s.retry(ctx, func(c *Client) error {
		var e error
		out, e = op(c)
		return e
	})
	return out, err
}

// putOutcome is what a post-failure probe concluded about an
// interrupted mutation.
type putOutcome int

const (
	outcomeResend     putOutcome = iota // no evidence the write landed: re-send
	outcomeLanded                       // the write is present: done
	outcomeSuperseded                   // a newer write exists: re-sending would clobber it
)

// probePut decides an interrupted put's fate by reading the attribute
// on the (new) connection and comparing seqs against base — the newest
// context seq the session had observed before issuing the put:
//
//	value == ours                → landed (re-sending is at worst a no-op)
//	absent                       → not landed (or landed and deleted —
//	                               single-writer attributes make this
//	                               the put that simply never arrived)
//	value != ours, seq <= base   → the pre-put value: not landed
//	value != ours, seq >  base   → someone wrote after us; treat our
//	                               put as superseded rather than
//	                               re-sending a stale value over it
func (s *Session) probePut(ctx context.Context, c *Client, attribute, value string, base uint64) (putOutcome, error) {
	v, seq, err := c.TryGetV(ctx, attribute)
	if errors.Is(err, ErrNotFound) {
		return outcomeResend, nil
	}
	if err != nil {
		return outcomeResend, err
	}
	s.noteSeq(seq)
	if v == value {
		return outcomeLanded, nil
	}
	if seq > base {
		return outcomeSuperseded, nil
	}
	return outcomeResend, nil
}

// putGuarded is the seq-guarded retry loop shared by every
// ack-carrying mutation: issue the op; when the transport dies with
// the ack in flight (fate unknown), probe before re-sending so a
// retried write never overwrites a newer one with a stale value.
func (s *Session) putGuarded(ctx context.Context, issue func(*Client) (uint64, error),
	probe func(context.Context, *Client, uint64) (putOutcome, error)) error {
	base := s.maxSeq.Load()
	for {
		c, gen, err := s.client(ctx)
		if err != nil {
			return err
		}
		seq, err := issue(c)
		if err == nil {
			s.noteSeq(seq)
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		s.cRetries.Inc()
		s.lost(gen, c)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Fate unknown: probe on a fresh connection before re-sending.
		outcome, err := retryVal(s, ctx, func(c *Client) (putOutcome, error) {
			return probe(ctx, c, base)
		})
		if err != nil {
			return err
		}
		if outcome != outcomeResend {
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// The API surface.

// Put stores attribute = value, surviving transport failures.
func (s *Session) Put(attribute, value string) error {
	return s.PutCtx(context.Background(), attribute, value)
}

// PutCtx is Put under a caller deadline. An ack lost to a connection
// failure is resolved by probing the attribute on the next connection
// (see probePut); the retried put never clobbers a newer value.
func (s *Session) PutCtx(ctx context.Context, attribute, value string) error {
	return s.putGuarded(ctx,
		func(c *Client) (uint64, error) { return c.PutV(ctx, attribute, value) },
		func(ctx context.Context, c *Client, base uint64) (putOutcome, error) {
			return s.probePut(ctx, c, attribute, value, base)
		})
}

// PutBatch stores every pair in order, surviving transport failures.
func (s *Session) PutBatch(pairs []KV) error {
	return s.PutBatchCtx(context.Background(), pairs)
}

// PutBatchCtx is PutBatch under a caller deadline. A batch whose ack
// was lost is probed through its final pair — the batch applies in
// order, so the last pair present with a post-base seq means the whole
// batch landed.
func (s *Session) PutBatchCtx(ctx context.Context, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	last := pairs[len(pairs)-1]
	return s.putGuarded(ctx,
		func(c *Client) (uint64, error) { return c.PutBatchV(ctx, pairs) },
		func(ctx context.Context, c *Client, base uint64) (putOutcome, error) {
			return s.probePut(ctx, c, last.Key, last.Value, base)
		})
}

// Delete removes an attribute, surviving transport failures.
func (s *Session) Delete(attribute string) error {
	return s.DeleteCtx(context.Background(), attribute)
}

// DeleteCtx is Delete under a caller deadline. A delete whose ack was
// lost re-sends only while the attribute still holds a value from
// before the call (seq <= base): absence means it landed, and a newer
// value means re-deleting would destroy a write that superseded us.
func (s *Session) DeleteCtx(ctx context.Context, attribute string) error {
	return s.putGuarded(ctx,
		func(c *Client) (uint64, error) { return c.DeleteV(ctx, attribute) },
		func(ctx context.Context, c *Client, base uint64) (putOutcome, error) {
			_, seq, err := c.TryGetV(ctx, attribute)
			if errors.Is(err, ErrNotFound) {
				return outcomeLanded, nil
			}
			if err != nil {
				return outcomeResend, err
			}
			s.noteSeq(seq)
			if seq > base {
				return outcomeSuperseded, nil
			}
			return outcomeResend, nil
		})
}

// Get blocks until the attribute exists, retrying across reconnects;
// cancel via ctx.
func (s *Session) Get(ctx context.Context, attribute string) (string, error) {
	return retryVal(s, ctx, func(c *Client) (string, error) {
		v, seq, err := c.GetV(ctx, attribute)
		if err == nil {
			s.noteSeq(seq)
		}
		return v, err
	})
}

// TryGet returns the current value without blocking, retrying across
// reconnects; ErrNotFound when absent.
func (s *Session) TryGet(attribute string) (string, error) {
	return s.TryGetCtx(context.Background(), attribute)
}

// TryGetCtx is TryGet under a caller deadline.
func (s *Session) TryGetCtx(ctx context.Context, attribute string) (string, error) {
	return retryVal(s, ctx, func(c *Client) (string, error) {
		v, seq, err := c.TryGetV(ctx, attribute)
		if err == nil {
			s.noteSeq(seq)
		}
		return v, err
	})
}

// GetAsync issues a blocking GET whose result is delivered on the
// returned channel, retried across reconnects like Get.
func (s *Session) GetAsync(attribute string) (<-chan Result, error) {
	out := make(chan Result, 1)
	go func() {
		v, err := s.Get(context.Background(), attribute)
		out <- Result{Attr: attribute, Value: v, Err: err}
	}()
	return out, nil
}

// PutAsync issues a put whose acknowledgement is delivered on the
// returned channel, with the same seq-guarded retry as PutCtx.
func (s *Session) PutAsync(attribute, value string) (<-chan Result, error) {
	out := make(chan Result, 1)
	go func() {
		err := s.PutCtx(context.Background(), attribute, value)
		out <- Result{Attr: attribute, Value: value, Err: err}
	}()
	return out, nil
}

// Snapshot dumps the context, retrying across reconnects.
func (s *Session) Snapshot() (map[string]string, error) {
	return retryVal(s, context.Background(), func(c *Client) (map[string]string, error) {
		return c.Snapshot()
	})
}

// SnapshotSeq dumps the context with per-attribute write seqs,
// retrying across reconnects.
func (s *Session) SnapshotSeq(ctx context.Context) (map[string]Versioned, uint64, error) {
	type versioned struct {
		snap map[string]Versioned
		seq  uint64
	}
	out, err := retryVal(s, ctx, func(c *Client) (versioned, error) {
		snap, seq, err := c.SnapshotSeq(ctx)
		return versioned{snap, seq}, err
	})
	return out.snap, out.seq, err
}

// PutGlobal stores a global (CASS) attribute through this LASS,
// surviving transport failures; a lost ack is resolved by re-reading
// the global value (the G* protocol carries no seqs, so the guard is
// by value: present-and-equal means landed).
func (s *Session) PutGlobal(ctx context.Context, attribute, value string) error {
	return s.putGuarded(ctx,
		func(c *Client) (uint64, error) { return 0, c.PutGlobal(ctx, attribute, value) },
		func(ctx context.Context, c *Client, _ uint64) (putOutcome, error) {
			v, err := c.TryGetGlobal(ctx, attribute)
			if errors.Is(err, ErrNotFound) {
				return outcomeResend, nil
			}
			if err != nil {
				return outcomeResend, err
			}
			if v == value {
				return outcomeLanded, nil
			}
			return outcomeResend, nil
		})
}

// PutBatchGlobal stores a batch of global attributes, surviving
// transport failures (probed through the final pair, like
// PutBatchCtx).
func (s *Session) PutBatchGlobal(ctx context.Context, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	last := pairs[len(pairs)-1]
	return s.putGuarded(ctx,
		func(c *Client) (uint64, error) { return 0, c.PutBatchGlobal(ctx, pairs) },
		func(ctx context.Context, c *Client, _ uint64) (putOutcome, error) {
			v, err := c.TryGetGlobal(ctx, last.Key)
			if errors.Is(err, ErrNotFound) {
				return outcomeResend, nil
			}
			if err != nil {
				return outcomeResend, err
			}
			if v == last.Value {
				return outcomeLanded, nil
			}
			return outcomeResend, nil
		})
}

// GetGlobal blocks until the global attribute exists, retrying across
// reconnects.
func (s *Session) GetGlobal(ctx context.Context, attribute string) (string, error) {
	return retryVal(s, ctx, func(c *Client) (string, error) {
		return c.GetGlobal(ctx, attribute)
	})
}

// TryGetGlobal returns the global attribute's value without blocking,
// retrying across reconnects.
func (s *Session) TryGetGlobal(ctx context.Context, attribute string) (string, error) {
	return retryVal(s, ctx, func(c *Client) (string, error) {
		return c.TryGetGlobal(ctx, attribute)
	})
}

// SnapshotGlobalMany snapshots several global contexts in one GSNAPM
// scatter-gather, retrying across reconnects (reads are idempotent).
func (s *Session) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	return retryVal(s, ctx, func(c *Client) (map[string]map[string]string, error) {
		return c.SnapshotGlobalMany(ctx, contexts)
	})
}

// GlobalContexts lists the context names alive across the global
// space, retrying across reconnects.
func (s *Session) GlobalContexts(ctx context.Context) ([]string, error) {
	return retryVal(s, ctx, func(c *Client) ([]string, error) {
		return c.GlobalContexts(ctx)
	})
}

// SetTelemetry installs the registry the session's resilience counters
// (session.reconnects / retries / gaveup / resyncs) count into, and
// the registry + tracer handed to every underlying client connection.
func (s *Session) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.mu.Lock()
	if reg != nil {
		s.cfg.Registry = reg
	}
	if tracer != nil {
		s.cfg.Tracer = tracer
	}
	reg, tracer = s.cfg.Registry, s.cfg.Tracer
	c := s.cur
	s.mu.Unlock()
	if reg != nil {
		s.bindCounters(reg)
	}
	if c != nil {
		c.SetTelemetry(reg, tracer)
	}
}
