package attrspace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"tdp/internal/attr"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

// ErrNotFound mirrors attr.ErrNotFound on the client side.
var ErrNotFound = attr.ErrNotFound

// ErrClientClosed is returned for operations on a closed client.
var ErrClientClosed = errors.New("attrspace: client closed")

// ErrConnLost reports an operation cut short by a transport failure:
// the connection died between the request and its reply (or while
// sending it). Unlike a server ERROR, the operation's fate is unknown
// — it may or may not have been applied — which is exactly the case a
// Session's seq-guarded retry exists for.
var ErrConnLost = errors.New("attrspace: connection lost")

// ErrServerDraining reports that the server announced a graceful
// shutdown (the CLOSE verb): in-flight replies were still delivered,
// but no new operations are accepted on this connection. A Session
// treats it like a connection loss and reconnects after backoff.
var ErrServerDraining = errors.New("attrspace: server draining")

// DialFunc opens a stream to an attribute space server. Real TCP uses
// net.Dial("tcp", addr); the simulated network uses (*netsim.Host).Dial.
type DialFunc func(addr string) (net.Conn, error)

// TCPDial is the plain TCP DialFunc. The default when none is supplied
// is AutoDial, which prefers the same-host unix socket for loopback
// endpoints; pass TCPDial explicitly to force TCP.
func TCPDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Event is a pushed attribute change received after Subscribe.
type Event struct {
	Attr  string
	Value string
	Op    string // "put", "delete", or "destroy"
	Seq   uint64
	// Lost is the number of updates the server's fan-out ring dropped
	// for this subscriber since the previous event (0 almost always).
	// A consumer mirroring the space — the LASS global cache — must
	// treat any nonzero Lost as a gap and resynchronize.
	Lost uint64
	// Resync marks an event synthesized by a Session after a reconnect
	// rather than pushed live by the server: either the bare gap marker
	// (Op "resync", no Attr) emitted first, or a snapshot-diff replay
	// ("put"/"delete") bringing the consumer's mirror back in step.
	// Consumers holding derived state (the LASS global cache, monitors)
	// must treat the marker as "events may have been missed here".
	Resync bool
}

// KV is one attribute/value pair in a batched put; re-exported from
// the attr engine so wire-level and in-process batches share a type.
type KV = attr.KV

// Client is a connection to a LASS or CASS, joined to one context.
// It is safe for concurrent use; any number of blocking Gets may be
// outstanding simultaneously.
//
// Who reads the connection: whoever holds the read token (reader)
// calls Recv and routes everything it gets through route. On a socket
// the background reader (readLoop) holds the token for the
// connection's whole life, because only a reader learns that the peer
// died. Once the connection runs over the shm ring, whose doorbell
// reports peer death on its own, a caller waiting on a reply borrows
// the token and reads that reply itself (readFor), and the background
// reader runs only while something else needs reading.
type Client struct {
	wc  *wire.Conn
	raw net.Conn
	mux *wire.Mux // stream mux; every request and reply passes through it

	mu       sync.Mutex
	nextID   uint64
	slots    map[uint64]*replySlot // outstanding requests by id
	free     []*replySlot          // recycled slots
	closed   bool
	draining bool // server sent CLOSE; no new sends, replies still land
	err      error

	// Read token state. wake rouses the background reader once it has
	// given the token up; dead is the ring's doorbell-death signal (nil
	// on a socket); evq holds events a borrowing caller read, which only
	// the background reader may deliver.
	reader tokenHolder
	wake   chan struct{}
	dead   <-chan struct{}
	evq    []Event

	events  chan Event
	handler func(Event) // when set, replaces the events channel
	onClose func(error)
	subbed  bool

	// shmActive is set once the transport-v3 cutover completed; from
	// then on callers may borrow the read token.
	shmActive bool

	// Async-put coalescing state: queued puts accumulate in putq while
	// a flush is in flight and leave as one MPUT.
	putq     []pendingPut
	flushing bool

	// Optional telemetry, installed by SetTelemetry. reg counts
	// per-verb ops and latencies under "client.*"; tracer starts a
	// root span per operation when the caller supplied none.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// tokenHolder says who holds a client's read token.
type tokenHolder uint8

const (
	noReader tokenHolder = iota
	backgroundReader
	callerReader
)

// replySlot is one outstanding request's entry in the reply table.
// Slots are recycled, so a steady stream of requests allocates neither
// slots nor channels.
type replySlot struct {
	id    uint64
	ch    chan *wire.Message // cap 1: the final reply, or fail's synthetic ERROR
	parts []*wire.Message    // interior parts of a chunked reply, in order
	// swap is the ring endpoint to cut the read side over to when this
	// request — SHMRDY — is answered OK (see upgradeShm).
	swap *wire.ShmEndpoint
}

// newClient wraps an open connection and starts its background reader,
// which owns the read side until a shm cutover lets callers borrow it.
func newClient(raw net.Conn) *Client {
	wc := wire.NewConn(raw)
	c := &Client{
		wc:     wc,
		raw:    raw,
		mux:    wire.NewMux(wc, wire.MuxConfig{}),
		slots:  make(map[uint64]*replySlot),
		events: make(chan Event, 64),
		wake:   make(chan struct{}, 1),
		reader: backgroundReader,
	}
	go c.readLoop()
	return c
}

// Dial connects to the server at addr using dial and joins the named
// context. Every Dial must be balanced by Close, which performs the
// tdp_exit half of the context's reference counting.
func Dial(dial DialFunc, addr, contextName string) (*Client, error) {
	return DialCtx(context.Background(), dial, addr, contextName)
}

// DialCtx is Dial bounded by a context: a deadline or cancellation
// covers the HELLO round trip, so a server that accepts connections
// but never replies (hung, not dead) cannot wedge the caller. The
// fault supervisor's service pings and the Session reconnect loop
// depend on this bound.
func DialCtx(ctx context.Context, dial DialFunc, addr, contextName string) (*Client, error) {
	if dial == nil {
		dial = AutoDial
	}
	raw, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("attrspace: dial %s: %w", addr, err)
	}
	c := newClient(raw)
	// Watchdog: a cancelled handshake closes the transport, which fails
	// the read loop and errors the pending HELLO promptly. It is stopped
	// and waited for before the client is handed out, so a deadline
	// that expires as the handshake completes cannot close the
	// connection under a caller that was told it succeeded.
	stopWatchdog := func() bool { return false }
	if ctx.Done() != nil {
		stop := make(chan struct{})
		fired := make(chan bool, 1)
		go func() {
			select {
			case <-ctx.Done():
				raw.Close()
				fired <- true
			case <-stop:
				fired <- false
			}
		}()
		stopWatchdog = func() bool {
			close(stop)
			return <-fired
		}
	}
	err = c.handshake(ctx, contextName)
	if stopWatchdog() && err == nil {
		err = fmt.Errorf("attrspace: hello: %w", ctx.Err())
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake joins contextName with HELLO and, when the server granted
// the shm ring, cuts over to it. The ring is only meaningful (and only
// safe — both ends must reach the same segment file) across a provably
// same-host connection, so it is offered per connection rather than
// unconditionally.
func (c *Client) handshake(ctx context.Context, contextName string) error {
	hello := wire.NewMessage("HELLO").Set("context", contextName)
	if wire.ShmSupported() && sameHostConn(c.raw) {
		hello.Set("caps", wire.CapShm)
	}
	reply, err := c.call(ctx, "HELLO", hello)
	if err != nil {
		return fmt.Errorf("attrspace: hello: %w", err)
	}
	if reply.Verb != "OK" {
		return fmt.Errorf("attrspace: hello rejected: %s", reply.Get("error"))
	}
	if wire.ParseCaps(reply.Get("caps"))[wire.CapShm] {
		// Best effort: a failed cutover leaves the connection on the
		// socket — the server cleans the segment file at connection
		// teardown.
		c.upgradeShm(reply.Get("shmfile"))
	}
	return nil
}

// upgradeShm performs the client half of the transport-v3 cutover: map
// the segment the server created, announce readiness with SHMRDY (the
// last framed bytes this client ever writes to the socket), and swap
// the conn's write side onto the ring once the server's OK lands. The
// read-side swap happens in route, on the goroutine that read the OK:
// it is the only place that knows no framed socket byte follows it.
// Failing anywhere before SHMRDY just leaves the connection on the
// socket; the server only cuts over when SHMRDY arrives.
func (c *Client) upgradeShm(path string) {
	if path == "" {
		return
	}
	seg, err := wire.OpenShmSegment(path)
	if err != nil {
		return
	}
	ep := seg.Endpoint(false, c.raw)
	s, err := c.register(wire.NewMessage("SHMRDY"), ep)
	if err != nil {
		return
	}
	// Safe to block: DialCtx still owns the client — no Session
	// heartbeats, subscriptions, or user requests exist yet, so nothing
	// else can write to the socket behind SHMRDY, and the only traffic
	// the read loop can see before this reply is the reply itself (a
	// conn failure delivers a synthetic ERROR here instead).
	reply, _, _ := c.wait(context.Background(), s)
	if reply.Verb != "OK" {
		return
	}
	// The reader has already activated the doorbell and swapped the
	// read side (before delivering the OK). Swapping the write side
	// completes the cutover; the request that follows is the first
	// frame through the ring.
	c.wc.SwapWrite(ep)
	c.mu.Lock()
	c.shmActive = true
	c.dead = ep.Dead()
	c.mu.Unlock()
}

// ShmActive reports whether this connection completed the transport-v3
// cutover and is carrying its frames over the shared-memory ring.
func (c *Client) ShmActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shmActive
}

// readLoop is the background reader. It starts out holding the read
// token; on a shm connection it gives the token up whenever nothing
// but a borrowing caller needs the conn read, and takes it back when
// woken (see awaitTurn).
func (c *Client) readLoop() {
	for {
		m, err := c.recv()
		if err != nil {
			c.readFailed(err)
			return
		}
		if _, stop := c.route(m, false); stop {
			return
		}
		if !c.keepReading() && !c.awaitTurn() {
			return
		}
	}
}

// readFor is a caller's wait for slot s when the wait cannot be
// cancelled: it borrows the read token and reads until s has its
// reply, routing everything else it reads on the way. It reads only on
// a shm connection of a client with no subscription and no event
// handler, and only while s is still outstanding; otherwise it makes
// sure someone else is reading and returns. Either way s's reply then
// arrives on s.ch.
func (c *Client) readFor(s *replySlot) {
	c.mu.Lock()
	if c.reader != noReader || c.closed || !c.shmActive || c.subbed || c.handler != nil || c.slots[s.id] != s {
		c.mu.Unlock()
		c.ensureReader()
		return
	}
	c.reader = callerReader
	c.mu.Unlock()
	for {
		m, err := c.recv()
		if err != nil {
			c.readFailed(err)
			break
		}
		if got, stop := c.route(m, true); got == s || stop {
			break
		}
	}
	c.mu.Lock()
	c.reader = noReader
	wake := !c.closed && c.needReaderLocked()
	c.mu.Unlock()
	if wake {
		c.wakeReader()
	}
}

// recv reads one message into a pooled Message. Messages the client
// consumes itself go back with Release; replies go to their callers.
func (c *Client) recv() (*wire.Message, error) {
	m := wire.NewMessage("")
	if err := c.wc.RecvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ensureReader wakes the background reader when nobody holds the read
// token: a waiter that does not read for itself calls it so its reply
// cannot sit unread in the ring.
func (c *Client) ensureReader() {
	c.mu.Lock()
	idle := c.reader == noReader && !c.closed
	c.mu.Unlock()
	if idle {
		c.wakeReader()
	}
}

func (c *Client) wakeReader() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// needReaderLocked reports whether the conn must be read for someone
// other than a borrowing caller: a reply is outstanding, the client is
// subscribed, a caller queued events, or the ring died and its last
// bytes and error must be collected. Callers hold mu.
func (c *Client) needReaderLocked() bool {
	if len(c.slots) > 0 || c.subbed || len(c.evq) > 0 {
		return true
	}
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// keepReading is the background reader's check between messages. On a
// socket it always reads on; on a shm connection it gives up the token
// once nothing needs reading.
func (c *Client) keepReading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.shmActive || c.needReaderLocked() {
		return true
	}
	c.reader = noReader
	return false
}

// awaitTurn parks the background reader until it is woken, something
// needs reading and the token is free; then it takes the token and
// first delivers any events a borrowing caller queued. It returns false
// once the client is closed. It checks only after a wakeup: a request
// registered since the token was given up belongs to a caller about to
// read for itself, and whoever needs the background reader wakes it.
func (c *Client) awaitTurn() bool {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	for {
		select {
		case <-c.wake:
		case <-dead:
			// Watch the death only once: if a caller holds the token, its
			// release (which sees the death) wakes us.
			dead = nil
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		if c.reader == noReader && c.needReaderLocked() {
			c.reader = backgroundReader
			queued := c.evq
			c.evq = nil
			c.mu.Unlock()
			for _, ev := range queued {
				c.deliver(ev)
			}
			return true
		}
		c.mu.Unlock()
	}
}

// route dispatches one message read off the conn. It is the one
// dispatch function for every reader: whoever holds the read token
// routes everything it reads — other callers' replies, chunked parts,
// CLOSE and mux window updates. It returns the slot the message
// completed, if any, and whether the reader must give up the token:
// the client failed, or (caller true) an event arrived, which only the
// background reader may deliver — event handlers must never run on a
// caller's goroutine.
func (c *Client) route(m *wire.Message, caller bool) (*replySlot, bool) {
	if _, handled := c.mux.Accept(m); handled {
		m.Release()
		return nil, false // pure transport (WINUP), nothing to dispatch
	}
	switch m.Verb {
	case "EVENT":
		seq, _ := strconv.ParseUint(m.Get("seq"), 10, 64)
		lost, _ := strconv.ParseUint(m.Get("lost"), 10, 64)
		ev := Event{Attr: m.Get("attr"), Value: m.Get("value"), Op: m.Get("op"), Seq: seq, Lost: lost}
		m.Release()
		if caller {
			c.mu.Lock()
			c.evq = append(c.evq, ev)
			c.mu.Unlock()
			return nil, true
		}
		c.deliver(ev)
		return nil, false
	case "CLOSE":
		// GOAWAY-style drain announcement: the server finishes the
		// replies already in flight, then closes. Stop issuing new
		// requests now; fail once the last pending reply lands (or
		// immediately when nothing is outstanding).
		m.Release()
		c.mu.Lock()
		c.draining = true
		idle := len(c.slots) == 0
		c.mu.Unlock()
		if idle {
			c.fail(ErrServerDraining)
			return nil, true
		}
		return nil, false
	}
	id, _ := strconv.ParseUint(m.Get("id"), 10, 64)
	c.mu.Lock()
	s := c.slots[id]
	if s != nil && m.Get("more") == "1" {
		// Interior part of a chunked bulk reply: keep it with
		// the request; the final part (no `more`) completes the slot.
		// Parts for an abandoned request find no slot and are dropped.
		s.parts = append(s.parts, m)
		c.mu.Unlock()
		return nil, false
	}
	if s != nil {
		delete(c.slots, id)
	}
	drained := c.draining && len(c.slots) == 0
	c.mu.Unlock()
	if s != nil {
		if s.swap != nil && m.Verb == "OK" {
			// Transport-v3 cutover: this OK answers our SHMRDY and is the
			// last framed byte the socket will ever carry — the server
			// swapped its write side right after sending it. Hand the
			// socket to the doorbell and read everything further from the
			// ring, before the waiter sees the reply (so its first request
			// cannot outrun the swap).
			s.swap.Activate()
			c.wc.SwapRead(s.swap)
		}
		s.ch <- m
	} else {
		m.Release() // the reply to an abandoned request
	}
	if drained {
		c.fail(ErrServerDraining)
		return s, true
	}
	return s, false
}

// deliver hands one pushed event to the handler or the Events channel.
func (c *Client) deliver(ev Event) {
	c.mu.Lock()
	handler := c.handler
	c.mu.Unlock()
	if handler != nil {
		// Synchronous delivery: the handler observes every event in
		// server order with no client-side drops. It must not block on
		// this client's own operations.
		handler(ev)
		return
	}
	select {
	case c.events <- ev:
	default:
		// The event buffer is full; drop-oldest keeps the connection
		// from deadlocking against a slow consumer.
		select {
		case <-c.events:
		default:
		}
		select {
		case c.events <- ev:
		default:
		}
	}
}

// readFailed ends the client on a read error. A transport error after
// a CLOSE announcement is the drain completing, not an unexpected
// loss: it is reported as such so retrying callers classify it
// correctly.
func (c *Client) readFailed(err error) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining {
		err = ErrServerDraining
	}
	c.fail(err)
}

// fail moves the client to its terminal state exactly once: every
// pending reply slot receives a synthetic connection-error reply (the
// "conn" tag distinguishes it from a real server ERROR, so callers see
// ErrConnLost rather than a server fault), the event channel closes,
// and the OnClose hook fires. It is called by the reader on any
// transport error, from send on a write error (a partial write corrupts
// framing — the connection is unusable), and from Close.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.slots
	c.slots = make(map[uint64]*replySlot)
	onClose := c.onClose
	c.mu.Unlock()
	c.wakeReader() // a parked background reader exits
	c.mux.Fail(err)
	for id, s := range pending {
		s.ch <- wire.NewMessage("ERROR").Set("id", strconv.FormatUint(id, 10)).
			Set("error", err.Error()).Set("conn", "1")
	}
	close(c.events)
	c.raw.Close()
	if onClose != nil {
		onClose(err)
	}
}

// SetEventHandler installs a function invoked synchronously from the
// background reader for every pushed EVENT, replacing delivery on the
// Events channel. Unlike the channel (which drops oldest when the
// consumer lags), a handler observes every event the server sent, in
// order — the property a coherent mirror needs. Install it before
// Subscribe; the handler must not call back into this client's
// blocking operations (it runs on the loop that would receive their
// replies).
func (c *Client) SetEventHandler(fn func(Event)) {
	c.mu.Lock()
	c.handler = fn
	c.mu.Unlock()
}

// OnClose installs a hook invoked once when the client fails or is
// closed, with the terminal error. Used by the LASS global cache to
// tear down a cache context whose upstream died, and by Session to
// trigger reconnection. Installing the hook on an already-failed
// client invokes it immediately (on the calling goroutine) — without
// this, a client that dies between Dial and OnClose would never signal
// anyone. On a shm connection the hook fires when the ring's doorbell
// dies even if no request is outstanding.
func (c *Client) OnClose(fn func(error)) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if fn != nil {
			fn(err)
		}
		return
	}
	c.onClose = fn
	c.mu.Unlock()
}

// SetTelemetry installs a metrics registry (per-verb op counters and
// latency histograms under "client.*", plus the shared wire byte
// counters) and a tracer. With a tracer set, every operation without a
// caller-supplied span becomes its own root trace; either way the
// trace/span IDs ride the request as the reserved _tid/_sid fields so
// the server logs its span under the same trace. Either argument may
// be nil. Call before issuing operations.
func (c *Client) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	c.mu.Lock()
	c.reg = reg
	c.tracer = tracer
	c.mu.Unlock()
	if reg != nil {
		c.wc.InstrumentRegistry(reg)
	}
}

// opObservation is the client-side record of one operation in flight:
// its latency stopwatch and its span, either of which may be inert.
type opObservation struct {
	lat  telemetry.Stopwatch
	span *telemetry.Span
}

// End records the operation's latency and ends its span.
func (o opObservation) End() {
	o.lat.End()
	o.span.End()
}

// instrument opens the client-side observation of one operation: it
// bumps the verb counter, starts (or continues) a span, and stamps the
// trace fields onto m. The result is inert when no telemetry is
// configured and no span is in ctx.
func (c *Client) instrument(ctx context.Context, verb string, m *wire.Message) opObservation {
	c.mu.Lock()
	reg, tracer := c.reg, c.tracer
	c.mu.Unlock()

	var o opObservation
	if parent := telemetry.FromContext(ctx); parent != nil {
		o.span = parent.StartChild("client." + strings.ToLower(verb))
	} else if tracer != nil {
		o.span = tracer.StartSpan("client." + strings.ToLower(verb))
	}
	if o.span != nil {
		if a := m.Get("attr"); a != "" {
			o.span.Set("attr", a)
		}
		m.SetTrace(o.span.TraceID(), o.span.SpanID())
	}
	if reg != nil {
		v := strings.ToLower(verb)
		reg.Counter("client.ops." + v).Inc()
		o.lat = reg.Histogram("client.latency."+v, nil).Start()
	}
	return o
}

// call sends a request and waits for its tagged reply. It takes
// ownership of m, releasing it once sent; a caller done reading the
// reply may Release it too.
func (c *Client) call(ctx context.Context, verb string, m *wire.Message) (*wire.Message, error) {
	reply, _, err := c.callParts(ctx, verb, m)
	return reply, err
}

// callParts is call for verbs whose reply may arrive in chunks: parts
// holds the interior parts in order, the final one being reply. Like
// call, it releases the request m once it is sent.
func (c *Client) callParts(ctx context.Context, verb string, m *wire.Message) (reply *wire.Message, parts []*wire.Message, err error) {
	o := c.instrument(ctx, verb, m)
	defer o.End()
	s, err := c.send(m)
	m.Release()
	if err != nil {
		return nil, nil, err
	}
	return c.wait(ctx, s)
}

// wait blocks until slot s has its reply (plus any interior chunk
// parts) or ctx ends. A wait that cannot be cancelled reads the reply
// itself when the connection allows it (readFor); a cancellable one
// leaves reading to the background reader, because a Recv in progress
// cannot be abandoned.
func (c *Client) wait(ctx context.Context, s *replySlot) (*wire.Message, []*wire.Message, error) {
	if ctx.Done() == nil {
		c.readFor(s)
	} else {
		c.ensureReader()
	}
	select {
	case reply := <-s.ch:
		parts := s.parts
		c.recycle(s)
		return reply, parts, nil
	case <-ctx.Done():
		c.mu.Lock()
		owned := c.slots[s.id] == s
		if owned {
			delete(c.slots, s.id)
		}
		c.mu.Unlock()
		if owned {
			// Still in the table, so no reply was or will be delivered:
			// the slot can be reused. Otherwise the reply is on its way
			// and the slot is left to the garbage collector.
			c.recycle(s)
		}
		return nil, nil, ctx.Err()
	}
}

// recycle returns a completed slot to the free list.
func (c *Client) recycle(s *replySlot) {
	s.parts, s.swap = nil, nil
	c.mu.Lock()
	c.free = append(c.free, s)
	c.mu.Unlock()
}

// send registers a reply slot and transmits the request. A write error
// is terminal for the whole connection, not just this request: the
// frame may have left partially, so the stream's framing can no longer
// be trusted, and a connection whose write half is dead while its read
// half blocks would otherwise strand every other pending reply
// forever. fail drains them all exactly once.
func (c *Client) send(m *wire.Message) (*replySlot, error) {
	return c.register(m, nil)
}

// register is send with the slot's SHMRDY swap endpoint set before the
// slot becomes visible to readers: setting it after send returned would
// let the reply arrive first and the read-side swap never happen.
func (c *Client) register(m *wire.Message, swap *wire.ShmEndpoint) (*replySlot, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if !IsRetryable(err) {
			// The transport failed: the request never left, which a
			// retrying caller must be able to tell from a server error.
			err = fmt.Errorf("%w: %v", ErrConnLost, err)
		}
		return nil, err
	}
	if c.draining {
		c.mu.Unlock()
		return nil, ErrServerDraining
	}
	var s *replySlot
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s = &replySlot{ch: make(chan *wire.Message, 1)}
	}
	c.nextID++
	s.id = c.nextID
	s.swap = swap
	c.slots[s.id] = s
	c.mu.Unlock()
	m.Set("id", strconv.FormatUint(s.id, 10))
	// Requests ride the control stream (never window-limited); routing
	// them through the mux lets accumulated receive-side credit grants
	// piggyback instead of costing explicit WINUP frames.
	if err := c.mux.SendOn(wire.StreamControl, m); err != nil {
		c.fail(err)
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return s, nil
}

func replyErr(reply *wire.Message) error {
	if reply.Verb == "ERROR" {
		text := reply.Get("error")
		if text == attr.ErrNotFound.Error() {
			return ErrNotFound
		}
		if reply.Get("conn") == "1" {
			// Synthetic reply injected by fail(): the transport died with
			// the request in flight — retryable, unlike a server ERROR.
			if text == ErrServerDraining.Error() {
				return ErrServerDraining
			}
			return fmt.Errorf("%w: %s", ErrConnLost, text)
		}
		return errors.New("attrspace: server: " + text)
	}
	return nil
}

// IsRetryable reports whether err is a transport-level failure a
// reconnecting caller may safely retry after re-establishing the
// connection: the connection was lost, the client object is closed
// (superseded by a newer one), or the server announced a drain. Server
// application errors (including ErrNotFound) are not retryable — the
// server saw the request and answered it.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConnLost) ||
		errors.Is(err, ErrClientClosed) ||
		errors.Is(err, ErrServerDraining)
}

// Put stores attribute = value and waits for the acknowledgement,
// matching the paper's blocking tdp_put.
func (c *Client) Put(attribute, value string) error {
	return c.PutCtx(context.Background(), attribute, value)
}

// PutCtx is Put with a context; a span carried by ctx (see
// telemetry.NewContext) propagates to the server as _tid/_sid.
func (c *Client) PutCtx(ctx context.Context, attribute, value string) error {
	reply, err := c.call(ctx, "PUT", wire.NewMessage("PUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return err
	}
	defer reply.Release()
	return replyErr(reply)
}

// Get blocks until the attribute exists and returns its value (the
// paper's blocking tdp_get). Cancel via ctx.
func (c *Client) Get(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GET", wire.NewMessage("GET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	defer reply.Release()
	if err := replyErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// GetAsync issues a blocking GET whose reply is delivered on the
// returned channel: the transport half of tdp_async_get. The tdp
// package layers callback queueing and ServiceEvents on top.
func (c *Client) GetAsync(attribute string) (<-chan Result, error) {
	m := wire.NewMessage("GET").Set("attr", attribute)
	o := c.instrument(context.Background(), "GET", m)
	s, err := c.send(m)
	if err != nil {
		o.End()
		return nil, err
	}
	out := make(chan Result, 1)
	go func() {
		// This goroutine belongs to no caller and may wait indefinitely,
		// so it leaves reading to the background reader.
		c.ensureReader()
		reply := <-s.ch
		c.recycle(s)
		o.End()
		if err := replyErr(reply); err != nil {
			out <- Result{Attr: attribute, Err: err}
			return
		}
		out <- Result{Attr: attribute, Value: reply.Get("value")}
	}()
	return out, nil
}

// pendingPut is one queued asynchronous put awaiting a flush.
type pendingPut struct {
	attr, value string
	out         chan Result
}

// PutAsync issues a PUT whose acknowledgement is delivered on the
// returned channel: the transport half of tdp_async_put.
//
// Puts issued while a previous flush is still on the wire coalesce:
// the whole backlog leaves as a single MPUT when the in-flight round
// trip completes, so a producer pipelining N puts pays ~2 round trips
// instead of N. Each put still completes individually on its own
// channel. Failures (including a closed client) are delivered through
// the channel rather than returned here.
func (c *Client) PutAsync(attribute, value string) (<-chan Result, error) {
	out := make(chan Result, 1)
	c.mu.Lock()
	c.putq = append(c.putq, pendingPut{attr: attribute, value: value, out: out})
	if !c.flushing {
		c.flushing = true
		go c.flushPuts()
	}
	c.mu.Unlock()
	return out, nil
}

// flushPuts drains the async-put queue, one batch per loop: whatever
// accumulated during the previous round trip goes out together.
func (c *Client) flushPuts() {
	for {
		c.mu.Lock()
		batch := c.putq
		c.putq = nil
		if len(batch) == 0 {
			c.flushing = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.sendPutBatch(batch)
	}
}

// sendPutBatch transmits a batch of queued puts in one round trip (see
// PutBatchV). Every pending channel receives its completion.
func (c *Client) sendPutBatch(batch []pendingPut) {
	pairs := make([]KV, len(batch))
	for i, p := range batch {
		pairs[i] = KV{Key: p.attr, Value: p.value}
	}
	_, err := c.PutBatchV(context.Background(), pairs)
	for _, p := range batch {
		p.out <- Result{Attr: p.attr, Value: p.value, Err: err}
	}
}

// mput performs one MPUT round trip for pairs and returns the seq acked
// for the batch's last pair.
func (c *Client) mput(ctx context.Context, pairs []KV) (uint64, error) {
	m := wire.NewMessage("MPUT").SetInt("n", len(pairs))
	for i, p := range pairs {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, p.Key).Set("v"+idx, p.Value)
	}
	reply, err := c.call(ctx, "MPUT", m)
	if err != nil {
		return 0, err
	}
	defer reply.Release()
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// PutBatch stores every pair in order and waits for the single
// acknowledgement — one round trip for the whole batch (the Parador
// startup pattern: a daemon publishing pid, executable, args and
// friends together).
func (c *Client) PutBatch(pairs []KV) error {
	return c.PutBatchCtx(context.Background(), pairs)
}

// PutBatchCtx is PutBatch with a context for cancellation and span
// propagation.
func (c *Client) PutBatchCtx(ctx context.Context, pairs []KV) error {
	_, err := c.PutBatchV(ctx, pairs)
	return err
}

// Result is the completion of an asynchronous get or put.
type Result struct {
	Attr  string
	Value string
	Err   error
}

// TryGet returns the current value without blocking; ErrNotFound when
// the attribute is absent.
func (c *Client) TryGet(attribute string) (string, error) {
	return c.TryGetCtx(context.Background(), attribute)
}

// TryGetCtx is TryGet with a context for cancellation and span
// propagation.
func (c *Client) TryGetCtx(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "TRYGET", wire.NewMessage("TRYGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	defer reply.Release()
	if reply.Verb == "NOTFOUND" {
		return "", ErrNotFound
	}
	if err := replyErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// Delete removes an attribute.
func (c *Client) Delete(attribute string) error {
	return c.DeleteCtx(context.Background(), attribute)
}

// DeleteCtx is Delete with a context for cancellation and span
// propagation.
func (c *Client) DeleteCtx(ctx context.Context, attribute string) error {
	reply, err := c.call(ctx, "DELETE", wire.NewMessage("DELETE").Set("attr", attribute))
	if err != nil {
		return err
	}
	defer reply.Release()
	return replyErr(reply)
}

// ServerStats asks the server to dump its telemetry registry (the
// STATS verb) and returns the decoded snapshot plus the daemon name
// the server reports itself as. STATS needs no joined context, and
// any client — tdpattr included — may issue it.
func (c *Client) ServerStats(ctx context.Context) (daemon string, snap telemetry.Snapshot, err error) {
	return c.ServerStatsScope(ctx, "")
}

// ServerStatsScope is ServerStats with an explicit scope. Scope
// "tree" asks the daemon to merge its children's snapshots (see
// Server.SetStatsChildren) into the reply — one request for a whole
// subtree's telemetry. An empty scope behaves like ServerStats.
func (c *Client) ServerStatsScope(ctx context.Context, scope string) (daemon string, snap telemetry.Snapshot, err error) {
	req := wire.NewMessage("STATS")
	if scope != "" {
		req.Set("scope", scope)
	}
	reply, err := c.call(ctx, "STATS", req)
	if err != nil {
		return "", telemetry.Snapshot{}, err
	}
	if err := replyErr(reply); err != nil {
		return "", telemetry.Snapshot{}, err
	}
	snap, err = telemetry.ParseSnapshot([]byte(reply.Get("json")))
	if err != nil {
		return "", telemetry.Snapshot{}, err
	}
	return reply.Get("daemon"), snap, nil
}

// Snapshot returns a copy of all attributes in the context.
func (c *Client) Snapshot() (map[string]string, error) {
	reply, err := c.call(context.Background(), "SNAP", wire.NewMessage("SNAP"))
	if err != nil {
		return nil, err
	}
	return parseSnap(reply)
}

// Versioned is a value paired with the seq of the write that produced
// it; re-exported from the attr engine so wire-level and in-process
// versioned snapshots share a type.
type Versioned = attr.Versioned

// SnapshotSeq returns every attribute with the seq of the write that
// produced it, plus the context's current sequence number. It is the
// resync primitive: a Session diffs the result against its last-known
// seqs after a reconnect, so stale values never overwrite newer ones.
func (c *Client) SnapshotSeq(ctx context.Context) (map[string]Versioned, uint64, error) {
	reply, parts, err := c.callParts(ctx, "SNAP", wire.NewMessage("SNAP").Set("seqs", "1"))
	if err != nil {
		return nil, 0, err
	}
	if err := replyErr(reply); err != nil {
		return nil, 0, err
	}
	out := make(map[string]Versioned, sizeHint(reply, parts))
	for _, part := range append(parts, reply) {
		if err := parseVersionedInto(out, part); err != nil {
			return nil, 0, err
		}
	}
	ctxSeq, _ := strconv.ParseUint(reply.Get("seq"), 10, 64)
	return out, ctxSeq, nil
}

// parseVersionedInto decodes one SNAPV part's k<i>/v<i>/s<i> entries.
func parseVersionedInto(out map[string]Versioned, part *wire.Message) error {
	n := part.Int("n", 0)
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		k, ok := part.Lookup("k" + idx)
		if !ok {
			return fmt.Errorf("attrspace: malformed snapshot reply")
		}
		seq, _ := strconv.ParseUint(part.Get("s"+idx), 10, 64)
		out[k] = Versioned{Value: part.Get("v" + idx), Seq: seq}
	}
	return nil
}

// DeltaOp is one replayed mutation from a delta resync (SNAPD).
type DeltaOp struct {
	Attr   string
	Value  string // value written; "" for a delete
	Seq    uint64
	Delete bool
}

// sizeHint is the entry count to presize a snapshot or delta result
// with. The reply's declared total (or n) is only a hint from the peer:
// it is clamped to the fields actually received, so a hostile or
// corrupt value can neither panic make nor force a huge allocation.
func sizeHint(reply *wire.Message, parts []*wire.Message) int {
	received := len(reply.Fields)
	for _, p := range parts {
		received += len(p.Fields)
	}
	return min(max(reply.Int("total", reply.Int("n", 0)), 0), received)
}

// SnapshotDelta asks the server for just the mutations after `since`
// (the SNAPD delta-resync verb), so reconnect traffic is proportional
// to the gap, not the context size. Exactly one of ops/full is
// non-nil: ops carries the replayable delta in seq order; full is the
// complete versioned snapshot the server fell back to because its
// change log no longer covers the gap. Both come with the context's
// current seq.
func (c *Client) SnapshotDelta(ctx context.Context, since uint64) (ops []DeltaOp, full map[string]Versioned, ctxSeq uint64, err error) {
	reply, parts, err := c.callParts(ctx, "SNAPD",
		wire.NewMessage("SNAPD").Set("since", strconv.FormatUint(since, 10)))
	if err != nil {
		return nil, nil, 0, err
	}
	if err := replyErr(reply); err != nil {
		return nil, nil, 0, err
	}
	hint := sizeHint(reply, parts)
	parts = append(parts, reply)
	ctxSeq, _ = strconv.ParseUint(reply.Get("seq"), 10, 64)
	if reply.Verb != "DELTA" {
		// Change log compacted past `since`: the server shipped a full
		// versioned snapshot instead.
		full = make(map[string]Versioned, hint)
		for _, part := range parts {
			if err := parseVersionedInto(full, part); err != nil {
				return nil, nil, 0, err
			}
		}
		return nil, full, ctxSeq, nil
	}
	// Parts were sent, buffered, and appended in order, and entries
	// within a part are in order, so ops come out seq-ascending.
	ops = make([]DeltaOp, 0, hint)
	for _, part := range parts {
		n := part.Int("n", 0)
		for i := 0; i < n; i++ {
			idx := strconv.Itoa(i)
			k, ok := part.Lookup("k" + idx)
			if !ok {
				return nil, nil, 0, fmt.Errorf("attrspace: malformed delta reply")
			}
			seq, _ := strconv.ParseUint(part.Get("s"+idx), 10, 64)
			ops = append(ops, DeltaOp{
				Attr: k, Value: part.Get("v" + idx), Seq: seq,
				Delete: part.Get("o"+idx) == "d",
			})
		}
	}
	return ops, nil, ctxSeq, nil
}

// Ping performs a wire-level liveness round trip. The server answers
// inline on its read loop, so a timely PONG proves the connection and
// the peer's dispatch are alive even while bulk replies stream on
// other goroutines.
func (c *Client) Ping(ctx context.Context) error {
	reply, err := c.call(ctx, "PING", wire.NewMessage("PING"))
	if err != nil {
		return err
	}
	defer reply.Release()
	return replyErr(reply)
}

// parseSnap decodes a SNAPV reply's k0/v0.. pairs.
func parseSnap(reply *wire.Message) (map[string]string, error) {
	if err := replyErr(reply); err != nil {
		return nil, err
	}
	n := reply.Int("n", 0)
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, ok := reply.Lookup("k" + strconv.Itoa(i))
		if !ok {
			return nil, fmt.Errorf("attrspace: malformed snapshot reply")
		}
		out[k] = reply.Get("v" + strconv.Itoa(i))
	}
	return out, nil
}

// replySeq extracts the per-context sequence number a mutating ack or
// VALUE reply carries.
func replySeq(reply *wire.Message) uint64 {
	seq, _ := strconv.ParseUint(reply.Get("seq"), 10, 64)
	return seq
}

// PutV is Put returning the per-context seq the server assigned the
// write.
func (c *Client) PutV(ctx context.Context, attribute, value string) (uint64, error) {
	reply, err := c.call(ctx, "PUT", wire.NewMessage("PUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return 0, err
	}
	defer reply.Release()
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// GetV is Get additionally returning the seq of the write that
// produced the value.
func (c *Client) GetV(ctx context.Context, attribute string) (string, uint64, error) {
	reply, err := c.call(ctx, "GET", wire.NewMessage("GET").Set("attr", attribute))
	if err != nil {
		return "", 0, err
	}
	defer reply.Release()
	if err := replyErr(reply); err != nil {
		return "", 0, err
	}
	return reply.Get("value"), replySeq(reply), nil
}

// TryGetV is TryGet additionally returning the seq of the write that
// produced the value.
func (c *Client) TryGetV(ctx context.Context, attribute string) (string, uint64, error) {
	reply, err := c.call(ctx, "TRYGET", wire.NewMessage("TRYGET").Set("attr", attribute))
	if err != nil {
		return "", 0, err
	}
	defer reply.Release()
	if reply.Verb == "NOTFOUND" {
		return "", 0, ErrNotFound
	}
	if err := replyErr(reply); err != nil {
		return "", 0, err
	}
	return reply.Get("value"), replySeq(reply), nil
}

// DeleteV is Delete returning the seq assigned to the deletion (0 when
// the attribute was already absent).
func (c *Client) DeleteV(ctx context.Context, attribute string) (uint64, error) {
	reply, err := c.call(ctx, "DELETE", wire.NewMessage("DELETE").Set("attr", attribute))
	if err != nil {
		return 0, err
	}
	defer reply.Release()
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return replySeq(reply), nil
}

// PutBatchV is PutBatch returning the seq acked for the last pair.
func (c *Client) PutBatchV(ctx context.Context, pairs []KV) (uint64, error) {
	switch len(pairs) {
	case 0:
		return 0, nil
	case 1:
		return c.PutV(ctx, pairs[0].Key, pairs[0].Value)
	}
	return c.mput(ctx, pairs)
}

// Subscribe starts event push from the server. Events arrive on the
// Events channel; the channel closes when the client does. A failed
// SUB leaves the client unsubscribed, so the caller may retry;
// concurrent Subscribes collapse to one wire request.
func (c *Client) Subscribe() error {
	c.mu.Lock()
	if c.subbed {
		c.mu.Unlock()
		return nil
	}
	c.subbed = true
	c.mu.Unlock()
	unsub := func() {
		c.mu.Lock()
		c.subbed = false
		c.mu.Unlock()
	}
	reply, err := c.call(context.Background(), "SUB", wire.NewMessage("SUB"))
	if err != nil {
		unsub()
		return err
	}
	if err := replyErr(reply); err != nil {
		unsub()
		return err
	}
	return nil
}

// Events returns the subscription event channel. It never yields
// events before Subscribe succeeds.
func (c *Client) Events() <-chan Event { return c.events }

// ErrNoGlobal reports a G* verb sent to a server without an upstream
// CASS (global forwarding not enabled).
var ErrNoGlobal = errors.New("attrspace: server has no global forwarding")

// globalErr maps a G* ERROR reply onto client-side sentinels.
func globalErr(reply *wire.Message) error {
	if reply.Verb == "ERROR" {
		text := reply.Get("error")
		if strings.Contains(text, "global forwarding not enabled") {
			return ErrNoGlobal
		}
		if strings.Contains(text, ErrShardDown.Error()) {
			// A routing LASS reporting one dead shard: surface the typed
			// degraded-mode error so callers can distinguish "this key
			// range is briefly down" from a hard failure.
			return fmt.Errorf("%w: %s", ErrShardDown, text)
		}
	}
	return replyErr(reply)
}

// PutGlobal stores a global (CASS) attribute through this LASS: the
// LASS writes through to its CASS and caches the acked value, so a
// subsequent GetGlobal via the same LASS sees this write without an
// upstream round trip.
func (c *Client) PutGlobal(ctx context.Context, attribute, value string) error {
	reply, err := c.call(ctx, "GPUT", wire.NewMessage("GPUT").Set("attr", attribute).Set("value", value))
	if err != nil {
		return err
	}
	defer reply.Release()
	return globalErr(reply)
}

// PutBatchGlobal stores a batch of global attributes in one GMPUT.
func (c *Client) PutBatchGlobal(ctx context.Context, pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	m := wire.NewMessage("GMPUT").SetInt("n", len(pairs))
	for i, p := range pairs {
		idx := strconv.Itoa(i)
		m.Set("k"+idx, p.Key).Set("v"+idx, p.Value)
	}
	reply, err := c.call(ctx, "GMPUT", m)
	if err != nil {
		return err
	}
	return globalErr(reply)
}

// GetGlobal blocks until the global attribute exists; steady-state
// reads are answered from the LASS cache in one local hop.
func (c *Client) GetGlobal(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GGET", wire.NewMessage("GGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	defer reply.Release()
	if err := globalErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// TryGetGlobal returns the global attribute's value without blocking;
// ErrNotFound when absent.
func (c *Client) TryGetGlobal(ctx context.Context, attribute string) (string, error) {
	reply, err := c.call(ctx, "GTRYGET", wire.NewMessage("GTRYGET").Set("attr", attribute))
	if err != nil {
		return "", err
	}
	defer reply.Release()
	if reply.Verb == "NOTFOUND" {
		return "", ErrNotFound
	}
	if err := globalErr(reply); err != nil {
		return "", err
	}
	return reply.Get("value"), nil
}

// DeleteGlobal removes a global attribute through this LASS.
func (c *Client) DeleteGlobal(ctx context.Context, attribute string) error {
	reply, err := c.call(ctx, "GDEL", wire.NewMessage("GDEL").Set("attr", attribute))
	if err != nil {
		return err
	}
	return globalErr(reply)
}

// SnapshotGlobal dumps the context's global attributes (always one
// upstream round trip; snapshots are never served from the cache).
func (c *Client) SnapshotGlobal(ctx context.Context) (map[string]string, error) {
	reply, err := c.call(ctx, "GSNAP", wire.NewMessage("GSNAP"))
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	return parseSnap(reply)
}

// SnapshotGlobalMany snapshots several global contexts in one GSNAPM
// round trip. On a sharded LASS the contexts are fetched from their
// owning CASS shards concurrently (scatter-gather); the result maps
// context name → attribute snapshot. ErrNoGlobal against servers
// without forwarding.
func (c *Client) SnapshotGlobalMany(ctx context.Context, contexts []string) (map[string]map[string]string, error) {
	m := wire.NewMessage("GSNAPM").SetInt("n", len(contexts))
	for i, name := range contexts {
		m.Set("k"+strconv.Itoa(i), name)
	}
	reply, err := c.call(ctx, "GSNAPM", m)
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]string)
	n, _ := strconv.Atoi(reply.Get("n"))
	for i := 0; i < n; i++ {
		idx := strconv.Itoa(i)
		var snap map[string]string
		if err := json.Unmarshal([]byte(reply.Get("v"+idx)), &snap); err != nil {
			return nil, fmt.Errorf("attrspace: gsnapm decode %q: %w", reply.Get("k"+idx), err)
		}
		out[reply.Get("k"+idx)] = snap
	}
	return out, nil
}

// GlobalContexts lists the context names alive across the global
// space — on a sharded LASS, the deduplicated union over every
// reachable shard. ErrNoGlobal against servers without forwarding.
func (c *Client) GlobalContexts(ctx context.Context) ([]string, error) {
	reply, err := c.call(ctx, "GCTXS", wire.NewMessage("GCTXS"))
	if err != nil {
		return nil, err
	}
	if err := globalErr(reply); err != nil {
		return nil, err
	}
	n, _ := strconv.Atoi(reply.Get("n"))
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, reply.Get("k"+strconv.Itoa(i)))
	}
	return names, nil
}

// Close leaves the context (the tdp_exit half of the refcount) and
// tears down the connection. Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	// Best-effort polite exit; the server also leaves on disconnect.
	c.wc.Send(wire.NewMessage("EXIT"))
	c.fail(ErrClientClosed)
	return nil
}
