package attrspace

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"tdp/internal/wire"
)

// ---------------------------------------------------------------------------
// Scripted server: each accepted connection is handled by the next
// hand-written script in order, pinning down the exact wire exchanges
// a Session performs during guarded retries (probe-before-resend).

type script func(sc *scriptConn)

type scriptConn struct {
	t   *testing.T
	wc  *wire.Conn
	raw net.Conn
}

// expect receives the next frame and requires its verb; returns nil
// (after failing the test) on a mismatch or transport error.
func (sc *scriptConn) expect(verb string) *wire.Message {
	m, err := sc.wc.Recv()
	if err != nil {
		sc.t.Errorf("script: waiting for %s, connection error: %v", verb, err)
		return nil
	}
	if m.Verb != verb {
		sc.t.Errorf("script: got %s, want %s (%v)", m.Verb, verb, m)
		return nil
	}
	return m
}

// reply answers req with verb and the given key/value pairs, echoing
// the request id so the client's reply matching works.
func (sc *scriptConn) reply(req *wire.Message, verb string, kv ...string) {
	if req == nil {
		return
	}
	m := wire.NewMessage(verb).Set("id", req.Get("id"))
	for i := 0; i+1 < len(kv); i += 2 {
		m.Set(kv[i], kv[i+1])
	}
	if err := sc.wc.Send(m); err != nil {
		sc.t.Errorf("script: send %s: %v", verb, err)
	}
}

// hello serves the handshake.
func (sc *scriptConn) hello() {
	sc.reply(sc.expect("HELLO"), "OK")
}

// drainForbidding reads frames until the peer disconnects, failing the
// test if any of the listed verbs arrives; everything else (e.g. the
// polite EXIT on Close) is acknowledged blandly.
func (sc *scriptConn) drainForbidding(verbs ...string) {
	for {
		m, err := sc.wc.Recv()
		if err != nil {
			return
		}
		for _, v := range verbs {
			if m.Verb == v {
				sc.t.Errorf("script: forbidden %s re-sent: %v", v, m)
			}
		}
		if m.Verb == "EXIT" {
			return
		}
		sc.reply(m, "OK")
	}
}

type scripted struct {
	t    *testing.T
	addr string
	wg   sync.WaitGroup
}

func newScripted(t *testing.T, scripts ...script) *scripted {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	s := &scripted{t: t, addr: l.Addr().String()}
	s.wg.Add(len(scripts))
	go func() {
		for i := 0; i < len(scripts); i++ {
			conn, err := l.Accept()
			if err != nil {
				for ; i < len(scripts); i++ {
					s.wg.Done()
				}
				return
			}
			run := scripts[i]
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				run(&scriptConn{t: s.t, wc: wire.NewConn(c), raw: c})
			}(conn)
		}
	}()
	return s
}

// wait blocks until every script has run to completion, so forbidden-
// verb checks have definitely been applied before assertions.
func (s *scripted) wait() {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.t.Fatal("scripted server: scripts did not complete")
	}
}

func scriptSession(t *testing.T, addr string) *Session {
	t.Helper()
	s := NewSession(SessionConfig{
		Addr:        addr,
		Context:     "script",
		Backoff:     Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0},
		MaxAttempts: 50,
		ConnectWait: 5 * time.Second,
		Seed:        1,
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSessionPutProbeLanded: the connection dies with a PUT ack in
// flight, but the write actually landed. The session must discover
// that via the probe on the next connection and NOT re-send the PUT.
func TestSessionPutProbeLanded(t *testing.T) {
	srv := newScripted(t,
		func(sc *scriptConn) { // conn 0: take the PUT, die before acking
			sc.hello()
			if sc.expect("PUT") != nil {
				sc.raw.Close()
			}
		},
		func(sc *scriptConn) { // conn 1: probe sees our value → landed
			sc.hello()
			m := sc.expect("TRYGET")
			if m != nil && m.Get("attr") != "k" {
				sc.t.Errorf("probe for %q, want k", m.Get("attr"))
			}
			sc.reply(m, "VALUE", "attr", "k", "value", "hello", "seq", "4")
			sc.drainForbidding("PUT")
		},
	)
	s := scriptSession(t, srv.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.PutCtx(ctx, "k", "hello"); err != nil {
		t.Fatalf("PutCtx: %v", err)
	}
	s.Close()
	srv.wait()
	if _, retries, _ := s.Stats(); retries == 0 {
		t.Error("no retry recorded despite the injected cut")
	}
}

// TestSessionPutProbeSuperseded: while our ack was lost, another
// writer advanced the attribute. Re-sending would clobber the newer
// value with a stale one; the session must treat the put as
// superseded and return success without re-sending.
func TestSessionPutProbeSuperseded(t *testing.T) {
	srv := newScripted(t,
		func(sc *scriptConn) {
			sc.hello()
			if sc.expect("PUT") != nil {
				sc.raw.Close()
			}
		},
		func(sc *scriptConn) { // probe: newer value, newer seq → superseded
			sc.hello()
			m := sc.expect("TRYGET")
			sc.reply(m, "VALUE", "attr", "k", "value", "newer", "seq", "9")
			sc.drainForbidding("PUT")
		},
	)
	s := scriptSession(t, srv.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.PutCtx(ctx, "k", "stale"); err != nil {
		t.Fatalf("PutCtx: %v", err)
	}
	s.Close()
	srv.wait()
}

// TestSessionPutProbeResend: the probe finds no trace of the write
// (NOTFOUND), so the session re-sends it on the new connection.
func TestSessionPutProbeResend(t *testing.T) {
	srv := newScripted(t,
		func(sc *scriptConn) {
			sc.hello()
			if sc.expect("PUT") != nil {
				sc.raw.Close()
			}
		},
		func(sc *scriptConn) {
			sc.hello()
			sc.reply(sc.expect("TRYGET"), "NOTFOUND")
			m := sc.expect("PUT")
			if m != nil && (m.Get("attr") != "k" || m.Get("value") != "v") {
				sc.t.Errorf("re-sent PUT %v, want k=v", m)
			}
			sc.reply(m, "OK", "seq", "2")
			sc.drainForbidding()
		},
	)
	s := scriptSession(t, srv.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.PutCtx(ctx, "k", "v"); err != nil {
		t.Fatalf("PutCtx: %v", err)
	}
	s.Close()
	srv.wait()
}

// TestSessionDeleteProbeLanded: a delete whose ack was lost but which
// landed (probe says NOTFOUND) must not be re-sent.
func TestSessionDeleteProbeLanded(t *testing.T) {
	srv := newScripted(t,
		func(sc *scriptConn) {
			sc.hello()
			if sc.expect("DELETE") != nil {
				sc.raw.Close()
			}
		},
		func(sc *scriptConn) {
			sc.hello()
			sc.reply(sc.expect("TRYGET"), "NOTFOUND")
			sc.drainForbidding("DELETE")
		},
	)
	s := scriptSession(t, srv.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.DeleteCtx(ctx, "k"); err != nil {
		t.Fatalf("DeleteCtx: %v", err)
	}
	s.Close()
	srv.wait()
}

// ---------------------------------------------------------------------------
// Pending-reply hygiene.

// TestClientFailDrainsPendings is the regression test for the async
// pending-reply leak: replies outstanding when the connection dies
// (here a GetAsync and a blocking Put, both in flight) must each
// receive a prompt retryable error, and the pending map must end
// empty — no stranded channel entries.
func TestClientFailDrainsPendings(t *testing.T) {
	srv := newScripted(t, func(sc *scriptConn) {
		sc.hello()
		sc.expect("GET") // swallow; never reply
		sc.expect("PUT") // both now in flight; kill the transport
		sc.raw.Close()
	})
	c, err := Dial(nil, srv.addr, "leak")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	res, err := c.GetAsync("never-set")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}
	putErr := make(chan error, 1)
	go func() { putErr <- c.Put("k", "v") }()

	select {
	case r := <-res:
		if r.Err == nil || !IsRetryable(r.Err) {
			t.Errorf("GetAsync result error = %v, want retryable", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetAsync reply channel never delivered after connection loss (leaked pending)")
	}
	select {
	case err := <-putErr:
		if err == nil || !IsRetryable(err) {
			t.Errorf("Put error = %v, want retryable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put never returned after connection loss (leaked pending)")
	}
	c.mu.Lock()
	n := len(c.slots)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("reply table holds %d entries after fail, want 0", n)
	}
	srv.wait()
}

// ---------------------------------------------------------------------------
// Graceful drain.

// TestServerShutdownDrain: Shutdown announces CLOSE, after which the
// client refuses new requests with ErrServerDraining; a blocked GET
// outstanding across the drain resolves with a retryable error rather
// than hanging; Shutdown itself completes within its context.
func TestServerShutdownDrain(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr, "drain")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	blocked, err := c.GetAsync("never-put")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Wait for the CLOSE frame to be processed (racing writes against
	// it would see the connection torn down before the announcement),
	// then require that new sends are turned away as draining — a
	// retryable classification a Session rides through.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		draining := c.draining
		c.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed the drain announcement")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Put("k2", "v2"); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("post-CLOSE Put error = %v, want ErrServerDraining", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	select {
	case r := <-blocked:
		if r.Err == nil || !IsRetryable(r.Err) {
			t.Errorf("blocked GET across drain: error = %v, want retryable", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked GET never resolved across the drain")
	}
}

// TestSessionRidesThroughDrain: a Session connected to a server that
// drains and is replaced reconnects and keeps serving without caller-
// visible failures.
func TestSessionRidesThroughDrain(t *testing.T) {
	r := newRestartable(t)
	keep := r.space.Join("drainride")
	defer keep.Leave()

	s := NewSession(SessionConfig{
		Addr:        r.addr,
		Context:     "drainride",
		Backoff:     Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5},
		MaxAttempts: -1,
		ConnectWait: 5 * time.Second,
		Seed:        1,
	})
	defer s.Close()
	if err := s.Put("before", "1"); err != nil {
		t.Fatalf("Put before drain: %v", err)
	}
	r.drain(time.Second)
	r.restart()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.PutCtx(ctx, "after", "2"); err != nil {
		t.Fatalf("Put after drain+restart: %v", err)
	}
	for _, k := range []string{"before", "after"} {
		if _, err := s.TryGet(k); err != nil {
			t.Errorf("TryGet(%s) after drain: %v", k, err)
		}
	}
}

// TestSessionGateEpochRestart pins down why install() gates event
// delivery until the resync has run. A context destroyed and recreated
// while the session was away restarts its seqs from 1; a live event
// from the new epoch that lands between SUB and the resync snapshot
// would be judged against the previous epoch's per-attribute marks and
// silently dropped — and since the snapshot was fetched before that
// write, nothing ever replays it. The gate holds such events until
// applyFullResync has detected the epoch restart and reset the marks.
func TestSessionGateEpochRestart(t *testing.T) {
	s := NewSession(SessionConfig{
		Dial: func(addr string) (net.Conn, error) {
			return nil, errors.New("no server in this test")
		},
		Addr:        "nowhere",
		Context:     "gate",
		Backoff:     Backoff{Initial: time.Hour, Max: time.Hour, Factor: 1},
		MaxAttempts: -1,
	})
	defer s.Close()
	m := newMirror()
	s.SetEventHandler(m.handle)

	// Epoch A, delivered live on the first connection.
	for i, a := range []string{"x", "y", "z"} {
		s.deliver(Event{Attr: a, Value: "old", Op: "put", Seq: uint64(i + 1)})
	}

	// Reconnect: install() captures the epoch baseline, subscribes on
	// the new connection, and gates its handler.
	s.emitMu.Lock()
	preSeq := s.ctxSeq
	s.emitMu.Unlock()
	gate := &evGate{s: s}

	// The recreated context restarted seqs: a live event for y (seq 2
	// in the new epoch, stale against epoch A's mark y=2) arrives while
	// the resync RPC is still in flight.
	gate.handle(Event{Attr: "y", Value: "new", Op: "put", Seq: 2})

	// The resync snapshot predates y's write: only x, at ctxSeq 1 <
	// preSeq — an epoch restart. applyFullResync resets the marks.
	s.applyFullResync(map[string]Versioned{"x": {Value: "new", Seq: 1}}, 1, preSeq)
	gate.release()

	got, _, _ := m.snapshot()
	want := map[string]string{"x": "new", "y": "new"}
	if !sameMap(got, want) {
		t.Fatalf("mirror after epoch restart = %v, want %v", got, want)
	}
}
