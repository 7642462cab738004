package attrspace

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/wire"
)

// Tests for who reads a shm connection: callers that borrow the read
// token, the background reader, and the doorbell-death path.

// startShmServer serves a fresh server on a unix socket in a temp dir,
// so AutoDial clients cut over to the shm ring. It returns the server,
// its "unix:" address and the socket path.
func startShmServer(t *testing.T) (*Server, string, string) {
	t.Helper()
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	addr, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr, path
}

// dialShm dials addr and fails the test unless the shm cutover completed.
func dialShm(t *testing.T, addr, ctx string) *Client {
	t.Helper()
	c := dialT(t, addr, ctx)
	if !c.ShmActive() {
		t.Fatal("shm cutover did not complete")
	}
	return c
}

func readerOf(c *Client) tokenHolder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reader
}

// waitReader polls until c's read token is held by want.
func waitReader(t *testing.T, c *Client, want tokenHolder) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for readerOf(c) != want {
		if time.Now().After(deadline) {
			t.Fatalf("read token holder = %d, want %d", readerOf(c), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShmReadPathConcurrentMix runs every kind of wait at once on one
// shm client: uncancellable calls (which borrow the read token),
// cancellable ones (which leave reading to the background reader), a
// GetAsync blocked on an absent key until a later put, coalesced
// PutAsyncs and chunked snapshots. Every reply must reach its own
// caller with the right content.
func TestShmReadPathConcurrentMix(t *testing.T) {
	_, addr, _ := startShmServer(t)
	c := dialShm(t, addr, "mix")
	writer := dialShm(t, addr, "mix")

	// Enough preloaded entries that every SNAP seqs=1 reply is chunked.
	var preload []KV
	for i := 0; i < 2*SnapChunkEntries+5; i++ {
		preload = append(preload, KV{Key: fmt.Sprintf("pre%04d", i), Value: fmt.Sprintf("p%d", i)})
	}
	if err := c.PutBatch(preload); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	late, err := c.GetAsync("late")
	if err != nil {
		t.Fatalf("GetAsync: %v", err)
	}

	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	// Uncancellable callers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key, val := fmt.Sprintf("bg%d.%d", g, i%7), fmt.Sprintf("v%d", i)
				if err := c.Put(key, val); err != nil {
					report("Put %s: %v", key, err)
					return
				}
				if got, err := c.TryGet(key); err != nil || got != val {
					report("TryGet %s = %q, %v; want %q", key, got, err, val)
					return
				}
				if got, err := c.Get(context.Background(), key); err != nil || got != val {
					report("Get %s = %q, %v; want %q", key, got, err, val)
					return
				}
			}
		}(g)
	}
	// Cancellable callers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				key, val := fmt.Sprintf("to%d.%d", g, i%5), fmt.Sprintf("w%d", i)
				err := c.PutCtx(ctx, key, val)
				var got string
				if err == nil {
					got, err = c.TryGetCtx(ctx, key)
				}
				cancel()
				if err != nil || got != val {
					report("timeout-ctx %s = %q, %v; want %q", key, got, err, val)
					return
				}
			}
		}(g)
	}
	// Coalesced async puts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs := make([]<-chan Result, 0, rounds)
		for i := 0; i < rounds; i++ {
			out, err := c.PutAsync(fmt.Sprintf("async%d", i%11), fmt.Sprintf("a%d", i))
			if err != nil {
				report("PutAsync: %v", err)
				return
			}
			outs = append(outs, out)
		}
		for i, out := range outs {
			if r := <-out; r.Err != nil || r.Value != fmt.Sprintf("a%d", i) {
				report("PutAsync %d result = %+v", i, r)
				return
			}
		}
	}()
	// Chunked snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			snap, _, err := c.SnapshotSeq(context.Background())
			if err != nil {
				report("SnapshotSeq: %v", err)
				return
			}
			for _, kv := range preload {
				if snap[kv.Key].Value != kv.Value {
					report("snapshot %s = %q, want %q", kv.Key, snap[kv.Key].Value, kv.Value)
					return
				}
			}
		}
	}()

	// The blocked GetAsync must still be waiting, then complete once
	// another connection writes the key.
	select {
	case r := <-late:
		t.Fatalf("GetAsync on an absent key returned early: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if err := writer.Put("late", "arrived"); err != nil {
		t.Fatalf("writer Put: %v", err)
	}
	select {
	case r := <-late:
		if r.Err != nil || r.Value != "arrived" {
			t.Fatalf("GetAsync = %+v, want arrived", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetAsync never completed")
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < 11; i++ {
		key := fmt.Sprintf("async%d", i)
		want := fmt.Sprintf("a%d", rounds-1-(rounds-1-i)%11)
		if got, err := c.TryGet(key); err != nil || got != want {
			t.Errorf("after PutAsync, %s = %q, %v; want %q", key, got, err, want)
		}
	}
}

// TestShmIdleServerCloseFiresOnClose: with nothing outstanding and
// nobody reading, a server that goes away must still fail the client
// promptly, through the ring's doorbell death alone. A Session with
// heartbeats off must notice the same way and reconnect.
func TestShmIdleServerCloseFiresOnClose(t *testing.T) {
	srv, addr, path := startShmServer(t)
	c := dialShm(t, addr, "idle")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitReader(t, c, noReader)
	closed := make(chan error, 1)
	c.OnClose(func(err error) { closed <- err })

	sess := NewSession(SessionConfig{Dial: AutoDial, Addr: addr, Context: "idle",
		Backoff: Backoff{Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond}})
	defer sess.Close()
	ready, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sess.WaitReady(ready); err != nil {
		t.Fatalf("session WaitReady: %v", err)
	}
	if err := sess.Put("s", "1"); err != nil {
		t.Fatalf("session Put: %v", err)
	}
	sess.mu.Lock()
	sc := sess.cur
	sess.mu.Unlock()
	waitReader(t, sc, noReader)

	srv.Close()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("OnClose did not fire within 1s of an idle server closing")
	}
	if _, err := c.TryGet("k"); !IsRetryable(err) {
		t.Errorf("op after close = %v, want retryable", err)
	}

	// A replacement server on the same socket: the session reconnects
	// without any operation or heartbeat prompting it.
	srv2 := NewServer()
	if _, err := srv2.ListenAndServe("unix:" + path); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reconnects, _, _ := sess.Stats(); reconnects > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never reconnected after the idle close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sess.Put("s", "2"); err != nil {
		t.Fatalf("session Put after reconnect: %v", err)
	}
}

// TestShmCloseWhileCallerReads: the server announces CLOSE while a
// caller holds the read token (a blocking Get on an absent key). The
// caller must route the CLOSE, then fail with ErrServerDraining when
// the connection ends, and OnClose must report the drain.
func TestShmCloseWhileCallerReads(t *testing.T) {
	srv, addr, _ := startShmServer(t)
	c := dialShm(t, addr, "drain")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitReader(t, c, noReader)
	closed := make(chan error, 1)
	c.OnClose(func(err error) { closed <- err })
	got := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "never-put")
		got <- err
	}()
	waitReader(t, c, callerReader)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrServerDraining) {
			t.Errorf("blocked Get = %v, want ErrServerDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Get never returned after the drain")
	}
	select {
	case err := <-closed:
		if !errors.Is(err, ErrServerDraining) {
			t.Errorf("OnClose error = %v, want ErrServerDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose never fired")
	}
	if err := c.Put("k", "v2"); !IsRetryable(err) {
		t.Errorf("Put after drain = %v, want retryable", err)
	}
}

// TestShmSubscribedEventsInOrder: a subscribed client receives every
// event, in order, on the background reader — never on a caller's
// goroutine — while another goroutine issues sync puts on the same
// client. The subscription starts while a caller holds the read token,
// so events that caller reads must be queued and handed over.
func TestShmSubscribedEventsInOrder(t *testing.T) {
	srv, addr, _ := startShmServer(t)
	// Room for every event: the server's overflow policy must not drop
	// any, so a missing event can only be the client's fault.
	srv.SetEventBuffer(4096)
	c := dialShm(t, addr, "events")
	writer := dialShm(t, addr, "events")
	// The background reader gives the token up after routing a reply
	// with nothing else outstanding.
	if err := c.Put("warm", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitReader(t, c, noReader)

	// A caller blocked on "gate" holds the read token across Subscribe.
	gated := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "gate")
		gated <- err
	}()
	waitReader(t, c, callerReader)

	var (
		mu     sync.Mutex
		seen   []Event
		onCall atomic.Int64
	)
	c.SetEventHandler(func(ev Event) {
		if readerOf(c) == callerReader {
			onCall.Add(1)
		}
		mu.Lock()
		seen = append(seen, ev)
		mu.Unlock()
	})
	if err := c.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := writer.Put(fmt.Sprintf("w%03d", i), "x"); err != nil {
				t.Errorf("writer Put: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c.Put(fmt.Sprintf("c%03d", i), "y"); err != nil {
				t.Errorf("subscribed client Put: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := writer.Put("gate", "open"); err != nil {
		t.Fatalf("gate Put: %v", err)
	}
	select {
	case err := <-gated:
		if err != nil {
			t.Fatalf("gated Get: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gated Get never returned")
	}

	want := 2*n + 1
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		if got >= want {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			var lost uint64
			for _, ev := range seen {
				lost += ev.Lost
			}
			mu.Unlock()
			t.Fatalf("received %d events (server reported %d lost), want %d", got, lost, want)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != want {
		t.Fatalf("received %d events, want exactly %d", len(seen), want)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Lost != 0 {
			t.Fatalf("event %d reports %d updates lost by the server", i, seen[i].Lost)
		}
		if seen[i].Seq <= seen[i-1].Seq {
			t.Fatalf("event %d seq %d after seq %d: out of order", i, seen[i].Seq, seen[i-1].Seq)
		}
	}
	if k := onCall.Load(); k != 0 {
		t.Errorf("%d events ran their handler on a caller's goroutine", k)
	}
}

// TestShmPutAllocs pins the allocations of one Client.Put round trip
// over the shm ring with telemetry off, counted across the whole
// process (client and server): the request id and reply seq strings
// and the two decoded payloads, plus two to spare for the runtime.
func TestShmPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	_, addr, _ := startShmServer(t)
	c := dialShm(t, addr, "allocs")
	for i := 0; i < 100; i++ { // settle pools and the read token
		if err := c.Put("attr", "value"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := c.Put("attr", "value"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	})
	if allocs > 6 {
		t.Errorf("Client.Put over shm = %.1f allocs, want <= 6", allocs)
	}
}
