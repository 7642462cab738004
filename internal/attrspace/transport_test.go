package attrspace

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/wire"
)

// ---------------------------------------------------------------------------
// HELLO negotiation.

// TestCapsNegotiated pins down the HELLO grant. The shm ring is the only
// negotiated upgrade: it is granted exactly when the connection is a
// unix socket, the client offered it, the server allows it and this
// build can map a segment. Every other offer — nothing, an older
// client's long list, junk — gets an OK without a caps field, and the
// whole protocol (PING, SNAPD, the C* verbs) is served regardless.
func TestCapsNegotiated(t *testing.T) {
	cases := []struct {
		name  string
		unix  bool
		noShm bool // server started with SetShm(false)
		offer string
	}{
		{name: "tcp-none", offer: ""},
		{name: "tcp-shm", offer: "shm"},
		{name: "tcp-old-list", offer: "mux,snapd,chunk,ping,bytewin,shm"},
		{name: "tcp-junk", offer: "bogus,,shm,shm"},
		{name: "unix-none", unix: true, offer: ""},
		{name: "unix-shm", unix: true, offer: "shm"},
		{name: "unix-old-list", unix: true, offer: "mux,snapd,chunk,ping,bytewin,shm"},
		{name: "unix-junk", unix: true, offer: "bogus,,shm,shm"},
		{name: "unix-shm-off", unix: true, noShm: true, offer: "shm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer()
			srv.SetShm(!tc.noShm)
			laddr := "127.0.0.1:0"
			if tc.unix {
				laddr = "unix:" + filepath.Join(t.TempDir(), "hello.sock")
			}
			addr, err := srv.ListenAndServe(laddr)
			if err != nil {
				t.Fatalf("ListenAndServe: %v", err)
			}
			t.Cleanup(srv.Close)
			network := "tcp"
			if path, ok := strings.CutPrefix(addr, "unix:"); ok {
				network, addr = "unix", path
			}
			raw, err := net.Dial(network, addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			t.Cleanup(func() { raw.Close() })
			rc := &rawCaller{t: t, wc: wire.NewConn(raw)}
			hello := wire.NewMessage("HELLO").Set("context", "job1")
			if tc.offer != "" {
				hello.Set("caps", tc.offer)
			}
			ok := rc.call(hello)
			if ok.Verb != "OK" {
				t.Fatalf("HELLO reply = %v", ok)
			}
			wantShm := tc.unix && !tc.noShm && strings.Contains(tc.offer, "shm") && wire.ShmSupported()
			caps, granted := ok.Lookup("caps")
			switch {
			case wantShm && caps != wire.CapShm:
				t.Fatalf("caps = %q, %v; want exactly %q", caps, granted, wire.CapShm)
			case wantShm && ok.Get("shmfile") == "":
				t.Fatal("shm granted without a shmfile")
			case !wantShm && (granted || ok.Get("shmfile") != ""):
				t.Fatalf("OK carries caps=%q shmfile=%q; want neither", caps, ok.Get("shmfile"))
			}
			if tc.offer != "" {
				return // a granted conn now expects SHMRDY, not requests
			}
			// Nothing offered: the full protocol is still served.
			if got := rc.call(wire.NewMessage("PING")); got.Verb != "PONG" {
				t.Errorf("PING reply = %v, want PONG", got)
			}
			if got := rc.call(wire.NewMessage("CPUT").Set("ctx", "job1").Set("attr", "a").Set("value", "1")); got.Verb != "OK" {
				t.Errorf("CPUT reply = %v, want OK", got)
			}
			if got := rc.call(wire.NewMessage("SNAPD").Set("since", "0")); got.Verb != "DELTA" || got.Int("n", 0) != 1 {
				t.Errorf("SNAPD reply = %v, want a one-entry DELTA", got)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Delta resync (SNAPD).

func TestSnapshotDeltaReplaysOnlyTheGap(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("base%02d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	_, since, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq: %v", err)
	}
	// The gap: two puts and a delete.
	if err := c.Put("new1", "x"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Put("new2", "y"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Delete("base00"); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	ops, full, ctxSeq, err := c.SnapshotDelta(context.Background(), since)
	if err != nil {
		t.Fatalf("SnapshotDelta: %v", err)
	}
	if full != nil {
		t.Fatalf("SnapshotDelta fell back to a full snapshot for a covered gap")
	}
	if len(ops) != 3 {
		t.Fatalf("delta = %d ops, want 3: %+v", len(ops), ops)
	}
	if ops[0].Attr != "new1" || ops[0].Value != "x" || ops[0].Delete {
		t.Errorf("ops[0] = %+v", ops[0])
	}
	if ops[2].Attr != "base00" || !ops[2].Delete {
		t.Errorf("ops[2] = %+v, want delete of base00", ops[2])
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Seq <= ops[i-1].Seq {
			t.Errorf("delta out of seq order: %+v", ops)
		}
	}
	if ctxSeq != ops[2].Seq {
		t.Errorf("ctxSeq = %d, want %d", ctxSeq, ops[2].Seq)
	}
}

func TestSnapshotDeltaCompactedFallsBackToFull(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	if err := c.Put("early", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_, since, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq: %v", err)
	}
	// Push the change log far past its compaction bound so `since` falls
	// off the retained tail.
	var pairs []KV
	for i := 0; i < 2100; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("k%04d", i%40), Value: fmt.Sprintf("v%d", i)})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	ops, full, ctxSeq, err := c.SnapshotDelta(context.Background(), since)
	if err != nil {
		t.Fatalf("SnapshotDelta: %v", err)
	}
	if ops != nil || full == nil {
		t.Fatalf("want full-snapshot fallback for a compacted gap, got %d ops, full=%v", len(ops), full != nil)
	}
	if len(full) != 41 { // "early" + 40 k-slots
		t.Errorf("full snapshot = %d entries, want 41", len(full))
	}
	if ctxSeq == 0 {
		t.Error("fallback snapshot carried no context seq")
	}
}

// TestSnapshotSizeHintFromPeer: a snapshot or delta reply's declared
// total is only a hint. A negative one must not panic the caller and a
// huge one must not be allocated for; both results are simply what the
// reply actually carried. The fake server grants the long capability
// list servers used to negotiate verb by verb; the client must ignore
// every name in it but shm.
func TestSnapshotSizeHintFromPeer(t *testing.T) {
	for _, total := range []string{"-1", strconv.FormatInt(1<<40, 10)} {
		t.Run("total="+total, func(t *testing.T) {
			addr := fakeServer(t, "mux,snapd,chunk,ping,bytewin", func(wc *wire.Conn, m *wire.Message) {
				reply := wire.NewMessage("SNAPV")
				if m.Verb == "SNAPD" && m.Get("since") == "1" {
					reply = wire.NewMessage("DELTA")
				}
				reply.Set("id", m.Get("id")).Set("n", "0").Set("total", total).Set("seq", "7")
				wc.Send(reply)
			})
			c, err := Dial(nil, addr, "job1")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			ctx := context.Background()
			ops, full, seq, err := c.SnapshotDelta(ctx, 1)
			if err != nil || len(ops) != 0 || full != nil || seq != 7 {
				t.Errorf("SnapshotDelta = %d ops, full=%v, seq %d, %v", len(ops), full != nil, seq, err)
			}
			ops, full, seq, err = c.SnapshotDelta(ctx, 2) // answered with a full SNAPV
			if err != nil || ops != nil || len(full) != 0 || seq != 7 {
				t.Errorf("SnapshotDelta full = %d ops, %d entries, seq %d, %v", len(ops), len(full), seq, err)
			}
			snap, seq, err := c.SnapshotSeq(ctx)
			if err != nil || len(snap) != 0 || seq != 7 {
				t.Errorf("SnapshotSeq = %d entries, seq %d, %v", len(snap), seq, err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Chunked snapshot replies.

func TestChunkedSnapshotReassembly(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	n := SnapChunkEntries*2 + 37 // forces 3 parts
	var pairs []KV
	for i := 0; i < n; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%04d", i), Value: fmt.Sprintf("val%d", i)})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	snap, ctxSeq, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq: %v", err)
	}
	if len(snap) != n {
		t.Fatalf("reassembled snapshot = %d entries, want %d", len(snap), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("attr%04d", i)
		v, ok := snap[k]
		if !ok || v.Value != fmt.Sprintf("val%d", i) {
			t.Fatalf("snap[%s] = %+v, %v", k, v, ok)
		}
	}
	if ctxSeq == 0 {
		t.Error("chunked snapshot carried no context seq")
	}
	// A delta over a wide gap chunks too; it must reassemble in order.
	ops, full, _, err := c.SnapshotDelta(context.Background(), 0)
	if err != nil || full != nil {
		t.Fatalf("SnapshotDelta(0) = full=%v, %v", full != nil, err)
	}
	if len(ops) != n {
		t.Fatalf("chunked delta = %d ops, want %d", len(ops), n)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Seq <= ops[i-1].Seq {
			t.Fatalf("chunked delta out of order at %d: %d after %d", i, ops[i].Seq, ops[i-1].Seq)
		}
	}
}

// TestSnapshotInterleavesWithPing is the heartbeat-starvation check at
// the protocol level: while a multi-part snapshot streams on the bulk
// stream, a PING issued mid-replay must come back without waiting for
// the replay to finish.
func TestSnapshotInterleavesWithPing(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr, "job1")
	var pairs []KV
	for i := 0; i < SnapChunkEntries*8; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%05d", i), Value: "x"})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		snap, _, err := c.SnapshotSeq(context.Background())
		if err == nil && len(snap) != len(pairs) {
			err = fmt.Errorf("snapshot = %d entries, want %d", len(snap), len(pairs))
		}
		done <- err
	}()
	// Pings racing the replay: each must complete promptly.
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := c.Ping(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Ping during snapshot replay: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Same-host fast path.

func TestUnixSocketRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	if bound != "unix:"+path {
		t.Fatalf("bound = %q", bound)
	}
	c := dialT(t, bound, "job1")
	if err := c.Put("pid", "7"); err != nil {
		t.Fatalf("Put over unix socket: %v", err)
	}
	if v, err := c.TryGet("pid"); err != nil || v != "7" {
		t.Fatalf("TryGet = %q, %v", v, err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Errorf("Ping over unix socket: %v", err)
	}
}

func TestAutoDialPrefersUnixBeside(t *testing.T) {
	srv, addr := startServer(t)
	side, err := srv.ListenUnixBeside(addr)
	if err != nil {
		t.Fatalf("ListenUnixBeside: %v", err)
	}
	if side == "" {
		t.Fatal("ListenUnixBeside derived no socket for a bound TCP address")
	}
	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "unix" {
		t.Fatalf("AutoDial used %s for a loopback address with a live side socket", got)
	}
	// And the full protocol stack rides it.
	c := dialT(t, addr, "job1")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestAutoDialFallsBackToTCP(t *testing.T) {
	_, addr := startServer(t) // no unix side socket
	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "tcp" {
		t.Fatalf("AutoDial network = %s, want tcp fallback", got)
	}
}

func TestSocketPathFor(t *testing.T) {
	if p := SocketPathFor("127.0.0.1:4510"); p == "" {
		t.Error("no path for a normal host:port")
	}
	for _, bad := range []string{"", "nohost", "127.0.0.1:0", "host:"} {
		if p := SocketPathFor(bad); p != "" {
			t.Errorf("SocketPathFor(%q) = %q, want empty", bad, p)
		}
	}
}

// ---------------------------------------------------------------------------
// Mux fan-out: a blocked GET must not stall event delivery.

func TestEventsFlowWhileGetBlocks(t *testing.T) {
	_, addr := startServer(t)
	watcher := dialT(t, addr, "job1")
	writer := dialT(t, addr, "job1")
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	var events atomic.Int64
	watcher.SetEventHandler(func(Event) { events.Add(1) })

	// A GET for an attribute nobody ever writes parks server-side.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watcher.Get(ctx, "never-written")
	}()

	for i := 0; i < 100; i++ {
		if err := writer.Put(fmt.Sprintf("e%02d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for events.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := events.Load(); got < 100 {
		t.Fatalf("watcher saw %d events while a GET was parked, want 100", got)
	}
	cancel()
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Change-log plumbing end to end: mutations through the server land in
// the per-context log that SNAPD serves from.

func TestServerMutationsFeedChangeLog(t *testing.T) {
	space := attr.NewSpace()
	srv := NewServerWithSpace(space)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	c := dialT(t, l.Addr().String(), "job1")
	if err := c.Put("a", "1"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.PutBatch([]KV{{Key: "b", Value: "2"}, {Key: "c", Value: "3"}}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ref := space.Join("job1")
	defer ref.Leave()
	changes, _, ok, err := ref.ChangesSince(0)
	if err != nil || !ok {
		t.Fatalf("ChangesSince = ok=%v, %v", ok, err)
	}
	if len(changes) != 4 {
		t.Fatalf("change log = %d entries, want 4: %+v", len(changes), changes)
	}
	last := changes[len(changes)-1]
	if last.Attr != "a" || !last.Delete {
		t.Errorf("last change = %+v, want delete of a", last)
	}
}

// ---------------------------------------------------------------------------
// Transport v3: the shared-memory ring cutover.

// TestShmCutoverOverUnixSocket is the happy path: a client dialing the
// unix socket negotiates shm, completes the cutover, and every kind of
// traffic — purs, batches, chunked snapshots, events, pings — rides
// the ring.
func TestShmCutoverOverUnixSocket(t *testing.T) {
	if !wire.ShmSupported() {
		t.Skip("no shm transport on this platform")
	}
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	c := dialT(t, bound, "job1")
	if !c.ShmActive() {
		t.Fatal("shm cutover did not complete")
	}

	if err := c.Put("pid", "42"); err != nil {
		t.Fatalf("Put over ring: %v", err)
	}
	if v, err := c.TryGet("pid"); err != nil || v != "42" {
		t.Fatalf("TryGet over ring = %q, %v", v, err)
	}
	// A chunked snapshot (multi-part bulk reply) across the ring.
	var pairs []KV
	for i := 0; i < SnapChunkEntries+17; i++ {
		pairs = append(pairs, KV{Key: fmt.Sprintf("attr%04d", i), Value: "v"})
	}
	if err := c.PutBatch(pairs); err != nil {
		t.Fatalf("PutBatch over ring: %v", err)
	}
	snap, _, err := c.SnapshotSeq(context.Background())
	if err != nil {
		t.Fatalf("SnapshotSeq over ring: %v", err)
	}
	if len(snap) != len(pairs)+1 { // + pid
		t.Fatalf("snapshot = %d entries, want %d", len(snap), len(pairs)+1)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping over ring: %v", err)
	}

	// Event fan-out: a second ring connection watches the first's puts.
	watcher := dialT(t, bound, "job1")
	if !watcher.ShmActive() {
		t.Fatal("second connection did not cut over")
	}
	var events atomic.Int64
	watcher.SetEventHandler(func(Event) { events.Add(1) })
	if err := watcher.Subscribe(); err != nil {
		t.Fatalf("Subscribe over ring: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("ev%02d", i), "x"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for events.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := events.Load(); got < 50 {
		t.Fatalf("watcher saw %d ring events, want 50", got)
	}
	// The segment file must be gone: unlinked right after the cutover.
	segs, _ := filepath.Glob(filepath.Join(t.TempDir(), "tdp-shm-*"))
	if len(segs) != 0 {
		t.Errorf("segment files leaked in test dir: %v", segs)
	}
}

// TestShmWithdrawnByServer: a server with shm turned off leaves a
// shm-offering client on the plain socket path.
func TestShmWithdrawnByServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdp.sock")
	srv := NewServer()
	srv.SetShm(false)
	bound, err := srv.ListenAndServe("unix:" + path)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(srv.Close)
	c := dialT(t, bound, "job1")
	if c.ShmActive() {
		t.Fatal("shm engaged against a server that does not grant it")
	}
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put on the socket: %v", err)
	}
}

// TestShmNotOfferedOverTCP: a TCP connection — even to localhost — is
// not provably same-host at the transport level, so the capability is
// never offered and never granted.
func TestShmNotOfferedOverTCP(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(TCPDial, addr, "job1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if c.ShmActive() {
		t.Fatal("shm engaged over TCP")
	}
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

// TestShmFallbackWhenSegmentUnmappable: a server that grants shm but
// hands out a segment path the client cannot map (gone, truncated,
// wrong fs) must quietly end up on the plain socket path — the client
// simply never sends SHMRDY. Driven with a scripted server so the
// failure can be injected.
func TestShmFallbackWhenSegmentUnmappable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fake.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	srvErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		m, err := wc.Recv()
		if err != nil || m.Verb != "HELLO" {
			srvErr <- fmt.Errorf("first frame = %v, %v", m, err)
			return
		}
		// Grant shm with a segment path that does not exist.
		if err := wc.Send(wire.NewMessage("OK").Set("id", m.Get("id")).
			Set("caps", "mux,snapd,chunk,ping,bytewin,shm").
			Set("shmfile", filepath.Join(t.TempDir(), "no-such-segment"))); err != nil {
			srvErr <- err
			return
		}
		// The client must carry on over the socket: the next frame is a
		// regular request, not SHMRDY.
		m, err = wc.Recv()
		if err != nil {
			srvErr <- err
			return
		}
		if m.Verb == "SHMRDY" {
			srvErr <- fmt.Errorf("client sent SHMRDY for an unmappable segment")
			return
		}
		if m.Verb != "PING" {
			srvErr <- fmt.Errorf("unexpected frame %v", m)
			return
		}
		srvErr <- wc.Send(wire.NewMessage("PONG").Set("id", m.Get("id")))
	}()

	c, err := Dial(nil, "unix:"+path, "job1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if c.ShmActive() {
		t.Fatal("ShmActive over an unmappable segment")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping on the socket fallback: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// TestAutoDialRemovesStaleSocket is the satellite regression test: a
// leftover socket file from a crashed daemon (exists, but connection
// refused) must not wedge AutoDial — it falls through to TCP and
// clears the dead file so later dials go straight there.
func TestAutoDialRemovesStaleSocket(t *testing.T) {
	srv, addr := startServer(t) // TCP only
	_ = srv
	path := SocketPathFor(addr)
	if path == "" {
		t.Fatal("no conventional socket path for test address")
	}
	ul, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("staging stale socket: %v", err)
	}
	// Close WITHOUT unlinking: exactly the state a crashed daemon
	// leaves behind.
	ul.(*net.UnixListener).SetUnlinkOnClose(false)
	ul.Close()
	t.Cleanup(func() { os.Remove(path) })

	conn, err := AutoDial(addr)
	if err != nil {
		t.Fatalf("AutoDial with stale socket present: %v", err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().Network(); got != "tcp" {
		t.Fatalf("AutoDial network = %s, want tcp fallthrough", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stale socket file not removed (stat err = %v)", err)
	}
	// And the whole client stack works through the fallback.
	c := dialT(t, addr, "job1")
	if err := c.Put("k", "v"); err != nil {
		t.Fatalf("Put after stale-socket fallback: %v", err)
	}
}
