package interop

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tdp/internal/attr"
	"tdp/internal/attrspace"
	"tdp/internal/wire"
)

// TestTransportV3FallbackMatrix drives one client stack against a
// server over the transports where each pairing can occur in a real
// pool. The shm ring is the only thing that differs between cells;
// every cell then serves the same operations:
//
//	unix dial, shm allowed       → shm ring
//	tcp dial                     → socket (the client never offers shm off-host)
//	unix dial, server -shm=false → socket
func TestTransportV3FallbackMatrix(t *testing.T) {
	cases := []struct {
		name    string
		noShm   bool // server started with SetShm(false)
		tcp     bool
		wantShm bool
	}{
		{name: "v3-unix", wantShm: wire.ShmSupported()},
		{name: "v3-tcp", tcp: true},
		{name: "unix-noshm", noShm: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := attrspace.NewServer()
			srv.SetShm(!tc.noShm)
			var addr string
			var err error
			if tc.tcp {
				addr, err = srv.ListenAndServe("127.0.0.1:0")
			} else {
				path := filepath.Join(t.TempDir(), "lass.sock")
				addr, err = srv.ListenAndServe("unix:" + path)
			}
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			defer srv.Close()
			dial := attrspace.DialFunc(nil)
			if tc.tcp {
				dial = attrspace.TCPDial
			}
			c, err := attrspace.Dial(dial, addr, "matrix")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			if got := c.ShmActive(); got != tc.wantShm {
				t.Errorf("ShmActive = %v, want %v", got, tc.wantShm)
			}
			// The same operation script must work in every cell,
			// whatever transport it landed on.
			for i := 0; i < 50; i++ {
				if err := c.Put(fmt.Sprintf("a%03d", i), "v"); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			if v, err := c.TryGet("a007"); err != nil || v != "v" {
				t.Fatalf("TryGet = %q, %v", v, err)
			}
			snap, _, err := c.SnapshotSeq(context.Background())
			if err != nil || len(snap) != 50 {
				t.Fatalf("SnapshotSeq = %d entries, %v; want 50", len(snap), err)
			}
			if err := c.Ping(context.Background()); err != nil {
				t.Fatalf("Ping: %v", err)
			}
		})
	}
}

// recListener tees the client→server byte stream of every accepted
// connection into a buffer, so a test can assert what a client
// actually put on the wire.
type recListener struct {
	net.Listener
	mu   sync.Mutex
	bufs []*bytes.Buffer
}

func (rl *recListener) Accept() (net.Conn, error) {
	c, err := rl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	buf := new(bytes.Buffer)
	rl.mu.Lock()
	rl.bufs = append(rl.bufs, buf)
	rl.mu.Unlock()
	return &recConn{Conn: c, rl: rl, buf: buf}, nil
}

func (rl *recListener) snapshot(i int) []byte {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if i >= len(rl.bufs) {
		return nil
	}
	return append([]byte(nil), rl.bufs[i].Bytes()...)
}

type recConn struct {
	net.Conn
	rl  *recListener
	buf *bytes.Buffer
}

func (rc *recConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	if n > 0 {
		rc.rl.mu.Lock()
		rc.buf.Write(p[:n])
		rc.rl.mu.Unlock()
	}
	return n, err
}

// splitFrames cuts a recorded byte stream into framed payloads.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			t.Fatalf("trailing %d bytes are not a frame header", len(data))
		}
		n := int(binary.BigEndian.Uint32(data[:4]))
		if len(data) < 4+n {
			t.Fatalf("truncated frame: header says %d, have %d", n, len(data)-4)
		}
		frames = append(frames, data[4:4+n])
		data = data[4+n:]
	}
	return frames
}

// TestTransportV3ClientBytesMatchV2 is the wire-identity half of the
// matrix: a shm-capable client talking to a server that does not grant
// shm must emit, after the HELLO, exactly the message stream a client
// with no shm eligibility emits — the ring machinery may not leak a
// single byte (no SHMRDY, no doorbell traffic, no extra fields) when
// the capability is not granted. The HELLO itself may
// differ only in the shm token of the caps offer. Frames are compared
// decoded because field order within a frame is map-iteration order;
// splitFrames still proves the raw streams are pure length-prefixed
// framing with nothing between the frames.
func TestTransportV3ClientBytesMatchV2(t *testing.T) {
	space := attr.NewSpace()
	keep := space.Join("mix")
	defer keep.Leave()

	// The same shm-less server behind both listeners; shared space so
	// both clients see identical reply contents (and so send identical
	// follow-ups).
	run := func(network, laddr string) []byte {
		l, err := net.Listen(network, laddr)
		if err != nil {
			t.Fatalf("listen %s: %v", network, err)
		}
		rl := &recListener{Listener: l}
		srv := attrspace.NewServerWithSpace(space)
		srv.SetShm(false)
		go srv.Serve(rl)
		defer srv.Close()

		addr := l.Addr().String()
		dial := attrspace.DialFunc(attrspace.TCPDial)
		if network == "unix" {
			addr = "unix:" + laddr
			dial = nil
		}
		c, err := attrspace.Dial(dial, addr, "mix")
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if c.ShmActive() {
			t.Fatal("shm active against a server that does not grant it")
		}
		for i := 0; i < 5; i++ {
			if err := c.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if _, err := c.TryGet("k3"); err != nil {
			t.Fatalf("TryGet: %v", err)
		}
		c.Close()

		// The EXIT is written asynchronously to Close returning; wait
		// for the recorded stream to end with it.
		deadline := time.Now().Add(5 * time.Second)
		for {
			data := rl.snapshot(0)
			frames := splitFrames(t, data)
			if n := len(frames); n > 0 {
				if m, err := wire.Decode(frames[n-1]); err == nil && m.Verb == "EXIT" {
					return data
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("EXIT never recorded (%d bytes)", len(data))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	unixStream := run("unix", filepath.Join(t.TempDir(), "noshm.sock"))
	tcpStream := run("tcp", "127.0.0.1:0")

	uf := splitFrames(t, unixStream)
	tf := splitFrames(t, tcpStream)
	if len(uf) != len(tf) {
		t.Fatalf("frame counts differ: unix %d, tcp %d", len(uf), len(tf))
	}
	// HELLO: identical apart from the caps offer, which is the shm
	// token on unix (when this build can offer it at all) and absent on
	// tcp.
	uh, err := wire.Decode(uf[0])
	if err != nil {
		t.Fatalf("decode unix HELLO: %v", err)
	}
	th, err := wire.Decode(tf[0])
	if err != nil {
		t.Fatalf("decode tcp HELLO: %v", err)
	}
	wantU := ""
	if wire.ShmSupported() {
		wantU = wire.CapShm
	}
	if got := uh.Get("caps"); got != wantU {
		t.Errorf("unix caps offer = %q, want %q", got, wantU)
	}
	if got, ok := th.Lookup("caps"); ok {
		t.Errorf("tcp HELLO offers caps %q, want none", got)
	}
	delete(uh.Fields, "caps")
	if uh.Verb != th.Verb || !reflect.DeepEqual(uh.Fields, th.Fields) {
		t.Errorf("HELLOs differ beyond caps: unix %v, tcp %v", uh.Fields, th.Fields)
	}
	// Everything after the HELLO: the same messages in the same order.
	for i := 1; i < len(uf); i++ {
		um, err := wire.Decode(uf[i])
		if err != nil {
			t.Fatalf("decode unix frame %d: %v", i, err)
		}
		tm, err := wire.Decode(tf[i])
		if err != nil {
			t.Fatalf("decode tcp frame %d: %v", i, err)
		}
		if um.Verb == "SHMRDY" || tm.Verb == "SHMRDY" {
			t.Fatalf("frame %d: SHMRDY leaked onto a no-shm connection", i)
		}
		if um.Verb != tm.Verb || !reflect.DeepEqual(um.Fields, tm.Fields) {
			t.Errorf("frame %d differs:\n  unix: %s %v\n  tcp:  %s %v",
				i, um.Verb, um.Fields, tm.Verb, tm.Fields)
		}
	}
}
