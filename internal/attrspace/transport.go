package attrspace

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
)

// This file holds the same-host fast path: LASS/CASS daemons listen on
// a unix-domain socket beside their TCP port (ListenUnixBeside), and
// AutoDial transparently prefers that socket when the endpoint is
// local. The dominant TDP hop — AP or paradynd talking to the LASS on
// the same execution host — then skips the TCP stack entirely while
// remote clients keep using TCP, with no configuration on either side.
// On top of the socket, HELLO negotiates (wire.CapShm) a
// shared-memory ring pair per connection: the segment file lives
// beside the sockets in the temp directory, travels in the HELLO
// reply, and is unlinked as soon as both ends have mapped it.

// SocketPathFor derives the conventional unix socket path paired with
// a TCP listen address: tdp-attr-<port>.sock in the system temp
// directory. Server and clients derive the same path independently, so
// no discovery round is needed. Returns "" when the address has no
// usable port.
func SocketPathFor(tcpAddr string) string {
	_, port, err := net.SplitHostPort(tcpAddr)
	if err != nil || port == "" || port == "0" {
		return ""
	}
	return filepath.Join(os.TempDir(), "tdp-attr-"+port+".sock")
}

// shmSegSeq makes segment paths unique within one server process.
var shmSegSeq atomic.Uint64

// shmSegmentPath returns a fresh path for a transport-v3 segment file,
// beside the unix sockets in the system temp directory (the
// SocketPathFor convention). Uniqueness needs only pid + sequence: the
// file exists just for the window between HELLO and the client mapping
// it, after which the server unlinks it and the mappings alone keep
// the pages alive.
func shmSegmentPath() string {
	return filepath.Join(os.TempDir(),
		fmt.Sprintf("tdp-shm-%d-%d.seg", os.Getpid(), shmSegSeq.Add(1)))
}

// sameHostConn reports whether conn provably joins two endpoints on
// the same machine: a unix-domain socket, or a connection that itself
// vouches through a SameHost method (netsim's conns when same-host
// modelling is enabled). Only such connections are eligible for the
// shared-memory transport — the segment file is reachable by both
// ends exactly when this holds.
func sameHostConn(conn net.Conn) bool {
	if addr := conn.RemoteAddr(); addr != nil && addr.Network() == "unix" {
		return true
	}
	if sh, ok := conn.(interface{ SameHost() bool }); ok {
		return sh.SameHost()
	}
	return false
}

// isLoopbackHost reports whether a dial-address host names this
// machine. Only loopback forms qualify — a resolvable remote hostname
// must never be mistaken for local, or the dialer would connect to an
// unrelated local daemon that happens to share the port.
func isLoopbackHost(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// AutoDial is the default DialFunc: "unix:/path" dials that socket
// directly; a loopback TCP address first tries the conventional
// same-host socket (SocketPathFor) and falls back to TCP when no local
// daemon is listening there — including when a stale socket file from
// a crashed daemon still sits at the path (connection refused), in
// which case the dead file is also removed so later dials skip
// straight to TCP. Non-loopback addresses always use TCP.
func AutoDial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	if host, _, err := net.SplitHostPort(addr); err == nil && isLoopbackHost(host) {
		if path := SocketPathFor(addr); path != "" {
			conn, err := net.Dial("unix", path)
			if err == nil {
				return conn, nil
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				// The file exists but nothing accepts on it: a leftover
				// from a crashed daemon. Clear it; best effort — failure
				// just means the next dial probes it again.
				os.Remove(path)
			}
		}
	}
	return net.Dial("tcp", addr)
}
