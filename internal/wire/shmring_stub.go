//go:build !(linux || darwin)

package wire

import (
	"errors"
	"net"
)

// Stub for platforms without the mmap-backed ring: the shm capability
// is simply never offered or granted (ShmSupported gates both ends),
// so these entry points are unreachable in practice and exist only to
// keep the package compiling everywhere.

var errShmUnsupported = errors.New("wire: shm transport not supported on this platform")

// ErrShmBadSegment mirrors the real implementation's sentinel.
var ErrShmBadSegment = errors.New("wire: bad shm segment")

// DefaultShmRingSize mirrors the real implementation's constant.
const DefaultShmRingSize = 256 << 10

// ShmSupported reports whether this build can serve the shm transport.
func ShmSupported() bool { return false }

// ShmSegment is unavailable on this platform.
type ShmSegment struct{}

// CreateShmSegment always fails on this platform.
func CreateShmSegment(path string, ringSize int) (*ShmSegment, error) {
	return nil, errShmUnsupported
}

// OpenShmSegment always fails on this platform.
func OpenShmSegment(path string) (*ShmSegment, error) {
	return nil, errShmUnsupported
}

// RingSize returns 0 on this platform.
func (s *ShmSegment) RingSize() int { return 0 }

// Endpoint is unreachable on this platform (no segment can exist).
func (s *ShmSegment) Endpoint(server bool, sock net.Conn) *ShmEndpoint { return nil }

// ShmEndpoint is unavailable on this platform.
type ShmEndpoint struct{}

// Activate is a no-op on this platform.
func (e *ShmEndpoint) Activate() {}

// Dead returns nil on this platform: no endpoint ever dies.
func (e *ShmEndpoint) Dead() <-chan struct{} { return nil }

// Close is a no-op on this platform.
func (e *ShmEndpoint) Close() error { return nil }

func (e *ShmEndpoint) Read(p []byte) (int, error)  { return 0, errShmUnsupported }
func (e *ShmEndpoint) Write(p []byte) (int, error) { return 0, errShmUnsupported }
