//go:build linux || darwin

// Transport v3's same-host fast path: a pair of single-producer /
// single-consumer byte rings in a shared mmap'd file, one ring per
// direction, carrying the exact same 4-byte-framed payloads the socket
// carries — AppendEncode and DecodeInto never know the difference.
// The existing connection's socket is kept as the bootstrap and
// doorbell channel: the segment path travels in the HELLO reply, the
// SHMRDY exchange serializes the cutover, and afterwards the socket
// carries only single-byte wakeups (and, crucially, liveness — a dead
// peer's socket closing is what unblocks parked ring waiters, which is
// also where netsim/chaos interpose delay and kill).
//
// Ring discipline: free-running uint64 head/tail cursors masked by a
// power-of-two size, each cursor (and each park flag) alone on its own
// cache line so the producer and consumer never false-share. The
// producer copies in, then publishes tail; the consumer copies out,
// then publishes head. Go's sync/atomic operations are sequentially
// consistent, which the park/recheck handshake below relies on
// (store-flag-then-load-cursor on one side, store-cursor-then-load-flag
// on the other — the Dekker pattern).
//
// Wakeups are spin-then-park: a side finding no progress spins a few
// dozen scheduler yields (covering the common case where the peer is
// actively running, so the idle cost of the parked state is zero),
// then sets its park flag in the shared header, rechecks, and sleeps
// on the doorbell. The peer, after publishing a cursor, rings the
// doorbell — one byte on the socket — only when it observes the
// opposite park flag, so a busy ring never touches the kernel at all.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// DefaultShmRingSize is the per-direction ring capacity. 256 KiB holds
// a full chunked snapshot part with room to spare while keeping a
// segment (header + two rings) at ~513 KiB of shared address space
// per connection.
const DefaultShmRingSize = 256 << 10

// shmMagic identifies a TDP transport-v3 segment ("TDPSHM3\n").
const shmMagic = 0x54445053484d330a

// Header layout. Every mutable field sits alone on a 64-byte cache
// line; the two directions' control blocks are far apart as well.
const (
	shmHdrSize = 1024

	shmOffMagic = 0 // uint64 magic
	shmOffSize  = 8 // uint64 per-direction ring size

	shmOffA = 128 // control block, ring A (client → server)
	shmOffB = 512 // control block, ring B (server → client)

	// Offsets within a control block.
	ctlTail  = 0   // uint64, producer cursor (free-running)
	ctlHead  = 64  // uint64, consumer cursor (free-running)
	ctlRPark = 128 // uint32, consumer parked on the doorbell
	ctlWPark = 192 // uint32, producer parked on the doorbell
)

// shmSpinBudget is how long a side yields the scheduler before parking
// on the doorbell. The budget is time-based rather than a fixed yield
// count so an actively ping-ponging pair — request out, reply back a
// few microseconds later — stays entirely in user space: the reader is
// still spinning when the reply lands, no park flag is ever set, and
// the producer never writes a doorbell byte. Gosched (not a busy
// pause) keeps the spin harmless on a single-CPU box: each iteration
// is a chance for the peer goroutine to run. Past the budget the side
// parks and costs nothing until the doorbell rings.
const shmSpinBudget = 100 * time.Microsecond

// spinner paces one wait: scheduler yields until shmSpinBudget of wall
// time has passed since the first.
type spinner struct {
	start time.Time
}

// yield spends one spin iteration; it reports false, without
// yielding, once the budget is used up. The clock is read on every
// yield: a variant that read it only every eighth yield measured
// slower on both the saturated and the bursty same-host benchmark
// workloads (EXPERIMENTS E23).
func (s *spinner) yield() bool {
	if s.start.IsZero() {
		s.start = time.Now()
	} else if time.Since(s.start) >= shmSpinBudget {
		return false
	}
	runtime.Gosched()
	return true
}

// reset starts a fresh budget for the next wait.
func (s *spinner) reset() { s.start = time.Time{} }

// ErrShmBadSegment reports a segment file that is not a valid TDP
// transport-v3 segment (wrong magic, impossible size, truncated).
var ErrShmBadSegment = errors.New("wire: bad shm segment")

// ShmSupported reports whether this build can serve the shm transport.
func ShmSupported() bool { return true }

// ShmSegment is one mapped transport-v3 segment: the shared header and
// the two directional rings. Both endpoints of a connection hold their
// own mapping of the same file. The mapping is released by the
// garbage collector (a finalizer) rather than an explicit unmap, so a
// late reader can never fault on memory a concurrent close pulled out
// from under it.
type ShmSegment struct {
	mem  []byte
	size int // per-direction ring capacity, power of two
}

// CreateShmSegment creates the segment file at path (which must not
// exist), sizes it for two rings of ringSize bytes (0 means
// DefaultShmRingSize; must be a power of two), maps it, and stamps the
// header. The creator — the server — unlinks the file once the peer
// has mapped it, so a crashed pair leaks at most one temp file.
func CreateShmSegment(path string, ringSize int) (*ShmSegment, error) {
	if ringSize == 0 {
		ringSize = DefaultShmRingSize
	}
	if ringSize < 4096 || ringSize&(ringSize-1) != 0 {
		return nil, fmt.Errorf("%w: ring size %d not a power of two >= 4096", ErrShmBadSegment, ringSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	total := shmHdrSize + 2*ringSize
	if err := f.Truncate(int64(total)); err != nil {
		os.Remove(path)
		return nil, err
	}
	seg, err := mapSegment(f, total)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	seg.size = ringSize
	seg.u64(shmOffSize).Store(uint64(ringSize))
	seg.u64(shmOffMagic).Store(shmMagic) // magic last: stamped means complete
	return seg, nil
}

// OpenShmSegment maps an existing segment file created by the peer and
// validates its header. The file descriptor is not retained — the
// mapping alone keeps the pages alive, so the creator may unlink the
// path immediately after this returns.
func OpenShmSegment(path string) (*ShmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	total := int(st.Size())
	if total < shmHdrSize+2*4096 {
		return nil, fmt.Errorf("%w: %d bytes", ErrShmBadSegment, total)
	}
	seg, err := mapSegment(f, total)
	if err != nil {
		return nil, err
	}
	if seg.u64(shmOffMagic).Load() != shmMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrShmBadSegment)
	}
	size := int(seg.u64(shmOffSize).Load())
	if size < 4096 || size&(size-1) != 0 || shmHdrSize+2*size != total {
		return nil, fmt.Errorf("%w: ring size %d vs file size %d", ErrShmBadSegment, size, total)
	}
	seg.size = size
	return seg, nil
}

func mapSegment(f *os.File, total int) (*ShmSegment, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, total,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("wire: mmap shm segment: %w", err)
	}
	seg := &ShmSegment{mem: mem}
	runtime.SetFinalizer(seg, func(s *ShmSegment) { syscall.Munmap(s.mem) })
	return seg, nil
}

// RingSize returns the per-direction ring capacity in bytes.
func (s *ShmSegment) RingSize() int { return s.size }

// u64 returns the atomic cell at a header offset. The mapping is page
// aligned and every offset is a multiple of 8, so alignment holds.
func (s *ShmSegment) u64(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&s.mem[off]))
}

func (s *ShmSegment) u32(off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&s.mem[off]))
}

// ringHalf is one direction of the segment as seen by one endpoint.
type ringHalf struct {
	tail  *atomic.Uint64 // producer cursor
	head  *atomic.Uint64 // consumer cursor
	rpark *atomic.Uint32 // consumer parked
	wpark *atomic.Uint32 // producer parked
	data  []byte
	mask  uint64
}

func (s *ShmSegment) half(ctl, dataOff int) ringHalf {
	return ringHalf{
		tail:  s.u64(ctl + ctlTail),
		head:  s.u64(ctl + ctlHead),
		rpark: s.u32(ctl + ctlRPark),
		wpark: s.u32(ctl + ctlWPark),
		data:  s.mem[dataOff : dataOff+s.size],
		mask:  uint64(s.size - 1),
	}
}

// Endpoint returns this side's view of the segment: an io.ReadWriter
// carrying the framed byte stream over the rings, with sock as the
// doorbell and liveness channel. The server consumes ring A and
// produces ring B; the client the reverse. Call Activate once the
// socket's read side carries no further framed bytes (the SHMRDY
// cutover point) — before that, writes and wakeup sends already work,
// but doorbell receipt does not.
func (s *ShmSegment) Endpoint(server bool, sock net.Conn) *ShmEndpoint {
	a := s.half(shmOffA, shmHdrSize)
	b := s.half(shmOffB, shmHdrSize+s.size)
	e := &ShmEndpoint{seg: s, bell: newDoorbell(sock)}
	if server {
		e.rd, e.wr = a, b
	} else {
		e.rd, e.wr = b, a
	}
	return e
}

// ShmEndpoint is one end of an activated ring pair. Read and Write
// carry the same framed stream the socket carried; wire.Conn swaps
// onto it without its bufio/mux identity changing. Single reader and
// single writer (which Conn's rmu/wmu already guarantee).
type ShmEndpoint struct {
	seg  *ShmSegment
	bell *doorbell
	rd   ringHalf // ring this side consumes
	wr   ringHalf // ring this side produces
}

// Activate starts the doorbell reader on the socket. From here on the
// socket's read side belongs to the ring transport.
func (e *ShmEndpoint) Activate() { e.bell.start() }

// Dead returns a channel that is closed once the doorbell dies: the
// socket failed (the peer went away) or Close was called. Bytes still
// in the ring remain readable after that; the next Read that finds the
// ring empty returns the error. An owner with nobody blocked in Read
// watches this channel to learn of the peer's death promptly.
func (e *ShmEndpoint) Dead() <-chan struct{} { return e.bell.dead }

// Close fails the doorbell (waking any parked side) and closes the
// socket, which fails the peer the same way. The mapping itself is
// reclaimed by GC once the last reference drops.
func (e *ShmEndpoint) Close() error {
	e.bell.fail(io.ErrClosedPipe)
	return e.bell.sock.Close()
}

// Read copies available ring bytes into p, blocking (spin, then park
// on the doorbell) while the ring is empty. Data already in the ring
// is always drained before a transport error is surfaced, so a peer's
// final replies survive its exit.
func (e *ShmEndpoint) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := &e.rd
	size := uint64(len(r.data))
	var spin spinner
	for {
		head := r.head.Load()
		avail := r.tail.Load() - head
		if avail > 0 {
			n := uint64(len(p))
			if n > avail {
				n = avail
			}
			off := head & r.mask
			c := size - off
			if c > n {
				c = n
			}
			copy(p[:c], r.data[off:off+c])
			copy(p[c:n], r.data[:n-c])
			r.head.Store(head + n)
			if r.wpark.Load() != 0 {
				e.bell.ring()
			}
			return int(n), nil
		}
		if err := e.bell.deadErr(); err != nil {
			return 0, err
		}
		if spin.yield() {
			continue
		}
		spin.reset()
		gen := e.bell.generation()
		r.rpark.Store(1)
		if r.tail.Load() != r.head.Load() {
			// Data slipped in between the empty check and the park: the
			// producer may have missed the flag, so do not sleep.
			r.rpark.Store(0)
			continue
		}
		e.bell.wait(gen)
		r.rpark.Store(0)
	}
}

// Write copies all of p into the ring, blocking (spin, then park) while
// the ring is full. Frames larger than the ring stream through in
// pieces as the consumer frees space.
func (e *ShmEndpoint) Write(p []byte) (int, error) {
	r := &e.wr
	size := uint64(len(r.data))
	total := len(p)
	var spin spinner
	for len(p) > 0 {
		if err := e.bell.deadErr(); err != nil {
			return total - len(p), err
		}
		tail := r.tail.Load()
		free := size - (tail - r.head.Load())
		if free > 0 {
			n := uint64(len(p))
			if n > free {
				n = free
			}
			off := tail & r.mask
			c := size - off
			if c > n {
				c = n
			}
			copy(r.data[off:off+c], p[:c])
			copy(r.data[:n-c], p[c:n])
			r.tail.Store(tail + n)
			if r.rpark.Load() != 0 {
				e.bell.ring()
			}
			p = p[n:]
			spin.reset()
			continue
		}
		if spin.yield() {
			continue
		}
		spin.reset()
		gen := e.bell.generation()
		r.wpark.Store(1)
		if size-(r.tail.Load()-r.head.Load()) > 0 {
			r.wpark.Store(0)
			continue
		}
		e.bell.wait(gen)
		r.wpark.Store(0)
	}
	return total, nil
}

// doorbell is the socket-backed wakeup channel shared by both rings of
// one endpoint. A wakeup is one byte; the receiver does not care which
// ring it is for — waiters recheck their own cursors. The reader
// goroutine also turns socket death into ring death: transport v3 has
// no liveness of its own beyond the socket that bootstrapped it.
type doorbell struct {
	sock net.Conn

	// isDead mirrors err != nil so the ring's spin loops can check for
	// death with one atomic load instead of a mutex round trip; dead is
	// closed at the same moment for owners that select on it.
	isDead atomic.Bool
	dead   chan struct{}

	mu   sync.Mutex
	cond *sync.Cond
	gen  uint64
	err  error
}

func newDoorbell(sock net.Conn) *doorbell {
	d := &doorbell{sock: sock, dead: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// dieLocked records the bell's terminal error; the first one wins.
// Callers hold mu.
func (d *doorbell) dieLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	d.isDead.Store(true)
	close(d.dead)
}

// start launches the reader that drains wakeup bytes and detects peer
// death. Must run only once the framed protocol has left the socket.
func (d *doorbell) start() {
	go func() {
		var buf [64]byte
		for {
			_, err := d.sock.Read(buf[:])
			d.mu.Lock()
			d.gen++
			if err != nil {
				d.dieLocked(err)
			}
			dead := d.err != nil
			d.mu.Unlock()
			d.cond.Broadcast()
			if dead {
				return
			}
		}
	}()
}

// ring wakes the peer: one byte on the socket. A failed write means
// the transport is dying; the parked peer learns through its own
// doorbell reader, so the error needs no handling here.
func (d *doorbell) ring() {
	var one [1]byte
	d.sock.Write(one[:])
}

func (d *doorbell) generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// wait sleeps until the generation moves past gen or the bell dies.
func (d *doorbell) wait(gen uint64) {
	d.mu.Lock()
	for d.gen == gen && d.err == nil {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// deadErr returns the bell's terminal error, nil while it lives. The
// live case — every spin iteration — costs one atomic load.
func (d *doorbell) deadErr() error {
	if !d.isDead.Load() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// fail kills the bell (and so the endpoint) with err.
func (d *doorbell) fail(err error) {
	d.mu.Lock()
	d.dieLocked(err)
	d.mu.Unlock()
	d.cond.Broadcast()
}
