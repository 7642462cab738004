package tdp_test

// Transport benchmarks (EXPERIMENTS.md): the same-host transport
// ladder (loopback TCP, unix socket, shared-memory ring), delta resync
// (SNAPD) bytes against a full snapshot for a small gap in a large
// context, and event latency under a concurrent bulk snapshot on one
// multiplexed connection. The first two back PR acceptance
// criteria: shm beats unix beats TCP on the put round trip, and resync
// bytes are proportional to the gap, not the context.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
	"tdp/internal/wire"
)

func BenchmarkSameHostPut(b *testing.B) {
	// grantShm toggles the server's shm grant; wantShm asserts what the
	// dialed client actually negotiated, so the sub-benchmark names stay
	// honest (the unix row must not silently ride the ring).
	run := func(b *testing.B, dial attrspace.DialFunc, grantShm, wantShm bool) {
		srv := attrspace.NewServer()
		srv.SetShm(grantShm)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		if _, err := srv.ListenUnixBeside(addr); err != nil {
			b.Fatalf("ListenUnixBeside: %v", err)
		}
		c, err := attrspace.Dial(dial, addr, "bench")
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		b.Cleanup(func() { c.Close() })
		if c.ShmActive() != wantShm {
			b.Fatalf("ShmActive = %v, want %v", c.ShmActive(), wantShm)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Put("attr", "value"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("tcp", func(b *testing.B) { run(b, attrspace.TCPDial, false, false) })
	// nil dial = AutoDial, which prefers the side socket for loopback;
	// the server withholds shm so this measures the bare socket.
	b.Run("unix", func(b *testing.B) { run(b, nil, false, false) })
	// shm granted: the unix bootstrap cuts over to the mmap ring
	// pair. On platforms without shm support this degenerates to unix.
	b.Run("shm", func(b *testing.B) { run(b, nil, true, wire.ShmSupported()) })
}

// resyncContext seeds a server with a large context and a small recent
// gap: size attributes total, the last gap of them written after the
// snapshot point. Returns the address and the pre-gap context seq.
func resyncContext(b *testing.B, size, gap int) (addr string, since uint64) {
	b.Helper()
	srv := attrspace.NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatalf("serve: %v", err)
	}
	b.Cleanup(srv.Close)
	c := benchClientAt(b, addr, "bench")
	pairs := make([]attrspace.KV, 0, 256)
	for i := 0; i < size-gap; i += 256 {
		pairs = pairs[:0]
		for j := i; j < i+256 && j < size-gap; j++ {
			pairs = append(pairs, attrspace.KV{Key: fmt.Sprintf("attr%06d", j), Value: "value-of-some-typical-length"})
		}
		if err := c.PutBatch(pairs); err != nil {
			b.Fatalf("PutBatch: %v", err)
		}
	}
	_, since, err = c.SnapshotSeq(context.Background())
	if err != nil {
		b.Fatalf("SnapshotSeq: %v", err)
	}
	for i := size - gap; i < size; i++ {
		if err := c.Put(fmt.Sprintf("attr%06d", i), "value-of-some-typical-length"); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	return addr, since
}

func BenchmarkSessionResync(b *testing.B) {
	// 10k-attribute context, 1% gap: what a reconnecting session needs
	// after a brief outage. The rx-bytes/op metric is the acceptance
	// number — delta resync must move >=10x fewer bytes than the full
	// snapshot it replaces.
	const size, gap = 10000, 100
	measure := func(b *testing.B, fetch func(c *attrspace.Client, since uint64) error) {
		addr, since := resyncContext(b, size, gap)
		c := benchClientAt(b, addr, "bench")
		reg := telemetry.NewRegistry()
		c.SetTelemetry(reg, nil)
		rx := reg.Counter("wire.rx.bytes")
		b.ReportAllocs()
		b.ResetTimer()
		start := rx.Value()
		for i := 0; i < b.N; i++ {
			if err := fetch(c, since); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(rx.Value()-start)/float64(b.N), "rx-bytes/op")
	}
	b.Run("full", func(b *testing.B) {
		measure(b, func(c *attrspace.Client, _ uint64) error {
			snap, _, err := c.SnapshotSeq(context.Background())
			if err == nil && len(snap) != size {
				return fmt.Errorf("snapshot = %d entries", len(snap))
			}
			return err
		})
	})
	b.Run("delta", func(b *testing.B) {
		measure(b, func(c *attrspace.Client, since uint64) error {
			ops, full, _, err := c.SnapshotDelta(context.Background(), since)
			if err != nil {
				return err
			}
			if full != nil || len(ops) != gap {
				return fmt.Errorf("delta = %d ops, full=%v; want %d ops", len(ops), full != nil, gap)
			}
			return nil
		})
	})
}

func BenchmarkMuxFanout(b *testing.B) {
	// Event latency while a bulk snapshot streams on the same
	// connection: the snapshot leaves in chunks on the bulk stream, so a
	// concurrent event interleaves between parts instead of waiting
	// behind one inline frame. The event-wait metric is the one to
	// track.
	const size = 5000
	b.Run("mux", func(b *testing.B) {
		srv := attrspace.NewServer()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatalf("serve: %v", err)
		}
		b.Cleanup(srv.Close)
		watcher := benchClientAt(b, addr, "bench")
		writer := benchClientAt(b, addr, "bench")
		pairs := make([]attrspace.KV, 0, 256)
		for i := 0; i < size; i += 256 {
			pairs = pairs[:0]
			for j := i; j < i+256 && j < size; j++ {
				pairs = append(pairs, attrspace.KV{Key: fmt.Sprintf("attr%06d", j), Value: "value-of-some-typical-length"})
			}
			if err := writer.PutBatch(pairs); err != nil {
				b.Fatalf("PutBatch: %v", err)
			}
		}
		if err := watcher.Subscribe(); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
		var gen atomic.Int64
		arrived := make(chan int64, 64)
		watcher.SetEventHandler(func(ev attrspace.Event) {
			if ev.Attr == "signal" {
				arrived <- gen.Load()
			}
		})
		var eventWait int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.Store(int64(i))
			snapDone := make(chan error, 1)
			go func() {
				_, _, err := watcher.SnapshotSeq(context.Background())
				snapDone <- err
			}()
			t0 := time.Now()
			if err := writer.Put("signal", fmt.Sprint(i)); err != nil {
				b.Fatal(err)
			}
			for {
				if g := <-arrived; g == int64(i) {
					break
				}
			}
			eventWait += time.Since(t0).Nanoseconds()
			if err := <-snapDone; err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(eventWait)/float64(b.N), "event-ns/op")
	})
}
