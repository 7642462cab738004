package tdp

import (
	"tdp/internal/attrspace"
	"tdp/internal/telemetry"
)

// This file implements the asynchronous operations and event
// notification model of §3.2–§3.3: tdp_async_get, tdp_async_put, and
// tdp_service_event.
//
// An async operation returns immediately; its completion callback is
// queued, not run. The daemon's poll loop observes Activity() (the
// descriptor-activity analog) and calls ServiceEvents at a safe point,
// which runs the callbacks on the daemon's own goroutine. This is the
// design the paper settles on after rejecting signal- and thread-based
// delivery.

// Result is the completion value of an asynchronous get or put.
type Result struct {
	Attr  string // attribute name
	Value string // value read (get) or written (put)
	Err   error  // non-nil when the operation failed
}

// Callback receives the result of a completed asynchronous operation
// together with the caller-supplied argument (the paper's
// callback_arg). Callbacks run inside ServiceEvents.
type Callback func(r Result, arg any)

// AsyncGet starts a blocking get that completes in the background;
// when the attribute becomes available (or the operation fails), cb is
// queued and will run on the next ServiceEvents call. This is
// tdp_async_get.
func (h *Handle) AsyncGet(attribute string, cb Callback, arg any) error {
	done := h.observe("async_get")
	h.traceStep("tdp_async_get", attribute)
	ch, err := h.lass.GetAsync(attribute)
	if err != nil {
		done.End()
		return err
	}
	go h.post(ch, cb, arg, done)
	return nil
}

// AsyncPut starts a put that completes in the background; cb is queued
// once the server acknowledges (or the operation fails). This is
// tdp_async_put.
func (h *Handle) AsyncPut(attribute, value string, cb Callback, arg any) error {
	done := h.observe("async_put")
	h.traceKV("tdp_async_put", attribute, value)
	ch, err := h.lass.PutAsync(attribute, value)
	if err != nil {
		done.End()
		return err
	}
	go h.post(ch, cb, arg, done)
	return nil
}

// post waits for the transport completion, records the operation's
// end-to-end latency, and queues the callback; the pending-event gauge
// tracks the backlog the poll loop has yet to service.
func (h *Handle) post(ch <-chan attrspace.Result, cb Callback, arg any, done telemetry.Stopwatch) {
	r := <-ch
	done.End()
	res := Result{Attr: r.Attr, Value: r.Value, Err: r.Err}
	if cb == nil {
		return
	}
	h.queue.Post(func() { cb(res, arg) })
	h.noteEventDepth()
}

// ServiceEvents runs every queued completion callback on the calling
// goroutine, in completion order, and returns how many ran. Daemons
// call it from their poll loop after Activity fires; callbacks
// therefore execute at a well-known, safe point (§3.3). This is
// tdp_service_event.
func (h *Handle) ServiceEvents() int {
	defer h.observe("service_events").End()
	h.traceStep("tdp_service_event", "")
	n := h.queue.Service()
	h.noteEventDepth()
	return n
}

// Activity returns a channel that becomes readable when completion
// callbacks are pending — the analog of the tdp file descriptor going
// active in the paper's poll-loop pseudo-code. Select on it alongside
// other descriptors, then call ServiceEvents.
func (h *Handle) Activity() <-chan struct{} { return h.queue.Activity() }

// PendingEvents reports the number of callbacks waiting for
// ServiceEvents.
func (h *Handle) PendingEvents() int { return h.queue.Len() }

// WatchUpdates subscribes to attribute change events in the local
// context. Each change queues a call to cb (delivered, like all TDP
// callbacks, through ServiceEvents). The paper uses this for the RM's
// optional immediate notification of process status changes (§2.3).
func (h *Handle) WatchUpdates(cb func(attr, value, op string)) error {
	if err := h.lass.Subscribe(); err != nil {
		return err
	}
	go func() {
		for ev := range h.lass.Events() {
			ev := ev
			if cb == nil {
				continue
			}
			h.queue.Post(func() { cb(ev.Attr, ev.Value, ev.Op) })
			h.noteEventDepth()
		}
	}()
	return nil
}
