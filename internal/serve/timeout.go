package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"
)

// Timeout bounds one request's handling time. The handler runs with a
// deadline-carrying context and writes into a buffered writer; if it
// finishes in time the buffer is replayed to the client, otherwise the
// client gets 503. The writer refuses every write once the context is
// done, checked under its mutex, so a handler that wakes on ctx.Done and
// writes gets http.ErrHandlerTimeout whichever way the race below goes,
// and a response with a refused write is never replayed: the client gets
// the 503 instead. The handler keeps running until it observes ctx.Done,
// but can no longer corrupt the response. Panics in the handler
// propagate to the caller so Recover — stacked outside — still sees
// them. Non-positive d disables the bound.
//
// This mirrors http.TimeoutHandler but returns the JSON error shape the
// rest of the API speaks.
func Timeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
		tw := &timeoutWriter{ctx: ctx, h: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(tw, r)
			close(done)
		}()
		select {
		case p := <-panicked:
			panic(p)
		case <-done:
			if tw.replay(w) {
				return
			}
		case <-ctx.Done():
			tw.abandon()
		}
		WriteError(w, http.StatusServiceUnavailable, "request timed out")
	})
}

// timeoutWriter buffers a response so it can be committed atomically
// after the handler wins the race against the deadline.
type timeoutWriter struct {
	ctx    context.Context
	mu     sync.Mutex
	h      http.Header
	buf    bytes.Buffer
	status int
	// timedOut is set once the response is forfeited: the deadline
	// passed before the handler finished, or a write came after it.
	timedOut bool
}

func (tw *timeoutWriter) Header() http.Header { return tw.h }

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.late() {
		return
	}
	if tw.status == 0 {
		tw.status = code
	}
}

func (tw *timeoutWriter) Write(b []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.late() {
		return 0, http.ErrHandlerTimeout
	}
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.buf.Write(b)
}

// late reports, with tw.mu held, whether the response is forfeited,
// marking it so when the context is done.
func (tw *timeoutWriter) late() bool {
	if !tw.timedOut && tw.ctx.Err() != nil {
		tw.timedOut = true
	}
	return tw.timedOut
}

// abandon marks the response as forfeited; later handler writes error.
func (tw *timeoutWriter) abandon() {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	tw.timedOut = true
}

// replay commits the buffered response to the real writer, unless the
// response was forfeited by a write after the deadline; it reports
// whether it wrote.
func (tw *timeoutWriter) replay(w http.ResponseWriter) bool {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return false
	}
	dst := w.Header()
	for k, v := range tw.h {
		dst[k] = v
	}
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	w.WriteHeader(tw.status)
	w.Write(tw.buf.Bytes())
	return true
}
