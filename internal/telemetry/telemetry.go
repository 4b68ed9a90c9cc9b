// Package telemetry serves EPLog's observability surface over HTTP: an
// opt-in live endpoint a Prometheus scraper (or curl) can hit while a
// soak or experiment runs. It exposes
//
//	/metrics      — the metrics registry in Prometheus text exposition
//	/metrics.json — the same snapshot as indented JSON
//	/spans        — the causal-span flight recorder as JSON Lines, one
//	                complete span tree per line
//	/healthz      — liveness: "ok" plus uptime
//	/debug/pprof/ — the standard Go profiling endpoints
//
// The handlers snapshot on every request — the sink's registry, rings,
// and span recorders carry their own locks — so scraping never blocks
// the engine's hot paths beyond those short critical sections.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/eplog/eplog/internal/obs"
)

// Source supplies the live data a telemetry server exposes. Both methods
// must be safe for concurrent use and return consistent value copies
// (obs.Sink's Snapshot and Spans already are).
type Source interface {
	// Metrics returns a point-in-time metrics snapshot.
	Metrics() obs.Snapshot
	// Spans returns the retained causal span trees, oldest first.
	Spans() []obs.SpanSnapshot
}

// SinkSource adapts an obs.Sink to a Source, for serving telemetry
// straight off a sink (Array.ServeTelemetry serves its array's). Nil-safe
// like the sink itself: a nil sink serves empty metrics and spans.
func SinkSource(s *obs.Sink) Source { return sinkSource{s} }

type sinkSource struct{ s *obs.Sink }

func (ss sinkSource) Metrics() obs.Snapshot     { return ss.s.Snapshot() }
func (ss sinkSource) Spans() []obs.SpanSnapshot { return ss.s.Spans() }

// NewHandler returns the telemetry routes on a fresh mux. Use it to
// mount the endpoints on an existing server; Serve wraps it with its own
// listener.
func NewHandler(src Source) http.Handler {
	started := time.Now()
	mux := http.NewServeMux()
	// The snapshot renderers write into a buffer first: an encoding error
	// can still become a clean 500, and a client hanging up mid-scrape is
	// a connection-level failure, not something to report after the status
	// line has gone out.
	serveRendered := func(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(buf.Bytes())
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		serveRendered(w, "text/plain; version=0.0.4; charset=utf-8", src.Metrics().WritePrometheus)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		serveRendered(w, "application/json", src.Metrics().WriteJSON)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		serveRendered(w, "application/x-ndjson", func(out io.Writer) error {
			return obs.WriteSpanJSONL(out, src.Spans())
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime=%s\n", time.Since(started).Round(time.Millisecond))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint. Close shuts it down.
type Server struct {
	ln        net.Listener
	srv       *http.Server
	closeOnce sync.Once
	closeErr  error
}

// Serve starts a telemetry server on addr (e.g. "127.0.0.1:9090", or
// ":0" for an ephemeral port — read the bound address back with Addr).
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(src)}}
	go func() {
		// ErrServerClosed after Close; anything else surfaces on scrape
		// failure, which the operator notices — no logging dependency.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, closing the listener and any open
// connections. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}
