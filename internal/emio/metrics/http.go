package metrics

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// handler returns an http.Handler exposing the registry:
//
//	/metrics         Prometheus text exposition
//	/debug/pprof/*   the standard Go profiling endpoints
//
// The pprof routes are wired on this mux explicitly, so the scrape server
// does not depend on http.DefaultServeMux.
func handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running scrape endpoint. Close it when the job finishes; Close
// shuts down gracefully (in-flight scrapes finish) and surfaces any error
// the background serve loop hit.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	serveErr chan error // buffered; the background Serve's exit error
}

// shutdownGrace bounds how long Close waits for in-flight requests before
// tearing connections down hard.
const shutdownGrace = 2 * time.Second

// Serve starts an HTTP server for the registry on addr (host:port; port 0
// picks a free port). It returns once the listener is bound, so a following
// scrape cannot race the bind — a bad address (port in use, bad host)
// surfaces here rather than vanishing into a goroutine. Request handling
// runs in the background; an error that stops the serve loop later is
// reported by Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler(r), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv, serveErr: make(chan error, 1)}
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.serveErr <- err
	}()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the scrape URL of the /metrics endpoint.
func (s *Server) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close shuts the server down gracefully, waiting up to a short grace period
// for in-flight scrapes before closing connections hard, and returns the
// first error among the shutdown and the background serve loop. Idempotent.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = s.srv.Close()
	}
	// Serve has returned once Shutdown/Close completes; collect its error.
	if serr := <-s.serveErr; err == nil {
		err = serr
	}
	s.serveErr <- nil // keep a later Close non-blocking and clean
	return err
}
