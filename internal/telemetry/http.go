package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the Prometheus text exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// healthReport is the /healthz response body.
type healthReport struct {
	Status          string            `json:"status"`         // "ok", "degraded", or "draining"
	Mode            string            `json:"mode,omitempty"` // operating mode (survivability rung), when published
	SimClockSeconds float64           `json:"sim_clock_seconds"`
	Checks          map[string]string `json:"checks,omitempty"` // name -> "ok" or error text
}

// HealthzHandler serves the liveness report: 200 when every installed
// health check passes, 503 with the failing checks' errors otherwise.
// A process that published a draining operating mode (SetOpMode — the
// plant's Blackout rung) answers 503 with the rung name even when every
// individual check still passes, so load balancers drain the site before
// its requests start failing.
func (r *Registry) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rep := healthReport{
			Status:          "ok",
			SimClockSeconds: r.Clock().Seconds(),
			Checks:          map[string]string{},
		}
		code := http.StatusOK
		mode, draining := r.OpMode()
		rep.Mode = mode
		if draining {
			rep.Status = "draining"
			code = http.StatusServiceUnavailable
		}
		for _, hc := range r.healthChecks() {
			if err := hc.Check(); err != nil {
				rep.Checks[hc.Name] = err.Error()
				if rep.Status == "ok" {
					rep.Status = "degraded"
				}
				code = http.StatusServiceUnavailable
			} else {
				rep.Checks[hc.Name] = "ok"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}

// Mux returns an http.ServeMux with /metrics and /healthz installed.
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	mux.Handle("/healthz", r.HealthzHandler())
	return mux
}

// DebugMux returns a mux exposing the net/http/pprof profiling surface —
// intended for a separate, operator-only -debug-addr listener.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownTimeout bounds how long Server.Shutdown lets in-flight requests
// finish before it closes the connections that are left.
const shutdownTimeout = 10 * time.Second

// Server is one daemon HTTP listener: a metrics and health plane, a pprof
// surface, or a query plane. Listen starts it; Shutdown, called once, stops
// it and waits for its serving goroutine.
type Server struct {
	srv  http.Server
	addr net.Addr
	done chan error // receives http.Server.Serve's result when it returns
}

// Listen binds addr and serves h on a background goroutine.
func Listen(addr string, h http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: http.Server{Handler: h}, addr: l.Addr(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// Addr returns the bound address, which names the chosen port when the
// address passed to Listen had port 0.
func (s *Server) Addr() net.Addr { return s.addr }

// Shutdown stops accepting connections, lets in-flight requests finish for
// up to 10 s, closes the connections still open after that, and returns
// once the serving goroutine has exited. It returns the serving
// goroutine's error if it failed, else the timeout's if requests were cut
// off.
func (s *Server) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close() // err already reports the cut-off requests
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
