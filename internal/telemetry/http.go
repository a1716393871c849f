package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
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

// Serve binds addr and serves /metrics and /healthz in a background
// goroutine. It returns the bound address (useful with ":0") and a stop
// function that closes the listener.
func (r *Registry) Serve(addr string) (net.Addr, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: r.Mux()}
	go func() { _ = srv.Serve(l) }()
	return l.Addr(), srv.Close, nil
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

// ServeDebug binds addr with the pprof surface in a background goroutine,
// returning the bound address and a stop function.
func ServeDebug(addr string) (net.Addr, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: DebugMux()}
	go func() { _ = srv.Serve(l) }()
	return l.Addr(), srv.Close, nil
}
