package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Server exposes a Gateway over HTTP:
//
//	GET /query?class=critical|standard|besteffort
//	    200 — served (JSON body: class, degraded, latency, energy, cost)
//	    503 — shed (Retry-After header + JSON reason/mode/soc), or the
//	          request's context was cancelled while queued
//	GET /stats
//	    cumulative Stats as JSON
//
// Now maps wall time to the simulation clock (the live daemon's
// accelerated clock); queued requests block until the ticket resolves.
type Server struct {
	GW *Gateway
	// Now returns the current simulation time. Required.
	Now func() time.Duration
}

// Mux returns the gateway's HTTP mux (/query and /stats).
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// queryReply is the /query response body.
type queryReply struct {
	Decision   string  `json:"decision"`
	Class      string  `json:"class"`
	Degraded   bool    `json:"degraded,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	LatencyMs  float64 `json:"latency_ms,omitempty"`
	WaitMs     float64 `json:"wait_ms,omitempty"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
	EnergyWh   float64 `json:"energy_wh,omitempty"`
	CostUSD    float64 `json:"cost_usd,omitempty"`
	Mode       string  `json:"mode"`
	SoC        float64 `json:"soc"`
}

func replyOf(out Outcome) queryReply {
	rep := queryReply{
		Decision:  out.Decision.String(),
		Class:     out.Class.String(),
		Degraded:  out.Degraded,
		LatencyMs: out.LatencyMs,
		WaitMs:    out.WaitMs,
		EnergyWh:  out.EnergyWh,
		CostUSD:   out.CostUSD,
		Mode:      out.Mode.String(),
		SoC:       out.SoC,
	}
	if out.Decision == Shed {
		rep.Reason = out.Reason.String()
		rep.RetryAfter = out.RetryAfter.Seconds()
	}
	return rep
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	class, err := ParseClass(r.URL.Query().Get("class"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, ticket := s.GW.Admit(s.Now(), class)
	if out.Decision == Queued {
		// Block until the plant dispatches or sheds us — or the client
		// gives up. An abandoned ticket still resolves inside the gateway
		// (buffered channel), so the accounting stays balanced.
		select {
		case out = <-ticket.C:
		case <-r.Context().Done():
			http.Error(w, "client cancelled while queued", http.StatusServiceUnavailable)
			return
		}
	}
	writeQueryReply(w, out)
}

func writeQueryReply(w http.ResponseWriter, out Outcome) {
	code := http.StatusOK
	if out.Decision == Shed {
		code = http.StatusServiceUnavailable
		secs := int(out.RetryAfter.Seconds() + 0.5)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(replyOf(out))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.GW.Stats()
	type classRow struct {
		Admitted   int `json:"admitted"`
		QueuedEver int `json:"queued_ever"`
		Shed       int `json:"shed"`
	}
	rep := struct {
		Requests        int                 `json:"requests"`
		QueueDepth      int                 `json:"queue_depth"`
		Degraded        int                 `json:"degraded"`
		AdmittedDropped int                 `json:"admitted_dropped"`
		EnergyWh        float64             `json:"energy_wh"`
		CostUSD         float64             `json:"cost_usd"`
		Classes         map[string]classRow `json:"classes"`
		ShedReasons     map[string]int      `json:"shed_reasons"`
		SimClockSeconds float64             `json:"sim_clock_seconds"`
	}{
		Requests:        st.Requests,
		QueueDepth:      st.QueueDepth,
		Degraded:        st.Degraded,
		AdmittedDropped: st.AdmittedDropped,
		EnergyWh:        st.EnergyWh,
		CostUSD:         st.CostUSD,
		Classes:         map[string]classRow{},
		ShedReasons:     map[string]int{},
		SimClockSeconds: s.Now().Seconds(),
	}
	for c := Class(0); c < NumClasses; c++ {
		rep.Classes[c.String()] = classRow{
			Admitted:   st.Admitted[c],
			QueuedEver: st.QueuedEver[c],
			Shed:       st.Shed[c],
		}
	}
	for why := ShedNone + 1; why < numShedReasons; why++ {
		if n := st.ShedReason[why]; n > 0 {
			rep.ShedReasons[why.String()] = n
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}
