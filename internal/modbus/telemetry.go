package modbus

import "insure/internal/telemetry"

// RegisterTelemetry exposes the client's transaction and fault counters on
// reg. The gauges read the client's atomic counters directly, so a live
// scrape observes an in-flight retry storm in real time and never blocks on
// the connection mutex (which is held across backoff sleeps).
func (c *Client) RegisterTelemetry(reg *telemetry.Registry) {
	reg.FuncGauge("insure_modbus_client_transactions",
		"Requests issued to the panel, each counted once however often it was retried.",
		func() float64 { return float64(c.Transactions()) })
	reg.FuncGauge("insure_modbus_client_retries",
		"Round trips retried after a transport failure.",
		func() float64 { return float64(c.Retries()) })
	reg.FuncGauge("insure_modbus_client_timeouts",
		"Attempts that died on an I/O deadline (the panel went quiet).",
		func() float64 { return float64(c.Timeouts()) })
	reg.FuncGauge("insure_modbus_client_reconnects",
		"Times the client redialled the panel.",
		func() float64 { return float64(c.Reconnects()) })
}

// RegisterTelemetry exposes the server's session health on reg.
func (s *Server) RegisterTelemetry(reg *telemetry.Registry) {
	reg.FuncGauge("modbus_server_sessions_reaped",
		"Sessions dropped because the peer went silent past the idle timeout.",
		func() float64 { return float64(s.SessionsReaped()) })
}
