package eplog

import "github.com/eplog/eplog/internal/telemetry"

// TelemetryServer is a running live-telemetry HTTP endpoint; see
// Array.ServeTelemetry.
type TelemetryServer = telemetry.Server

// ServeTelemetry starts a live telemetry HTTP server for this array on
// addr (host:port; use ":0" for an ephemeral port and read it back with
// Addr). The server exposes /metrics (Prometheus text format),
// /metrics.json, /spans (JSON Lines, one span tree per line), /healthz,
// and /debug/pprof/. Scrapes snapshot the sink on demand and never block
// the engine's hot paths beyond the sink's own short critical sections.
// The caller owns the server and should Close it when done; an array
// without observability enabled serves empty metrics and spans.
func (a *Array) ServeTelemetry(addr string) (*TelemetryServer, error) {
	return telemetry.Serve(addr, telemetry.SinkSource(a.sink))
}
