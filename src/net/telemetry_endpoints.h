// The telemetry endpoint set, registered onto tempspec_serve's NetServer:
// one network stack serves both the query plane and the observability
// plane. The page formats live in obs/; this file only serves them.
//
//   /metrics          — Prometheus text exposition of the metrics registry
//                       plus the labeled latency family (obs/metrics.h)
//   /metrics/history  — the metrics time-series ring as JSONL (obs/history.h)
//   /varz             — {"build":..., "metrics":...} JSON snapshot
//   /healthz          — "ok" liveness probe
//   /debug/events     — the flight-recorder ring as JSONL
//   /debug/traces     — the retained trace spans as JSONL
//   /debug/health     — declared SLOs re-evaluated now, as JSON (obs/slo.h)
//
// Handlers run on the event-loop thread and only snapshot in-process
// registries, so they stay responsive even when every worker is busy —
// telemetry never passes through admission control.
#ifndef TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_
#define TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_

#include "net/server.h"

namespace tempspec {

/// \brief Registers the telemetry endpoints above. Call before Start().
void RegisterTelemetryEndpoints(NetServer* server);

}  // namespace tempspec

#endif  // TEMPSPEC_NET_TELEMETRY_ENDPOINTS_H_
