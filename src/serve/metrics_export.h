// Bridges the serve-level structs (FleetMetrics, its ClassMetrics slices,
// and the core AccessStats they embed) into one obs::MetricsRegistry, so the
// decode-traffic numbers (chunk-fetch histogram, bytes moved, pruning
// counters) and the serve-level latency/throughput metrics come out of a
// single deterministic snapshot JSON instead of two hand-rolled serializers.
#pragma once

#include <string>

#include "core/access_stats.h"
#include "obs/metrics.h"
#include "serve/serve_engine.h"

namespace topick::serve {

// Registers `stats` under `prefix` ("access." by convention): fetched and
// baseline K/V bits, token totals, the reduction/pruning gauges, and the
// 8-bucket chunk-fetch histogram as chunk_fetch_le_N counters.
void export_access_stats(const AccessStats& stats, const std::string& prefix,
                         obs::MetricsRegistry* registry);

// Full fleet snapshot: counters (requests, tokens, bits, pool), gauges
// (throughput, fragmentation, traffic reduction), latency histograms built
// from the exact sample vectors, per-class slices under "class.<name>.", and
// the embedded AccessStats under "access.".
void export_fleet_metrics(const FleetMetrics& metrics,
                          obs::MetricsRegistry* registry);

}  // namespace topick::serve
