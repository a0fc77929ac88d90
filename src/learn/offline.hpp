#pragma once
// Offline fit/score over recorded traces — the sa_learn CLI's engine. Feeds
// a Trace through the same LearnedScorer the in-sim AnomalyModelMonitor
// runs, so offline scores reproduce what the monitor would have raised on
// the same stream.

#include <cstdint>
#include <string>
#include <vector>

#include "learn/anomaly_model_monitor.hpp"
#include "learn/trace.hpp"

namespace sa::learn {

/// Frozen per-metric baseline after a fit.
struct MetricBaseline {
    std::string name;
    std::size_t samples = 0;
    bool warmed_up = false;
    double mean = 0.0;
    double sigma = 0.0;
    double ewma = 0.0;
    double drift_z = 0.0;
};

struct OfflineResult {
    std::vector<MetricBaseline> metrics;
    std::size_t state_count = 0;
    std::uint64_t evaluations = 0;
    double max_score = 0.0;
    std::vector<ScoredEvent> events;
};

/// Fit + score `trace` under `config` in one pass (the algorithm is fully
/// incremental, so fitting IS scoring with the events kept). The tracked
/// metrics are config.metrics, or with auto_metrics and an empty list every
/// distinct metric of the trace in first-appearance order.
[[nodiscard]] OfflineResult run_offline(const Trace& trace,
                                        const LearnedMonitorConfig& config);

} // namespace sa::learn
