#pragma once
// AnomalyModelMonitor: the learned detector as a first-class monitor. It
// subscribes to the MonitorManager's metric_ingested() tap, keeps one
// MetricModel per tracked metric and one cross-metric StateModel, and —
// after a sim-time warm-up — raises standard monitor::Anomaly records (kind
// learned_abnormality, magnitude = score / threshold) whenever the joint
// state becomes surprising. Alarms flow through AlarmBinding /
// DegradationPolicy into the ability graph exactly like every hand-written
// monitor's; nothing downstream knows the threshold was learned.
//
// Evaluation is tap-driven (no own periodic): every ingest of a tracked
// metric is fed to the LearnedScorer, whose scoring round closes when a
// tracked metric repeats, so the anomaly stream is a pure function of the
// ingest stream — identical across 1/2/4 domains by construction.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "learn/metric_model.hpp"
#include "learn/state_model.hpp"
#include "monitor/manager.hpp"
#include "monitor/monitor.hpp"

namespace sa::learn {

struct LearnedMonitorConfig {
    /// Tracked metric names, in band order. Empty + auto_metrics: the
    /// vehicle builder resolves the standard feeds (drive.gap, drive.speed,
    /// sensor.<name>, skill.<root>). Empty + !auto_metrics is a
    /// configuration error (lint rule LRN001).
    std::vector<std::string> metrics;
    bool auto_metrics = true;
    /// Metric-pump period (the builder's periodic that feeds the tap).
    sim::Duration period = sim::Duration::ms(50);
    /// Sim time before scoring starts; state statistics learn throughout.
    sim::Duration warmup = sim::Duration::ms(500);
    /// Surprise (bits) at which learned_abnormality is raised...
    double score_threshold = 8.0;
    /// ...and the fraction of it below which learned_recovered follows.
    double recover_ratio = 0.5;
    MetricModelConfig metric{};
    StateModelConfig state{};
    /// Clustering seed (copied into state.seed by the constructor).
    std::uint64_t seed = 1;
};

/// An alarm-state transition of the learned scorer.
struct ScoredEvent {
    std::int64_t at_ns = 0;
    std::size_t state = 0;
    double score = 0.0;  ///< surprise in bits at the transition
    bool abnormal = false;  ///< true: learned_abnormality; false: recovered

    bool operator==(const ScoredEvent&) const = default;
};

/// The learned scoring rule, free of the simulator so the in-sim monitor
/// and the offline engine (offline.hpp) run the same code. Samples arrive
/// as (at_ns, metric index, value), indexed in config().metrics order. A
/// repeated metric closes the round: the completed joint observation is
/// banded and scored by the StateModel before the sample is folded into
/// its MetricModel. State statistics learn from every round; alarms fire
/// only once `warmup` has elapsed since the first sample, and an alarm
/// recovers at recover_ratio * score_threshold.
class LearnedScorer {
public:
    /// Tracks config.metrics, which must not be empty (lint rule LRN001).
    explicit LearnedScorer(LearnedMonitorConfig config);

    /// Band index of a tracked metric; nullopt for untracked names.
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view name) const;

    /// Feed one sample of tracked metric `index`. Returns the alarm
    /// transition made by the round this sample closed, if any.
    std::optional<ScoredEvent> feed(std::int64_t at_ns, std::size_t index,
                                    double value);

    [[nodiscard]] const LearnedMonitorConfig& config() const noexcept {
        return config_;
    }
    /// Surprise (bits) of the latest scored round.
    [[nodiscard]] double score() const noexcept { return score_; }
    [[nodiscard]] bool alarmed() const noexcept { return alarmed_; }
    /// True once the warm-up has elapsed between the first sample and `now_ns`.
    [[nodiscard]] bool warmed_up(std::int64_t now_ns) const noexcept;
    [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }
    [[nodiscard]] const StateModel& state_model() const noexcept { return state_; }
    [[nodiscard]] const MetricModel& metric_model(std::size_t index) const {
        return models_[index];
    }

private:
    LearnedMonitorConfig config_;
    std::vector<MetricModel> models_;
    std::vector<bool> in_round_;  ///< updated since the last evaluation
    std::vector<int> bands_;      ///< scratch, reused every evaluation
    StateModel state_;
    std::optional<std::int64_t> first_ns_;
    double score_ = 0.0;
    bool alarmed_ = false;
    std::uint64_t evals_ = 0;
};

class AnomalyModelMonitor : public monitor::Monitor {
public:
    AnomalyModelMonitor(sim::Simulator& simulator,
                        monitor::MonitorManager& manager,
                        LearnedMonitorConfig config);
    ~AnomalyModelMonitor() override;

    /// The scoring state: config, latest score, alarm, per-metric models.
    [[nodiscard]] const LearnedScorer& scorer() const noexcept { return scorer_; }
    /// True once the sim-time warm-up has elapsed (scoring active).
    [[nodiscard]] bool warmed_up() const noexcept {
        return scorer_.warmed_up(simulator_.now().ns());
    }
    [[nodiscard]] std::uint64_t evaluations() const noexcept {
        return scorer_.evaluations();
    }

private:
    void on_metric(const monitor::Metric& metric);

    monitor::MonitorManager& manager_;
    LearnedScorer scorer_;
    std::uint64_t tap_id_ = 0;
};

} // namespace sa::learn
