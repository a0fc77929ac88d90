#include "learn/anomaly_model_monitor.hpp"

#include <algorithm>

#include "monitor/anomaly_kinds.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::learn {

namespace {

StateModelConfig seeded(StateModelConfig state, std::uint64_t seed) {
    state.seed = seed;
    return state;
}

} // namespace

LearnedScorer::LearnedScorer(LearnedMonitorConfig config)
    : config_(std::move(config)),
      models_(config_.metrics.size(), MetricModel(config_.metric)),
      in_round_(config_.metrics.size(), false),
      bands_(config_.metrics.size(), 0),
      state_(seeded(config_.state, config_.seed)) {
    SA_REQUIRE(!config_.metrics.empty(),
               "learned model needs at least one tracked metric: configure "
               "metrics, or auto_metrics over a non-empty stream "
               "(lint rule LRN001)");
    SA_REQUIRE(config_.score_threshold > 0.0, "score threshold must be positive");
}

std::optional<std::size_t> LearnedScorer::index_of(std::string_view name) const {
    const auto it = std::find(config_.metrics.begin(), config_.metrics.end(), name);
    if (it == config_.metrics.end()) {
        return std::nullopt;
    }
    return static_cast<std::size_t>(it - config_.metrics.begin());
}

bool LearnedScorer::warmed_up(std::int64_t now_ns) const noexcept {
    return first_ns_.has_value() && now_ns - *first_ns_ >= config_.warmup.count_ns();
}

std::optional<ScoredEvent> LearnedScorer::feed(std::int64_t at_ns,
                                               std::size_t index, double value) {
    if (!first_ns_.has_value()) {
        first_ns_ = at_ns;
    }
    std::optional<ScoredEvent> transition;
    // A repeated metric means the stream entered its next round: score the
    // completed joint observation first. Purely stream-driven, so any ingest
    // interleaving (pump order, extra producers) stays deterministic.
    if (in_round_[index]) {
        ++evals_;
        for (std::size_t i = 0; i < models_.size(); ++i) {
            bands_[i] = state_.band(models_[i].drift_z());
        }
        const StateModel::Observation obs = state_.observe(bands_);
        score_ = obs.score;
        std::fill(in_round_.begin(), in_round_.end(), false);
        // State/transition statistics learn from the whole stream, but
        // alarms only fire once the warm-up elapsed — the early shuffle
        // while clusters form is training data, not evidence.
        if (warmed_up(at_ns)) {
            if (!alarmed_ && score_ >= config_.score_threshold) {
                alarmed_ = true;
                transition = ScoredEvent{at_ns, obs.state, score_, true};
            } else if (alarmed_ &&
                       score_ <= config_.recover_ratio * config_.score_threshold) {
                alarmed_ = false;
                transition = ScoredEvent{at_ns, obs.state, score_, false};
            }
        }
    }
    models_[index].update(value);
    in_round_[index] = true;
    return transition;
}

AnomalyModelMonitor::AnomalyModelMonitor(sim::Simulator& simulator,
                                         monitor::MonitorManager& manager,
                                         LearnedMonitorConfig config)
    : Monitor(simulator, "learned:model", monitor::Domain::Function),
      manager_(manager),
      scorer_(std::move(config)) {
    tap_id_ = manager_.metric_ingested().subscribe(
        [this](const monitor::Metric& metric) { on_metric(metric); });
}

AnomalyModelMonitor::~AnomalyModelMonitor() {
    manager_.metric_ingested().unsubscribe(tap_id_);
}

void AnomalyModelMonitor::on_metric(const monitor::Metric& metric) {
    const std::optional<std::size_t> index = scorer_.index_of(metric.name);
    if (!index) {
        return;
    }
    const std::uint64_t evaluations = scorer_.evaluations();
    const std::optional<ScoredEvent> event =
        scorer_.feed(metric.at.ns(), *index, metric.value);
    if (scorer_.evaluations() != evaluations) {
        note_check();
    }
    if (!event) {
        return;
    }
    const LearnedMonitorConfig& config = scorer_.config();
    if (event->abnormal) {
        const double magnitude = event->score / config.score_threshold;
        const auto severity = magnitude >= 1.5 ? monitor::Severity::Critical
                                               : monitor::Severity::Warning;
        raise(severity, name(), monitor::kinds::kLearnedAbnormality,
              format("state %zu surprise %.2f bits (threshold %.2f, %zu states)",
                     event->state, event->score, config.score_threshold,
                     scorer_.state_model().state_count()),
              magnitude);
    } else {
        raise(monitor::Severity::Info, name(), monitor::kinds::kLearnedRecovered,
              format("surprise %.2f bits back under %.2f", event->score,
                     config.recover_ratio * config.score_threshold),
              0.0);
    }
}

} // namespace sa::learn
