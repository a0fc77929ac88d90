#include "learn/offline.hpp"

#include <algorithm>

namespace sa::learn {

namespace {

std::vector<std::string> resolve_trace_metrics(const Trace& trace,
                                               const LearnedMonitorConfig& config) {
    if (!config.metrics.empty()) {
        return config.metrics;
    }
    std::vector<std::string> names;
    if (config.auto_metrics) {
        for (const auto& sample : trace.samples) {
            if (std::find(names.begin(), names.end(), sample.name) == names.end()) {
                names.push_back(sample.name);
            }
        }
    }
    return names;
}

} // namespace

OfflineResult run_offline(const Trace& trace, const LearnedMonitorConfig& config) {
    LearnedMonitorConfig tracked = config;
    tracked.metrics = resolve_trace_metrics(trace, config);
    LearnedScorer scorer(std::move(tracked));

    OfflineResult result;
    for (const auto& sample : trace.samples) {
        const std::optional<std::size_t> index = scorer.index_of(sample.name);
        if (!index) {
            continue;
        }
        if (const std::optional<ScoredEvent> event =
                scorer.feed(sample.at_ns, *index, sample.value)) {
            result.events.push_back(*event);
        }
        result.max_score = std::max(result.max_score, scorer.score());
    }

    result.evaluations = scorer.evaluations();
    result.state_count = scorer.state_model().state_count();
    const std::vector<std::string>& names = scorer.config().metrics;
    result.metrics.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const MetricModel& model = scorer.metric_model(i);
        result.metrics.push_back(MetricBaseline{
            names[i], model.count(), model.warmed_up(), model.mean(),
            model.sigma(), model.ewma(), model.drift_z()});
    }
    return result;
}

} // namespace sa::learn
