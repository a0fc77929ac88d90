#pragma once
// Ability graph: the runtime instantiation of a skill graph (§IV: "an
// ability is derived from an abstract skill by instantiation and including
// information about the ability's current performance. ... Within the
// implemented system ability graphs are used during operation of the vehicle
// to monitor the current system performance. The ability level of the
// vehicle can then guide decision making").
//
// Each node carries a performance level in [0, 1]. Sources/sinks get their
// levels from monitors (sensor quality, actuator health); skills combine an
// intrinsic level (own performance, e.g. control quality) with an
// aggregation of their dependencies. propagate() recomputes bottom-up.

#include <map>
#include <string>

#include "monitor/sensor_quality_monitor.hpp"
#include "sim/signal.hpp"
#include "skills/aggregation.hpp"
#include "skills/skill_graph.hpp"

namespace sa::skills {

/// Qualitative ability level derived from the numeric score.
enum class AbilityLevel { Unavailable, Marginal, Reduced, Nominal };

const char* to_string(AbilityLevel level) noexcept;

struct AbilityThresholds {
    double nominal = 0.85; ///< >= nominal  => Nominal
    double reduced = 0.50; ///< >= reduced  => Reduced
    double marginal = 0.15;///< >= marginal => Marginal, below => Unavailable
};

AbilityLevel classify(double level, const AbilityThresholds& thresholds = {});

class AbilityGraph {
public:
    explicit AbilityGraph(SkillGraph structure, AbilityThresholds thresholds = {});

    [[nodiscard]] const SkillGraph& structure() const noexcept { return structure_; }

    /// Set a source/sink level (monitor input). Does not propagate.
    void set_source_level(const std::string& name, double level);

    /// Set a skill's intrinsic performance (its own monitor, e.g. control
    /// performance). Default 1.0. Does not propagate.
    void set_intrinsic_level(const std::string& skill, double level);
    /// A skill's intrinsic performance as last set (1.0 by default).
    [[nodiscard]] double intrinsic_level(const std::string& skill) const;

    void set_aggregation(const std::string& skill, Aggregation aggregation);
    void set_dependency_weight(const std::string& skill, const std::string& child,
                               double weight);

    /// Recompute all skill levels bottom-up. Returns the number of nodes
    /// whose qualitative level changed.
    std::size_t propagate();

    [[nodiscard]] double level(const std::string& name) const;
    [[nodiscard]] AbilityLevel ability(const std::string& name) const;
    [[nodiscard]] std::map<std::string, double> snapshot() const;

    /// Emitted from propagate() for each node whose qualitative level
    /// changed: (node, old level, new level).
    sim::Signal<const std::string&, AbilityLevel, AbilityLevel>& level_changed() noexcept {
        return level_changed_;
    }

    /// Convenience: drive a source level from a sensor-quality monitor.
    /// Subscribes to quality updates; each update sets the level and
    /// propagates.
    void bind_source(const std::string& source, monitor::SensorQualityMonitor& monitor);

    [[nodiscard]] const AbilityThresholds& thresholds() const noexcept {
        return thresholds_;
    }

private:
    SkillGraph structure_;
    AbilityThresholds thresholds_;
    std::map<std::string, double> level_;      ///< current propagated levels
    std::map<std::string, double> intrinsic_;  ///< skills only
    std::map<std::string, Aggregation> aggregation_;
    std::map<std::pair<std::string, std::string>, double> weights_;
    std::vector<std::string> topo_;            ///< cached topological order
    sim::Signal<const std::string&, AbilityLevel, AbilityLevel> level_changed_;
};

} // namespace sa::skills
