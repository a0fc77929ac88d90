#pragma once
// The learned monitor's payoff scenario: an ACC vehicle whose radar develops
// a slow calibration drift. The bias rides inside every valid sample, so
// availability, validity and noise variance never change — no threshold
// monitor (sensor quality, range, rate) ever reacts — but the fused gap the
// controller regulates and the raw sensor streams slowly pull apart, and the
// learned monitor's joint-state model lands in a state it has never seen.
// Its learned_abnormality alarm flows through the degradation policy and
// caps the radar capability, degrading acc_driving like any hand-written
// alarm would.
//
// One declaration shared by the example, the tests and the sa_learn CLI, so
// "the drift scenario" means the same scenario in all three. (The campaign
// runner's sensor_drift fault scripts its own capability-decay ramp.)

#include <cstdint>

#include "learn/anomaly_model_monitor.hpp"
#include "scenario/scenario_builder.hpp"

namespace sa::learn {

struct DriftDemoConfig {
    std::uint64_t seed = 7;
    std::size_t domains = 1;
    /// Intended run length (also the builder's duration_hint()).
    sim::Duration duration = sim::Duration::sec(40);
    /// Learned-monitor warm-up (training window before scoring). Generous:
    /// the per-metric baselines freeze after ~3.2s, but the closed ACC loop
    /// wanders slowly (~10s excursions of a few decimetres) around its
    /// noise-shifted equilibrium, and the state model must see several full
    /// wander cycles — otherwise the first post-gate excursion rediscovers
    /// an ordinary state as "new" and alarms on nothing.
    sim::Duration warmup = sim::Duration::sec(30);
    /// First bias step; the ramp must start after the warm-up.
    sim::Duration drift_start = sim::Duration::sec(32);
    sim::Duration drift_step_period = sim::Duration::ms(400);
    int drift_steps = 12;
    double drift_step_m = 0.5; ///< radar bias added per step
    /// Surprise (bits) that raises the alarm. Sits between the rarest
    /// normal corner state (~7 bits: a ~1%-frequency excursion) and a
    /// never-seen state late in the run (log2(evaluations) ~ 9+ bits).
    double score_threshold = 8.0;
    /// Band width in drift-z units. The closed ACC loop wanders slowly
    /// around its equilibrium — the EWMA of a clean metric reaches z ~ 1.0
    /// of the frozen baseline late in a 40s run — so the first band flip is
    /// placed at z = 1.5: outside the clean envelope with margin, well
    /// inside the ±2.2 sigma the radar/camera disagreement reaches when the
    /// calibration actually walks.
    double band_width = 3.0;
    /// Radar capability level imposed by the learned_abnormality rule.
    double degraded_radar_level = 0.3;
};

/// The exact learned-monitor configuration the drift scenario installs —
/// shared with sa_learn's offline fit/score so offline verdicts mirror the
/// in-sim monitor.
[[nodiscard]] LearnedMonitorConfig drift_demo_model(const DriftDemoConfig& config);

/// Configure `builder` with the drift scenario: vehicle "ego" (ACC driving
/// loop, radar + camera with quality monitors, the §IV ACC skill graph, a
/// degradation policy mapping learned_abnormality onto the radar capability,
/// and a learned monitor), plus the scripted stepwise radar bias ramp.
/// The builder's seed is NOT touched — construct it with config.seed.
void declare_drift_demo(scenario::ScenarioBuilder& builder,
                        const DriftDemoConfig& config = {});

/// A fresh builder seeded with config.seed and declared via
/// declare_drift_demo().
[[nodiscard]] scenario::ScenarioBuilder
make_drift_demo(const DriftDemoConfig& config = {});

} // namespace sa::learn
