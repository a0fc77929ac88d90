#pragma once
// Canonical scenario presets: vehicle shapes shared between the test suites
// and the benchmarks, so the workload a bench measures is byte-identical to
// the workload the determinism/regression tests lock in. The flagship
// preset follows the dual-bus zonal shape of examples/platoon_dual_bus.cpp
// (sensor zone -> gateway -> actuation zone) minus the example's acc_app
// application component, which rides on the services but adds nothing to
// the CAN chain the kernel suites measure.

#include <string>

#include "scenario/scenario_builder.hpp"

namespace sa::scenario::presets {

/// CAN id of the object frames crossing the dual-bus vehicle's gateway.
inline constexpr std::uint32_t kDualBusObjectFrameId = 0x120;

/// Declare one dual-bus zonal vehicle on `builder`: two ECU zones on
/// separate CAN buses joined by a store-and-forward gateway, a raw
/// object-TX / brake-activation chain across the gateway, perception and
/// brake-control contracts, rate IDS, the ACC skill graph, the full layer
/// stack and a 500 ms self-model. Deterministic: no task randomises its
/// execution time and no bus has a non-zero error rate, so runs reproduce
/// bit-for-bit from a seed (the kernel's golden-hash tests depend on this).
void declare_dual_bus_platoon_vehicle(ScenarioBuilder& builder,
                                      const std::string& name);

/// Maneuver-scenario variant: the same deterministic dual-bus platform, but
/// running the registry's platoon_follow skill graph with the unified
/// degradation policy instead of the ACC graph. The follow skill degrades
/// through capability downgrades (fog scripts, sensor faults), which is what
/// the automatic join/leave/split maneuvers key on — shared by the kernel
/// determinism suite and bench/skill_graph_sweep.cpp so they measure one
/// workload.
void declare_platoon_follow_vehicle(ScenarioBuilder& builder,
                                    const std::string& name);

} // namespace sa::scenario::presets
