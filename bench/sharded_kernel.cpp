// SHARD — the kernel on the flagship scenario: the dual-bus three-vehicle
// platoon (examples/platoon_dual_bus.cpp) under a scripted message storm,
// the workload whose traces tests/test_kernel.cpp pins by golden hash.
//
// Timing is manual (UseManualTime): assembly excluded, run() wall time only.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;
using sim::Time;

namespace {

const char* const kVehicles[] = {"alpha", "beta", "gamma"};

void declare_vehicle(scenario::ScenarioBuilder& builder, const std::string& name) {
    // The canonical preset — identical to the declaration the kernel
    // determinism suite pins, so this bench measures exactly that workload.
    scenario::presets::declare_dual_bus_platoon_vehicle(builder, name);
}

void BM_ShardedDualBusPlatoon(benchmark::State& state) {
    std::uint64_t events = 0;
    for (auto _ : state) {
        scenario::ScenarioBuilder builder(2026);
        builder.v2v(0.0, Duration::ms(20));
        for (const char* name : kVehicles) {
            declare_vehicle(builder, name);
        }
        builder.at(Duration::sec(1), [](scenario::Scenario& s) {
            auto& beta = s.vehicle("beta");
            beta.rte().access().grant("perception", "brake_cmd");
            beta.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                        Duration::ms(2));
        });
        auto scenario = builder.build();
        for (const char* name : kVehicles) {
            scenario->v2v().attach(name, [](const v2v::Frame&, double) {});
        }
        int slot = 0;
        for (const char* name : kVehicles) {
            scenario->simulator().schedule_periodic(
                Duration::ms(100),
                [&v2v = scenario->v2v(), name] {
                    v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
                },
                Duration::ms(10 * ++slot));
        }

        const auto start = std::chrono::steady_clock::now();
        scenario->run(Duration::sec(3));
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(end - start).count());

        events = scenario->kernel().executed_events();
    }
    state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_ShardedDualBusPlatoon)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
