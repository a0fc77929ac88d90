// Tests for the kernel: one simulator plus script barriers (ordering,
// clock alignment, stop(), teardown at a barrier), gateway routes and V2V
// on it, and the determinism suite: the dual-bus platoon and the maneuver
// scenario reproduce golden hashes of their per-vehicle counters, CAN event
// traces and event counts at every declared domain count, and identical
// everything when re-run with the same seed — plus logging from several
// vehicles into one sink.
//
// The CI tsan job runs this file with SA_SANITIZE=thread: stop() from an
// external thread and the util::Log sink are the cross-thread surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "campaign/verdict.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "mesh/medium.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "sim/kernel.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;

Time at_ms(std::int64_t ms) { return Time(Duration::ms(ms).count_ns()); }

// --- kernel mechanics --------------------------------------------------------------

TEST(ShardedKernel, RunsIndependentDomainsToTheHorizon) {
    sim::Kernel kernel(42);
    std::vector<int> fired;
    kernel.simulator().schedule(Duration::us(20), [&] { fired.push_back(1); });
    kernel.simulator().schedule(Duration::us(10), [&] { fired.push_back(0); });

    const std::size_t executed = kernel.run_until(at_ms(1));

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(kernel.executed_events(), 2u);
    EXPECT_EQ(fired, (std::vector<int>{0, 1}));
    EXPECT_EQ(kernel.now(), at_ms(1));
    EXPECT_EQ(kernel.simulator().now(), at_ms(1));
    EXPECT_EQ(kernel.cross_domain_events(), 0u);
}

TEST(ShardedKernel, ScriptBarrierAlignsClocksAndMayTouchEveryDomain) {
    sim::Kernel kernel(42);
    sim::Simulator& sim = kernel.simulator();
    std::uint64_t fired0 = 0;
    std::uint64_t fired1 = 0;
    sim.schedule_periodic(Duration::ms(1), [&] { ++fired0; });
    const std::uint64_t periodic1 = sim.schedule_periodic(Duration::ms(1), [&] { ++fired1; });
    bool script_ran = false;
    kernel.schedule_script(at_ms(5), [&] {
        script_ran = true;
        EXPECT_EQ(sim.now(), at_ms(5));
        sim.cancel_periodic(periodic1);
    });

    kernel.run_until(at_ms(10));

    EXPECT_TRUE(script_ran);
    EXPECT_EQ(fired0, 11u); // occurrences at 0, 1, ..., 10 ms
    // Cancelled at the 5 ms barrier, before the 5 ms occurrence executed:
    // only 0..4 ms fired.
    EXPECT_EQ(fired1, 5u);
    // Drain segments: [0, 5 ms) before the script, then [5 ms, 10 ms].
    EXPECT_EQ(kernel.windows(), 2u);
}

TEST(ShardedKernel, ScriptsAtEqualTimesRunInRegistrationOrder) {
    sim::Kernel kernel(42);
    std::vector<int> order;
    kernel.schedule_script(at_ms(1), [&] { order.push_back(1); });
    kernel.schedule_script(at_ms(1), [&] { order.push_back(2); });
    kernel.run_until(at_ms(2));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedKernel, RunToTimeMaxDrainsAndReturns) {
    sim::Kernel kernel(42);
    std::uint64_t fired = 0;
    kernel.simulator().schedule(Duration::us(10), [&] { ++fired; });
    kernel.simulator().schedule(Duration::ms(3), [&] { ++fired; });

    const std::size_t executed = kernel.run_until(Time::max());

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired, 2u);
    // The clock stays at the last executed event — NOT at the numeric
    // limit — so the kernel remains usable for further relative scheduling.
    EXPECT_EQ(kernel.now(), at_ms(3));
    kernel.simulator().schedule(Duration::ms(1), [&] { ++fired; });
    kernel.run_for(Duration::ms(10));
    EXPECT_EQ(fired, 3u);
}

TEST(ShardedKernel, ThrowingEventPropagatesAndARerunResumes) {
    sim::Kernel kernel(42);
    bool later_ran = false;
    kernel.simulator().schedule(Duration::us(10),
                                [] { throw std::runtime_error("boom"); });
    kernel.simulator().schedule(Duration::ms(2), [&] { later_ran = true; });

    EXPECT_THROW(kernel.run_until(at_ms(10)), std::runtime_error);
    EXPECT_EQ(kernel.now(), Time(Duration::us(10).count_ns()));
    EXPECT_FALSE(later_ran);

    // A re-run continues from the queue as it was left.
    kernel.run_until(at_ms(10));
    EXPECT_TRUE(later_ran);
    EXPECT_EQ(kernel.now(), at_ms(10));
}

TEST(ShardedKernel, StaleStopOnAnIdleKernelIsDiscarded) {
    sim::Kernel kernel(42);
    std::uint64_t fired = 0;
    kernel.simulator().schedule(Duration::ms(1), [&] { ++fired; });
    kernel.stop(); // lands while idle: the next run must not be skipped

    kernel.run_until(at_ms(10));

    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(kernel.now(), at_ms(10));
}

TEST(ShardedKernel, StopFromAWorkerReturnsAtTheNextBarrier) {
    sim::Kernel kernel(42);
    std::uint64_t late_events = 0;
    kernel.simulator().schedule(Duration::us(100), [&] { kernel.stop(); });
    kernel.simulator().schedule(Duration::ms(50), [&] { ++late_events; });

    kernel.run_until(Time(Duration::sec(1).count_ns()));

    // The stop takes effect after the stopping event.
    EXPECT_EQ(late_events, 0u);
    EXPECT_EQ(kernel.simulator().pending_events(), 1u); // still queued
    EXPECT_EQ(kernel.now(), Time(Duration::us(100).count_ns()));

    kernel.run_until(Time(Duration::sec(1).count_ns()));
    EXPECT_EQ(late_events, 1u);
}

TEST(ShardedKernel, StopIsSafeFromAnExternalThread) {
    sim::Kernel kernel(42);
    // A long busy schedule so the run is still in flight when the external
    // thread pulls the brake.
    kernel.simulator().schedule_periodic(Duration::us(10), [] {});
    kernel.simulator().schedule_periodic(Duration::us(10), [] {});
    std::thread stopper([&] { kernel.stop(); });
    kernel.run_until(Time(Duration::sec(5).count_ns()));
    stopper.join();
    SUCCEED(); // termination (early or not) without a data race is the assertion
}

TEST(ShardedKernel, PostedCancelPeriodicFromForeignDomainIsSafe) {
    // One event schedules the cancellation of a periodic for later (as one
    // vehicle may for another's); it takes effect at that time.
    sim::Kernel kernel(42);
    sim::Simulator& sim = kernel.simulator();
    std::uint64_t fired = 0;
    const std::uint64_t id = sim.schedule_periodic(Duration::ms(1), [&] { ++fired; });
    sim.schedule(Duration::us(100), [&] {
        sim.schedule(Duration::ms(3), [&] { sim.cancel_periodic(id); });
    });

    kernel.run_until(at_ms(10));

    // Cancelled at 3.1 ms: the 0, 1, 2 and 3 ms occurrences fired.
    EXPECT_EQ(fired, 4u);
}

TEST(ShardedKernel, VehicleDestroyedAtAScriptBarrierWhileTheKernelKeepsRunning) {
    // The Vehicle::~Vehicle audit: tearing a vehicle down at a script
    // barrier is safe, and its periodics stop firing afterwards.
    sim::Kernel kernel(42);
    scenario::VehicleBuilder builder("doomed");
    builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(R"(
            component ctrl {
              asil D;
              security_level 2;
              task control { wcet 500us; period 10ms; deadline 8ms; }
              provides service cmd { max_rate 200/s; }
            }
        )")
        .acc_skills()
        .full_layer_stack()
        .self_model(Duration::ms(5));
    auto vehicle = builder.build(kernel.simulator());
    kernel.simulator().schedule_periodic(Duration::ms(1), [] {}); // keep busy
    kernel.schedule_script(at_ms(20), [&] { vehicle.reset(); });

    kernel.run_until(at_ms(100));

    EXPECT_EQ(vehicle, nullptr);
    // Everything the vehicle had registered is gone: only the 1 ms periodic
    // executes from here on (101..200 ms).
    EXPECT_EQ(kernel.run_until(at_ms(200)), 100u);
}

// --- CAN gateway routes -------------------------------------------------------------

TEST(ShardedGateway, RouteAcrossDistinctKernelsIsRejected) {
    sim::Kernel kernel_a(1);
    sim::Kernel kernel_b(2);
    can::CanBus a(kernel_a.simulator(), "a");
    can::CanBus b(kernel_b.simulator(), "b");
    can::BusGateway gateway("gw", Duration::us(50));
    EXPECT_THROW(gateway.add_route(a, b, 0, 0), sa::ContractViolation);
}

// --- V2V ---------------------------------------------------------------------------

TEST(ShardedV2v, DeliversFramesToEndpointsOnTheirHomeDomains) {
    sim::Kernel kernel(42);
    sim::Simulator& sim = kernel.simulator();
    v2v::Medium medium(sim, {.latency = Duration::ms(20)});

    Time b_received = Time::zero();
    medium.attach("a", [](const v2v::Frame&, double) {});
    medium.attach("b", [&](const v2v::Frame& frame, double) {
        EXPECT_EQ(frame.origin, "a");
        b_received = sim.now();
    });
    sim.schedule(Duration::ms(1), [&] {
        medium.transmit(v2v::Medium::cam("a", 100.0, 22.0));
    });

    kernel.run_until(at_ms(50));

    EXPECT_EQ(medium.transmissions(), 1u);
    EXPECT_EQ(medium.deliveries(), 1u);
    EXPECT_EQ(b_received, at_ms(21));
}

TEST(ShardedV2v, MidRunMembershipChangesApplyToLaterTransmissions) {
    // Membership and positions may change from inside an event: the next
    // transmission sees the change.
    sim::Kernel kernel(42);
    sim::Simulator& sim = kernel.simulator();
    v2v::Medium medium(sim, {.latency = Duration::ms(1), .range_m = 100.0});
    std::uint64_t b_heard = 0;
    medium.attach("a", [](const v2v::Frame&, double) {}, 0.0);
    sim.schedule(Duration::ms(1), [&] {
        medium.attach("b", [&](const v2v::Frame&, double) { ++b_heard; }, 50.0);
        medium.transmit(v2v::Medium::cam("a", 0.0, 22.0)); // b in range
        medium.move("b", 500.0);
        medium.transmit(v2v::Medium::cam("a", 0.0, 22.0)); // b out of range
    });

    kernel.run_until(at_ms(10));

    EXPECT_EQ(b_heard, 1u);
    EXPECT_EQ(medium.deliveries(), 1u);
}

TEST(ShardedV2v, ZeroLatencyMediumOnOneDomainIsAccepted) {
    sim::Kernel kernel(42);
    EXPECT_NO_THROW(v2v::Medium(kernel.simulator(), {.latency = Duration::zero()}));
}

// --- determinism: the dual-bus platoon at every declared domain count -------------

const char* const kPlatoonVehicles[] = {"alpha", "beta", "gamma"};

void declare_platoon_vehicle(scenario::ScenarioBuilder& builder,
                             const std::string& name) {
    // The canonical preset — the same declaration bench/sharded_kernel.cpp
    // measures, so the benchmarked workload IS the determinism-tested one.
    scenario::presets::declare_dual_bus_platoon_vehicle(builder, name);
}

/// Everything a run can observably produce: per-vehicle state flattened
/// into strings, plus the kernel's own counters.
struct RunFingerprint {
    std::vector<std::string> vehicles; ///< per-vehicle counters + CAN traces
    std::string v2v;
    std::uint64_t events = 0;  ///< kernel().executed_events()
    std::uint64_t windows = 0; ///< kernel().windows()
    bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint kernel_counters(scenario::Scenario& scenario) {
    RunFingerprint fp;
    fp.events = scenario.kernel().executed_events();
    fp.windows = scenario.kernel().windows();
    return fp;
}

/// FNV-1a over everything a fingerprint holds except windows(), which
/// counts kernel barriers rather than simulated behaviour.
std::uint64_t golden_hash(const RunFingerprint& fp) {
    std::string all;
    for (const auto& vehicle : fp.vehicles) {
        all += vehicle + "\x1f";
    }
    all += fp.v2v + "\x1f" + std::to_string(fp.events);
    return campaign::fnv1a64(all);
}

std::string trace_fingerprint(const sim::Trace& trace) {
    std::string out;
    for (const auto& record : trace.records()) {
        out += std::to_string(record.at.ns()) + " " + record.tag + " " +
               record.detail + "\n";
    }
    return out;
}

RunFingerprint run_platoon(std::size_t num_domains, std::uint64_t seed) {
    scenario::ScenarioBuilder builder(seed);
    builder.domains(num_domains);
    for (const char* name : kPlatoonVehicles) {
        declare_platoon_vehicle(builder, name);
    }
    builder.trust("alpha", 14)
        .trust("beta", 14)
        .trust("gamma", 14)
        .v2v(0.0, Duration::ms(20))
        .at(Duration::sec(1), [](scenario::Scenario& s) {
            auto& beta = s.vehicle("beta");
            beta.rte().access().grant("perception", "brake_cmd");
            beta.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                        Duration::ms(2));
        });
    auto scenario = builder.build();
    for (const char* name : kPlatoonVehicles) {
        scenario->v2v().attach(name, [](const v2v::Frame&, double) {});
    }
    int slot = 0;
    for (const char* name : kPlatoonVehicles) {
        scenario->simulator().schedule_periodic(
            Duration::ms(100),
            [&v2v = scenario->v2v(), name] {
                v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
            },
            Duration::ms(10 * ++slot));
    }

    scenario->run(Duration::sec(2), num_domains);

    RunFingerprint fp = kernel_counters(*scenario);
    for (const char* name : kPlatoonVehicles) {
        auto& v = scenario->vehicle(name);
        std::string s = v.report().str();
        s += "| gw fwd=" + std::to_string(v.bus_gateway("gw").frames_forwarded());
        s += " drop=" + std::to_string(v.bus_gateway("gw").frames_dropped());
        s += " rx_act=" +
             std::to_string(v.can_endpoint("zone_rear", "can_act").activations());
        s += " perception=" +
             std::string(rte::to_string(v.rte().component("perception").state()));
        s += "\n" + trace_fingerprint(v.rte().can_bus("can_sense").trace());
        s += trace_fingerprint(v.rte().can_bus("can_act").trace());
        fp.vehicles.push_back(std::move(s));
    }
    fp.v2v = std::to_string(scenario->v2v().transmissions()) + "/" +
             std::to_string(scenario->v2v().deliveries());
    return fp;
}

TEST(ShardedDeterminism, SameSeedSameTracePerDomainCount) {
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint first = run_platoon(domains, 2026);
        const RunFingerprint second = run_platoon(domains, 2026);
        EXPECT_EQ(first, second) << "non-reproducible at domains=" << domains;
    }
}

TEST(ShardedDeterminism, DomainCountDoesNotChangeTheResults) {
    // Golden hash of the seed-2026 platoon: per-vehicle reports, both CAN
    // traces of every vehicle, the V2V counters and the event count. Every
    // declared domain count must reproduce it.
    constexpr std::uint64_t kGolden = 0x11bb1d11c1539d1bULL;
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint fp = run_platoon(domains, 2026);
        ASSERT_EQ(fp.vehicles.size(), 3u);
        EXPECT_EQ(golden_hash(fp), kGolden) << "domains=" << domains;
    }
}

// --- determinism: degradation-triggered split at every declared domain count ------

/// The platoon-maneuver workload: three dual-bus platoon_follow vehicles
/// under the maneuver engine. A script degrades beta's radar+V2V
/// capabilities mid-run; its follow skill collapses and the engine splits
/// the platoon at beta — counters, CAN traces, platoon membership and the
/// maneuver history must reproduce bit-for-bit at every declared domain count.
RunFingerprint run_maneuver_platoon(std::size_t num_domains, std::uint64_t seed) {
    scenario::ScenarioBuilder builder(seed);
    builder.domains(num_domains);
    for (const char* name : kPlatoonVehicles) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
        builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    // Off-grid check period: no check shares a timestamp with a periodic
    // of the preset (20 ms tasks, 500 ms self-model).
    policy.check_period = Duration::ms(247);
    builder.platoon_maneuvers(policy);
    builder
        .at(Duration::ms(100),
            [](scenario::Scenario& s) { (void)s.form_managed_platoon(); })
        .at(Duration::ms(600), [](scenario::Scenario& s) {
            auto& abilities = s.vehicle("beta").abilities();
            abilities.set_source_level(skills::caps::kV2vLink, 0.0);
            abilities.set_source_level(skills::acc::kRadar, 0.0);
            abilities.propagate();
        });
    auto scenario = builder.build();
    scenario->run(Duration::sec(2), num_domains);

    RunFingerprint fp = kernel_counters(*scenario);
    for (const char* name : kPlatoonVehicles) {
        auto& v = scenario->vehicle(name);
        std::string s = v.report().str();
        s += "| follow=" +
             std::to_string(v.abilities().level(skills::caps::kPlatoonFollow));
        s += "\n" + trace_fingerprint(v.rte().can_bus("can_sense").trace());
        s += trace_fingerprint(v.rte().can_bus("can_act").trace());
        fp.vehicles.push_back(std::move(s));
    }
    std::string platoon_state = "members:";
    for (const auto& name : scenario->platoon().member_names()) {
        platoon_state += " " + name;
    }
    platoon_state += " detached:";
    for (const auto& m : scenario->detached_members()) {
        platoon_state += " " + m.id;
    }
    for (const auto& record : scenario->platoon().history()) {
        platoon_state += "\n" + record.str();
    }
    fp.v2v = std::move(platoon_state);
    return fp;
}

TEST(ShardedDeterminism, ManeuverScenarioReproducesPerDomainCount) {
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint first = run_maneuver_platoon(domains, 4242);
        const RunFingerprint second = run_maneuver_platoon(domains, 4242);
        EXPECT_EQ(first, second) << "non-reproducible at domains=" << domains;
    }
}

TEST(ShardedDeterminism, ManeuverScenarioIdenticalAcrossDomainCounts) {
    // Golden hash of the seed-4242 maneuver run: reports, follow levels, CAN
    // traces, platoon membership and maneuver history, and the event count.
    constexpr std::uint64_t kGolden = 0xada4b4a054165cf8ULL;
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint fp = run_maneuver_platoon(domains, 4242);
        ASSERT_EQ(fp.vehicles.size(), 3u);
        EXPECT_EQ(golden_hash(fp), kGolden) << "domains=" << domains;
        // And the degradation actually triggered the maneuver we claim to test.
        EXPECT_NE(fp.v2v.find("split(beta)"), std::string::npos) << fp.v2v;
    }
}

TEST(ShardedDeterminism, RunKnobCrossChecksThePartition) {
    scenario::ScenarioBuilder builder(7);
    builder.domains(2);
    declare_platoon_vehicle(builder, "solo");
    auto scenario = builder.build();
    EXPECT_EQ(scenario->num_domains(), 2u);
    EXPECT_THROW(scenario->run(Duration::ms(1), 4), sa::ContractViolation);
    EXPECT_NO_THROW(scenario->run(Duration::ms(1), 2));
    EXPECT_NO_THROW(scenario->run(Duration::ms(2)));
}

// --- logging from several vehicles ------------------------------------------------

TEST(ShardedLog, StormsLoggedFromBothDomainsReachOneSink) {
    // Fault injection (and the coordinators reacting to it) log from
    // vehicles declared on two domains at the same simulated instant; every
    // line reaches the one sink.
    std::vector<std::string> lines; // written only under Log's sink mutex
    const LogLevel previous = Log::level();
    Log::set_level(LogLevel::Warn);
    Log::set_sink([&lines](LogLevel, const std::string& line) { lines.push_back(line); });
    {
        scenario::ScenarioBuilder builder(2026);
        builder.domains(2);
        for (const char* name : kPlatoonVehicles) {
            declare_platoon_vehicle(builder, name);
        }
        auto scenario = builder.build();
        for (const char* name : kPlatoonVehicles) {
            scenario::Vehicle& v = scenario->vehicle(name);
            (void)v.simulator().schedule(Duration::ms(100), [&v] {
                v.rte().access().grant("perception", "brake_cmd");
                v.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                         Duration::ms(2));
            });
        }
        scenario->run(Duration::ms(500));
    }
    Log::set_sink(nullptr);
    Log::set_level(previous);

    const auto storms = std::count_if(lines.begin(), lines.end(), [](const std::string& l) {
        return l.starts_with("fault injected: compromise of perception");
    });
    EXPECT_EQ(storms, 3);
}

} // namespace
