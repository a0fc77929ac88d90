// Stress determinism suite (ctest label `stress`): scenarios larger than the
// per-subsystem determinism tests, with membership and topology changes at
// script barriers, declared at 1, 2 and 4 ECU domains. Every observable is
// folded into a golden hash that each domain count must reproduce.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "campaign/verdict.hpp"
#include "scenario/scenario_builder.hpp"
#include "util/string_util.hpp"

namespace {

using namespace sa;
using sim::Duration;

constexpr int kMeshVehicles = 64;

std::string vehicle_name(int i) { return format("m%02d", i); }

/// 64 mesh vehicles at ~100 m spacing on a 250 m fading radio, unicasting
/// CAMs across the fleet from script barriers while other barriers move a
/// third of the fleet along the track (and later swap ends), so routes and
/// neighbor tables keep re-forming. Returns every mesh table, every stack's
/// counters and the medium's counters.
std::string run_moving_fleet(std::size_t domains) {
    scenario::ScenarioBuilder builder(4242);
    builder.domains(domains);
    builder.v2v({.loss_probability = 0.05,
                 .latency = Duration::ms(20),
                 .range_m = 250.0,
                 .fading = v2v::Fading::Linear,
                 .seed = 4242});
    for (int i = 0; i < kMeshVehicles; ++i) {
        mesh::MeshConfig config;
        config.beacon_ttl = 4;
        config.beacon_phase = Duration::us(913 * i + 11);
        builder.vehicle(vehicle_name(i))
            .ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
            .mesh(config, 100.0 * i + static_cast<double>((i * 37) % 30));
    }
    for (int k = 0; k < 20; ++k) {
        builder.at(Duration::ms(300 + 150 * k), [k](scenario::Scenario& s) {
            (void)s.mesh(vehicle_name((k * 13) % kMeshVehicles))
                .send_cam(vehicle_name((k * 13 + 3) % kMeshVehicles));
        });
    }
    builder.at(Duration::ms(1000), [](scenario::Scenario& s) {
        for (int i = 0; i < kMeshVehicles; i += 3) {
            const std::string name = vehicle_name(i);
            s.v2v().move(name, s.v2v().position(name) + 180.0);
        }
    });
    builder.at(Duration::ms(2000), [](scenario::Scenario& s) {
        for (int i = 0; i < 8; ++i) {
            const std::string head = vehicle_name(i);
            const std::string tail = vehicle_name(kMeshVehicles - 1 - i);
            const double at_head = s.v2v().position(head);
            s.v2v().move(head, s.v2v().position(tail));
            s.v2v().move(tail, at_head);
        }
    });
    auto scenario = builder.build();
    scenario->run(Duration::ms(3500), domains);

    std::string fp;
    std::uint64_t cams_received = 0;
    for (int i = 0; i < kMeshVehicles; ++i) {
        const mesh::MeshStack& stack = scenario->mesh(vehicle_name(i));
        cams_received += stack.cams_received();
        fp += stack.table_str();
        fp += format("  sent=%llu relayed=%llu cams=%llu/%llu/%llu/%llu\n",
                     static_cast<unsigned long long>(stack.announces_sent()),
                     static_cast<unsigned long long>(stack.announces_relayed()),
                     static_cast<unsigned long long>(stack.cams_sent()),
                     static_cast<unsigned long long>(stack.cams_received()),
                     static_cast<unsigned long long>(stack.cams_relayed()),
                     static_cast<unsigned long long>(stack.cams_unroutable()));
    }
    const v2v::Medium& medium = scenario->v2v();
    fp += format("medium %llu/%llu/%llu\n",
                 static_cast<unsigned long long>(medium.transmissions()),
                 static_cast<unsigned long long>(medium.deliveries()),
                 static_cast<unsigned long long>(medium.losses()));
    fp += format("cams received %llu\n", static_cast<unsigned long long>(cams_received));
    return fp;
}

TEST(MeshDeterminism, LargeFleetWithMovesAcrossDomainCounts) {
    // Golden hash of every mesh table, stack counter and medium counter.
    constexpr std::uint64_t kGolden = 0xfc482c661a4281dbULL;
    for (std::size_t domains : {1u, 2u, 4u}) {
        const std::string fp = run_moving_fleet(domains);
        EXPECT_EQ(campaign::fnv1a64(fp), kGolden) << "domains=" << domains;
        // Not vacuous: multi-hop routes formed and CAMs crossed the mesh.
        EXPECT_NE(fp.find("hops=3"), std::string::npos) << fp;
        EXPECT_EQ(fp.find("cams received 0\n"), std::string::npos) << fp;
    }
}

} // namespace
