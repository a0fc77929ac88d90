// Multi-hop relay payoff, end to end: a four-vehicle platoon strung out
// along the road at 120 m spacing under a 150 m radio — the leader and the
// tail are 360 m apart, far beyond direct radio range, so the leader's CAMs
// reach the tail only if the two middle vehicles relay them. The same
// scenario runs twice:
//
//   relaying ON  (beacon TTL 4): announcements flood hop by hop, every stack
//     learns a route to every other, the leader's unicast CAMs cross the
//     mesh as a chain of addressed relays, and the platoon holds formation.
//   relaying OFF (beacon TTL 1): announcements die after one hop, the
//     leader has no route to the tail, the tail hears nothing — the watchdog
//     declares its V2V link dead and the maneuver engine splits the platoon.
//
// Each mode prints the neighbor tables, the chosen routes and a one-line
// verdict JSON.
//
// Build & run:  ./build/examples/mesh_relay

#include <cstdio>
#include <string>

#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"

using namespace sa;
using sim::Duration;

namespace {

constexpr const char* kVehicles[] = {"lead", "mid1", "mid2", "tail"};
constexpr double kSpacingM = 120.0;
constexpr double kRangeM = 150.0;

struct RelayVerdict {
    std::string tables;  ///< concatenated neighbor tables + chosen routes
    std::string verdict; ///< one-line JSON: delivery counts + platoon state
    bool held = false;   ///< tail still a member at the end
};

RelayVerdict run_once(bool relaying) {
    scenario::ScenarioBuilder builder(2050);
    for (const char* name : kVehicles) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
        builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    builder.v2v({.latency = Duration::ms(20), .range_m = kRangeM});
    int slot = 0;
    for (const char* name : kVehicles) {
        mesh::MeshConfig config;
        config.beacon_ttl = relaying ? 4 : 1; // TTL 1: nobody forwards
        config.beacon_phase = Duration::us(913 * slot + 11);
        builder.vehicle(name).mesh(config, kSpacingM * slot);
        ++slot;
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = Duration::ms(247);
    builder.platoon_maneuvers(policy);

    builder.at(Duration::ms(100), [](scenario::Scenario& s) {
        (void)s.form_managed_platoon();
    });
    // The leader unicasts a CAM toward the tail every 200 ms.
    for (int k = 0; k < 5; ++k) {
        builder.at(Duration::ms(600 + 200 * k), [](scenario::Scenario& s) {
            (void)s.mesh("lead").send_cam("tail");
        });
    }
    // Watchdog: if none of the leader's CAMs reached the tail, its V2V link
    // is effectively dead — the degradation drops the follow ability and the
    // maneuver engine splits the platoon at the tail.
    builder.at(Duration::ms(1600), [](scenario::Scenario& s) {
        if (s.mesh("tail").cams_received() == 0) {
            auto& abilities = s.vehicle("tail").abilities();
            abilities.set_source_level(skills::caps::kV2vLink, 0.0);
            abilities.propagate();
        }
    });

    auto scenario = builder.build();
    scenario->run(Duration::ms(2500));

    RelayVerdict out;
    for (const char* name : kVehicles) {
        out.tables += scenario->mesh(name).table_str();
    }
    std::string members;
    for (const auto& name : scenario->platoon().member_names()) {
        members += members.empty() ? name : "," + name;
    }
    std::string detached;
    for (const auto& member : scenario->detached_members()) {
        detached += detached.empty() ? member.id : "," + member.id;
    }
    const auto& tail = scenario->mesh("tail");
    out.held = members.find("tail") != std::string::npos;
    out.verdict = sa::format(
        "{\"relaying\":%s,\"cams_sent\":%llu,\"cams_received\":%llu,"
        "\"cams_relayed\":%llu,\"members\":\"%s\",\"detached\":\"%s\","
        "\"held\":%s}",
        relaying ? "true" : "false",
        static_cast<unsigned long long>(scenario->mesh("lead").cams_sent()),
        static_cast<unsigned long long>(tail.cams_received()),
        static_cast<unsigned long long>(scenario->mesh("mid1").cams_relayed() +
                                        scenario->mesh("mid2").cams_relayed()),
        members.c_str(), detached.c_str(), out.held ? "true" : "false");
    return out;
}

} // namespace

int main() {
    std::printf("four-vehicle platoon, %.0fm spacing, %.0fm radio range:\n"
                "leader -> tail is %.0fm, only reachable through relays\n\n",
                kSpacingM, kRangeM, 3 * kSpacingM);

    bool ok = true;
    for (const bool relaying : {true, false}) {
        const RelayVerdict one = run_once(relaying);
        std::printf("relaying %s:\n%s  %s\n", relaying ? "ON " : "OFF",
                    one.tables.c_str(), one.verdict.c_str());
        if (relaying && !one.held) {
            std::printf("ERROR: platoon split despite relaying\n");
            ok = false;
        }
        if (!relaying && one.held) {
            std::printf("ERROR: platoon held without a relay path\n");
            ok = false;
        }
        std::printf("\n");
    }

    std::printf("mesh_relay %s.\n", ok ? "finished" : "FAILED");
    return ok ? 0 : 1;
}
