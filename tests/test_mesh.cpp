// Tests for the sa::mesh subsystem: the v2v::Medium radio substrate
// (counter invariants, seeded loss reproducibility, range/fading physics)
// and the mesh::MeshStack protocol endpoint (neighbor tables, TTL'd
// announcements with selective on-announcement, policy-based multi-hop CAM
// relay) — plus the determinism suite: neighbor tables, chosen routes and
// relay counters reproduce a golden hash.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/verdict.hpp"
#include "mesh/mesh_stack.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;

// --- medium counter invariants ------------------------------------------------------

TEST(Medium, BroadcastCountersBalance) {
    // For pure broadcasts (no addressed next hop) every transmission fans
    // out to every other member, and each copy is either delivered or lost:
    //   transmissions x (members - 1) == deliveries + losses.
    sim::Simulator sim;
    v2v::Medium medium(sim, {.loss_probability = 0.3,
                             .latency = Duration::ms(1),
                             .range_m = 300.0,
                             .fading = v2v::Fading::Linear});
    const char* const names[] = {"a", "b", "c", "d"};
    double position = 0.0;
    for (const char* name : names) {
        medium.attach(name, [](const v2v::Frame&, double) {}, position);
        position += 90.0;
    }
    for (int i = 0; i < 100; ++i) {
        v2v::Frame frame = v2v::Medium::cam(names[i % 4], 0.0, 20.0);
        frame.seq = static_cast<std::uint32_t>(i);
        medium.transmit(frame);
    }
    sim.run_until(Time(Duration::sec(1).count_ns()));
    EXPECT_EQ(medium.transmissions(), 100u);
    EXPECT_EQ(medium.transmissions() * 3, medium.deliveries() + medium.losses());
    EXPECT_GT(medium.deliveries(), 0u);
    EXPECT_GT(medium.losses(), 0u);
}

TEST(Medium, AddressedRelayReachesOnlyTheNamedHop) {
    sim::Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(1)});
    int b_rx = 0;
    int c_rx = 0;
    medium.attach("a", [](const v2v::Frame&, double) {});
    medium.attach("b", [&](const v2v::Frame&, double) { ++b_rx; });
    medium.attach("c", [&](const v2v::Frame&, double) { ++c_rx; });
    v2v::Frame frame = v2v::Medium::cam("a", 0.0, 20.0);
    frame.destination = "c";
    frame.next_hop = "b";
    frame.ttl = 4;
    medium.transmit(frame);
    sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(b_rx, 1);
    EXPECT_EQ(c_rx, 0); // addressed to b only, even though c is in range
}

// --- range index: equivalence with a full scan of the membership -------------------

/// One delivered copy: (delivery time, receiver, transmitter, seq).
using DeliveryRecord = std::tuple<std::int64_t, std::string, std::string, std::uint32_t>;

/// Drives one medium through seeded rounds of membership churn. Every round
/// broadcasts once from every member at the same instant, so same-time
/// delivery order is part of what is compared.
struct IndexRig {
    sim::Simulator sim;
    v2v::Medium medium;
    std::vector<DeliveryRecord> log;
    std::mt19937_64 rng;
    int next_name = 0;
    std::uint32_t seq = 0;
    std::uint64_t copies = 0; ///< broadcasts x (members - 1), summed

    IndexRig(v2v::MediumConfig config, std::uint64_t seed)
        : medium(sim, config), rng(seed) {
        for (int i = 0; i < 40; ++i) {
            attach_new();
        }
    }

    /// Positions on a coarse grid (duplicates and pairs at exactly the range
    /// are common) or anywhere on the track (rounding at the boundary).
    double draw_position() {
        if (rng() % 2 == 0) {
            return 12.5 * static_cast<double>(rng() % 80);
        }
        return static_cast<double>(rng() % 1000000) / 1000.0 - 5.0;
    }

    void attach_new() {
        const std::string name = "n" + std::to_string(next_name++);
        medium.attach(
            name,
            [this, name](const v2v::Frame& frame, double) {
                log.emplace_back(sim.now().ns(), name, frame.transmitter, frame.seq);
            },
            draw_position());
    }

    /// Moves, detaches and attaches a few members (between runs).
    void churn() {
        const std::vector<std::string> members = medium.members();
        for (const std::string& name : members) {
            switch (rng() % 6) {
            case 0: medium.move(name, draw_position()); break;
            case 1: medium.detach(name); break;
            default: break;
            }
        }
        for (std::uint64_t k = rng() % 6; k > 0; --k) {
            attach_new();
        }
    }

    /// Broadcasts from every member; returns the oracle's delivery log for
    /// the round, built from members(), position() and loss_at() alone.
    std::vector<DeliveryRecord> broadcast_round() {
        const std::vector<std::string> members = medium.members();
        const std::int64_t at = (sim.now() + medium.config().latency).ns();
        std::vector<DeliveryRecord> expected;
        copies += members.size() * (members.size() - 1);
        for (const std::string& tx : members) {
            v2v::Frame frame = v2v::Medium::cam(tx, 0.0, 0.0);
            frame.seq = seq++;
            for (const std::string& rx : members) {
                const double d = std::abs(medium.position(rx) - medium.position(tx));
                if (rx != tx && medium.loss_at(d) < 1.0) {
                    expected.emplace_back(at, rx, tx, frame.seq);
                }
            }
            medium.transmit(frame);
        }
        sim.run_until(Time(sim.now().ns() + Duration::ms(5).count_ns()));
        return expected;
    }
};

TEST(Medium, RangeIndexMatchesFullScan) {
    for (const double range : {0.0, 12.5, 100.0, 0.3, 250.0}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            IndexRig rig({.latency = Duration::ms(1), .range_m = range}, seed);
            for (int round = 0; round < 12; ++round) {
                rig.log.clear();
                const std::vector<DeliveryRecord> expected = rig.broadcast_round();
                ASSERT_EQ(rig.log, expected)
                    << "range " << range << " seed " << seed << " round " << round;
                rig.churn();
            }
            EXPECT_EQ(rig.medium.deliveries() + rig.medium.losses(), rig.copies);
        }
    }
    // Under fading the draws decide, but every broadcast still accounts for
    // every other member: transmissions x (members - 1) per round.
    IndexRig rig({.loss_probability = 0.2,
                  .latency = Duration::ms(1),
                  .range_m = 100.0,
                  .fading = v2v::Fading::Linear},
                 17);
    for (int round = 0; round < 12; ++round) {
        (void)rig.broadcast_round();
        rig.churn();
    }
    EXPECT_EQ(rig.medium.deliveries() + rig.medium.losses(), rig.copies);
    EXPECT_GT(rig.medium.deliveries(), 0u);
    EXPECT_GT(rig.medium.losses(), 0u);
}

TEST(Medium, InFlightFrameMissesADetachedEndpoint) {
    sim::Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(10)});
    int old_b = 0;
    int new_b = 0;
    int c_rx = 0;
    medium.attach("a", [](const v2v::Frame&, double) {});
    medium.attach("b", [&](const v2v::Frame&, double) { ++old_b; });
    medium.attach("c", [&](const v2v::Frame&, double) { ++c_rx; });
    medium.transmit(v2v::Medium::cam("a", 0.0, 0.0));
    EXPECT_EQ(medium.deliveries(), 2u);

    sim.run_until(Time(Duration::ms(5).count_ns())); // both copies in flight
    medium.detach("b");
    // A new endpoint under the same name is a different attachment: the
    // frame addressed to the old one is not handed to it.
    medium.attach("b", [&](const v2v::Frame&, double) { ++new_b; });
    sim.run_until(Time(Duration::ms(20).count_ns()));
    EXPECT_EQ(old_b, 0);
    EXPECT_EQ(new_b, 0);
    EXPECT_EQ(c_rx, 1);
    // The counters are what transmit() counted; nothing is re-counted.
    EXPECT_EQ(medium.transmissions(), 1u);
    EXPECT_EQ(medium.deliveries(), 2u);
    EXPECT_EQ(medium.losses(), 0u);

    // Frames sent after the re-attach reach the new endpoint.
    v2v::Frame again = v2v::Medium::cam("a", 0.0, 0.0);
    again.seq = 1;
    medium.transmit(again);
    sim.run_until(Time(Duration::ms(40).count_ns()));
    EXPECT_EQ(new_b, 1);
    EXPECT_EQ(c_rx, 2);
}

// --- seeded loss reproducibility ----------------------------------------------------

struct LossTally {
    std::uint64_t deliveries = 0;
    std::uint64_t losses = 0;
    bool operator==(const LossTally&) const = default;
};

LossTally run_lossy(std::uint64_t medium_seed) {
    sim::Simulator sim;
    v2v::Medium medium(sim, {.loss_probability = 0.5,
                             .latency = Duration::ms(1),
                             .seed = medium_seed});
    medium.attach("tx", [](const v2v::Frame&, double) {});
    medium.attach("rx", [](const v2v::Frame&, double) {});
    for (int i = 0; i < 500; ++i) {
        v2v::Frame frame = v2v::Medium::cam("tx", 0.0, 0.0);
        frame.seq = static_cast<std::uint32_t>(i);
        medium.transmit(frame);
    }
    sim.run_until(Time(Duration::sec(1).count_ns()));
    return {medium.deliveries(), medium.losses()};
}

TEST(Medium, LossDrawsReproduceFromTheSeed) {
    const LossTally first = run_lossy(99);
    const LossTally again = run_lossy(99);
    EXPECT_EQ(first, again);
    const LossTally other = run_lossy(100);
    EXPECT_NE(first, other); // a different seed re-rolls the channel
    EXPECT_EQ(other.deliveries + other.losses, 500u);
}

// --- mesh stack: neighbor discovery and multi-hop routing ---------------------------

/// A range-limited chain a(0) - b(120) - c(240) with a 150 m radio: the ends
/// only reach each other through b.
struct ChainRig {
    sim::Simulator sim;
    v2v::Medium medium{sim, {.latency = Duration::ms(5), .range_m = 150.0}};
    std::vector<std::unique_ptr<mesh::MeshStack>> stacks;

    explicit ChainRig(std::uint32_t beacon_ttl = 4) {
        const char* const names[] = {"a", "b", "c"};
        for (int i = 0; i < 3; ++i) {
            mesh::MeshConfig config;
            config.beacon_ttl = beacon_ttl;
            config.beacon_phase = Duration::us(913 * i + 11);
            stacks.push_back(std::make_unique<mesh::MeshStack>(
                names[i], medium, config, 120.0 * i));
        }
    }

    mesh::MeshStack& stack(int i) { return *stacks[static_cast<std::size_t>(i)]; }
    void run(Duration d) { sim.run_until(Time(sim.now().ns() + d.count_ns())); }
};

TEST(MeshStack, NeighborTablesSeeOnlyNodesInRange) {
    ChainRig rig;
    rig.run(Duration::sec(1));
    EXPECT_TRUE(rig.stack(0).neighbors().contains("b"));
    EXPECT_FALSE(rig.stack(0).neighbors().contains("c")); // 240 m > 150 m range
    EXPECT_TRUE(rig.stack(1).neighbors().contains("a"));
    EXPECT_TRUE(rig.stack(1).neighbors().contains("c"));
    EXPECT_TRUE(rig.stack(2).neighbors().contains("b"));
    EXPECT_FALSE(rig.stack(2).neighbors().contains("a"));
    // RSSI estimates are deterministic log-distance values.
    const auto& b_seen_by_a = rig.stack(0).neighbors().at("b");
    EXPECT_NEAR(b_seen_by_a.rssi_dbm, v2v::Medium::rssi_at(120.0), 0.01);
    EXPECT_NEAR(b_seen_by_a.prr, 1.0, 1e-9); // clean channel: no seq gaps
}

TEST(MeshStack, AnnouncementsDiscoverMultiHopRoutes) {
    ChainRig rig;
    rig.run(Duration::sec(1));
    // a cannot hear c directly, but b's relayed announcement proves the path.
    const auto hop = rig.stack(0).next_hop("c");
    ASSERT_TRUE(hop.has_value());
    EXPECT_EQ(*hop, "b");
    EXPECT_GT(rig.stack(1).announces_relayed(), 0u);
}

TEST(MeshStack, UnicastCamIsRelayedHopByHop) {
    ChainRig rig;
    rig.run(Duration::sec(1));
    int c_payloads = 0;
    rig.stack(2).on_cam([&](const v2v::Frame& frame) {
        EXPECT_EQ(frame.origin, "a");
        EXPECT_EQ(frame.destination, "c");
        EXPECT_GE(frame.hops, 1u); // crossed at least the relay at b
        ++c_payloads;
    });
    ASSERT_TRUE(rig.stack(0).send_cam("c"));
    rig.run(Duration::ms(100));
    EXPECT_EQ(c_payloads, 1);
    EXPECT_EQ(rig.stack(1).cams_relayed(), 1u);
}

TEST(MeshStack, BeaconTtlOneKeepsAnnouncementsSingleHop) {
    ChainRig rig(/*beacon_ttl=*/1);
    rig.run(Duration::sec(1));
    // No relay budget: a never learns about c and nobody forwards announces.
    EXPECT_FALSE(rig.stack(0).next_hop("c").has_value());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(rig.stack(i).announces_relayed(), 0u);
    }
    EXPECT_FALSE(rig.stack(0).send_cam("c"));
    EXPECT_EQ(rig.stack(0).cams_unroutable(), 1u);
}

TEST(MeshStack, SilentNeighborsAgeOut) {
    sim::Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(5)});
    mesh::MeshStack a("a", medium, {});
    {
        mesh::MeshStack b("b", medium, {.beacon_phase = Duration::us(913)});
        sim.run_until(Time(Duration::sec(1).count_ns()));
        EXPECT_TRUE(a.neighbors().contains("b"));
    } // b detaches and falls silent
    sim.run_until(Time(Duration::sec(2).count_ns()));
    EXPECT_FALSE(a.neighbors().contains("b")); // neighbor_ttl (600 ms) passed
    EXPECT_FALSE(a.next_hop("b").has_value());
}

TEST(MeshStack, NextHopPolicyNamesRoundTrip) {
    for (const mesh::NextHopPolicy policy :
         {mesh::NextHopPolicy::HopCount, mesh::NextHopPolicy::Rssi,
          mesh::NextHopPolicy::Prr}) {
        mesh::NextHopPolicy parsed{};
        ASSERT_TRUE(
            mesh::next_hop_policy_from_string(mesh::to_string(policy), parsed));
        EXPECT_EQ(parsed, policy);
    }
    mesh::NextHopPolicy parsed{};
    EXPECT_FALSE(mesh::next_hop_policy_from_string("dijkstra", parsed));
}

TEST(MeshStack, RssiPolicyPrefersTheStrongerLink) {
    // Diamond: a(0) reaches relays r1(40) and r2(130); the far node d(180)
    // reaches both relays but not a. Under the RSSI policy a must route via
    // the much closer (stronger) r1.
    sim::Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(5), .range_m = 150.0});
    mesh::MeshConfig a_config;
    a_config.policy = mesh::NextHopPolicy::Rssi;
    mesh::MeshStack a("a", medium, a_config, 0.0);
    mesh::MeshStack r1("r1", medium, {.beacon_phase = Duration::us(913)}, 40.0);
    mesh::MeshStack r2("r2", medium, {.beacon_phase = Duration::us(1826)}, 130.0);
    mesh::MeshStack d("d", medium, {.beacon_phase = Duration::us(2739)}, 180.0);
    sim.run_until(Time(Duration::sec(1).count_ns()));
    const auto hop = a.next_hop("d");
    ASSERT_TRUE(hop.has_value());
    EXPECT_EQ(*hop, "r1");
}

// --- determinism ----------------------------------------------------------------------

/// A 4-stack chain (0/120/240/360 m, 150 m radio, 10% base loss) with the
/// head unicasting CAMs to the tail mid-run. Returns every observable:
/// neighbor tables, chosen routes, per-stack protocol counters and the
/// medium's global counters.
std::string run_mesh_fingerprint(std::uint64_t seed) {
    sim::Simulator sim(seed);
    v2v::Medium medium(sim, {.loss_probability = 0.1,
                             .latency = Duration::ms(20),
                             .range_m = 150.0,
                             .seed = seed});
    const char* const names[] = {"a", "b", "c", "d"};
    std::vector<std::unique_ptr<mesh::MeshStack>> stacks;
    for (std::size_t i = 0; i < 4; ++i) {
        mesh::MeshConfig config;
        config.beacon_ttl = 4;
        config.beacon_phase = Duration::us(913 * static_cast<int>(i) + 11);
        stacks.push_back(std::make_unique<mesh::MeshStack>(
            names[i], medium, config, 120.0 * static_cast<double>(i)));
    }
    // The head unicasts toward the tail every 250 ms.
    sim.schedule_periodic(
        Duration::ms(250), [&head = *stacks.front()] { (void)head.send_cam("d"); },
        Duration::ms(100));
    sim.run_until(Time(Duration::sec(2).count_ns()));

    std::string fp;
    for (const auto& stack : stacks) {
        fp += stack->table_str();
        fp += "  sent=" + std::to_string(stack->announces_sent());
        fp += " relayed=" + std::to_string(stack->announces_relayed());
        fp += " cams=" + std::to_string(stack->cams_sent()) + "/" +
              std::to_string(stack->cams_received()) + "/" +
              std::to_string(stack->cams_relayed()) + "/" +
              std::to_string(stack->cams_unroutable());
        fp += "\n";
    }
    fp += "medium " + std::to_string(medium.transmissions()) + "/" +
          std::to_string(medium.deliveries()) + "/" +
          std::to_string(medium.losses()) + "\n";
    return fp;
}

TEST(MeshDeterminism, SameSeedSameTablesPerDomainCount) {
    EXPECT_EQ(run_mesh_fingerprint(7001), run_mesh_fingerprint(7001));
}

TEST(MeshDeterminism, DomainCountDoesNotChangeTablesRoutesOrTraffic) {
    // Golden hash of the chain's fingerprint, the same the stacks produced
    // when they were spread over 1, 2 or 4 domains.
    const std::string fp = run_mesh_fingerprint(7001);
    EXPECT_EQ(campaign::fnv1a64(fp), 0x4bff99a2748315b4ULL) << fp;
    // The fingerprint is not vacuous: routes formed and CAMs crossed hops.
    EXPECT_NE(fp.find("route d via b"), std::string::npos) << fp;
    EXPECT_NE(fp.find("nbr"), std::string::npos) << fp;
}

} // namespace
