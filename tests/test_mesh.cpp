// Tests for the sa::mesh subsystem: the v2v::Medium radio substrate
// (counter invariants, seeded loss reproducibility, range/fading physics)
// and the mesh::MeshStack protocol endpoint (neighbor tables, TTL'd
// announcements with selective on-announcement, policy-based multi-hop CAM
// relay) — plus the determinism suite: neighbor tables, chosen routes and
// relay counters reproduce byte-identically at 1, 2 and 4 ECU domains.
//
// Every domain's window runs on the calling thread; the membership guards
// tested here keep a run byte-identical across domain counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mesh/mesh_stack.hpp"
#include "sim/sharded_kernel.hpp"
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
        medium.attach(name, sim, [](const v2v::Frame&, double) {}, position);
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
    medium.attach("a", sim, [](const v2v::Frame&, double) {});
    medium.attach("b", sim, [&](const v2v::Frame&, double) { ++b_rx; });
    medium.attach("c", sim, [&](const v2v::Frame&, double) { ++c_rx; });
    v2v::Frame frame = v2v::Medium::cam("a", 0.0, 20.0);
    frame.destination = "c";
    frame.next_hop = "b";
    frame.ttl = 4;
    medium.transmit(frame);
    sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(b_rx, 1);
    EXPECT_EQ(c_rx, 0); // addressed to b only, even though c is in range
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
    medium.attach("tx", sim, [](const v2v::Frame&, double) {});
    medium.attach("rx", sim, [](const v2v::Frame&, double) {});
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
                names[i], medium, sim, config, 120.0 * i));
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
    mesh::MeshStack a("a", medium, sim, {});
    {
        mesh::MeshStack b("b", medium, sim,
                          {.beacon_phase = Duration::us(913)});
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
    mesh::MeshStack a("a", medium, sim, a_config, 0.0);
    mesh::MeshStack r1("r1", medium, sim,
                       {.beacon_phase = Duration::us(913)}, 40.0);
    mesh::MeshStack r2("r2", medium, sim,
                       {.beacon_phase = Duration::us(1826)}, 130.0);
    mesh::MeshStack d("d", medium, sim,
                      {.beacon_phase = Duration::us(2739)}, 180.0);
    sim.run_until(Time(Duration::sec(1).count_ns()));
    const auto hop = a.next_hop("d");
    ASSERT_TRUE(hop.has_value());
    EXPECT_EQ(*hop, "r1");
}

// --- determinism across domain counts -----------------------------------------------

/// A 4-stack chain (0/120/240/360 m, 150 m radio, 10% base loss) sharded
/// round-robin across the kernel's domains, with the head unicasting CAMs to
/// the tail mid-run. Returns every observable: neighbor tables, chosen
/// routes, per-stack protocol counters and the medium's global counters.
std::string run_mesh_fingerprint(std::size_t num_domains, std::uint64_t seed) {
    sim::ShardedKernel kernel(num_domains, seed);
    v2v::Medium medium(kernel.domain(0), {.loss_probability = 0.1,
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
            names[i], medium, kernel.domain(i % num_domains), config,
            120.0 * static_cast<double>(i)));
    }
    // The head unicasts toward the tail every 250 ms from its own domain.
    kernel.domain(0).schedule_periodic(
        Duration::ms(250), [&head = *stacks.front()] { (void)head.send_cam("d"); },
        Duration::ms(100));
    kernel.run_until(Time(Duration::sec(2).count_ns()));

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
    for (std::size_t domains : {1u, 2u, 4u}) {
        const std::string first = run_mesh_fingerprint(domains, 7001);
        const std::string again = run_mesh_fingerprint(domains, 7001);
        EXPECT_EQ(first, again) << "non-reproducible at domains=" << domains;
    }
}

TEST(MeshDeterminism, DomainCountDoesNotChangeTablesRoutesOrTraffic) {
    const std::string one = run_mesh_fingerprint(1, 7001);
    const std::string two = run_mesh_fingerprint(2, 7001);
    const std::string four = run_mesh_fingerprint(4, 7001);
    EXPECT_EQ(one, two) << "mesh state diverged between 1 and 2 domains";
    EXPECT_EQ(one, four) << "mesh state diverged between 1 and 4 domains";
    // The fingerprint is not vacuous: routes formed and CAMs crossed hops.
    EXPECT_NE(one.find("route d via b"), std::string::npos) << one;
    EXPECT_NE(one.find("nbr"), std::string::npos) << one;
}

// --- membership quiescence (regression: mid-window mutation is loud) ----------------

TEST(MeshStack, MidRunConstructionOnAShardedKernelIsRejected) {
    // Building a MeshStack attaches to the medium; from inside a sharded
    // window that is the same mid-window membership mutation
    // Medium::attach rejects. The stack must not half-construct.
    sim::ShardedKernel kernel(2, 11);
    v2v::Medium medium(kernel.domain(0), {.latency = Duration::ms(20)});
    bool threw = false;
    kernel.domain(1).schedule(Duration::ms(1), [&] {
        try {
            mesh::MeshStack late("late", medium, kernel.domain(1));
        } catch (const sa::ContractViolation&) {
            threw = true;
        }
    });
    kernel.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_TRUE(threw);
    EXPECT_FALSE(medium.attached("late"));
}

} // namespace
