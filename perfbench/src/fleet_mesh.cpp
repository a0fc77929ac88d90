// fleet_mesh: a 128-vehicle fleet on a range-limited V2V medium, every
// vehicle with a MeshStack, partitioned over 2 ECU domains.
//
// Most vehicles have the light shape of bench/fleet_sweep.cpp (one zone ECU,
// two fixed-cost periodic tasks); four are dual-bus preset vehicles, two per
// domain, which take a seeded message-storm compromise each, so the CAN
// chain, the monitors and the coordinator run but stay nearly idle next to
// the mesh. Announcements flood kBeaconTtl hops and every vehicle sends a
// multi-hop send_cam unicast every kCamPeriod from a periodic on its home
// domain; those callbacks run on the domain worker threads and record their
// spans into per-domain buffers. Sharded-kernel windows, barriers and
// mailboxes, Medium fan-out and the mesh tables do most of the work.
//
// Two domains: 2 workers plus the coordinator thread. The benchmark pins
// itself to one CPU (main.cpp), so the three threads time-share it and wall
// time measures the work of the sharded path — windows, barrier hand-offs,
// mailboxes — rather than a parallel speed-up that, on a shared 4-vCPU host,
// read anywhere from 1.7 to 3.0 k vehicle-s/s across identical runs.

#include <algorithm>
#include <deque>
#include <map>

#include "probes.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "util/string_util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sa;

constexpr std::size_t kVehicles = 128;
constexpr std::size_t kDomains = 2;
constexpr sim::Duration kSlice = sim::Duration::ms(100);
constexpr std::size_t kSlices = 100; ///< 10 s simulated per episode
constexpr double kSpacingM = 100.0;  ///< plus a seeded jitter of up to 30 m
constexpr double kRangeM = 250.0;
constexpr std::uint32_t kBeaconTtl = 4;
constexpr sim::Duration kCamPeriod = sim::Duration::ms(500);
constexpr std::size_t kCamDestinations = 4; ///< rotated per vehicle, 1-3 hops away

/// One vehicle's periodic send_cam sender. Runs on the vehicle's domain
/// worker; records its span into that domain's tracer buffer.
struct CamSender {
    mesh::MeshStack* stack = nullptr;
    std::vector<std::string> destinations;
    std::size_t next = 0;
    Tracer* tracer = nullptr;
    std::size_t domain = 0;

    void fire() {
        const std::string& destination = destinations[next++ % destinations.size()];
        if (!tracer->active()) {
            (void)stack->send_cam(destination);
            return;
        }
        const std::int64_t start = wall_ns();
        (void)stack->send_cam(destination);
        tracer->record_on_domain(domain, "mesh.send_cam", start, wall_ns());
    }
};

class FleetMesh final : public Workload {
public:
    explicit FleetMesh(std::uint64_t variant);

    [[nodiscard]] std::size_t domains() const override { return kDomains; }
    Episode run_episode(Tracer& tracer, RunTotals& totals) override;

private:
    void declare(scenario::ScenarioBuilder& builder) const;

    std::uint64_t scenario_seed_ = 0;
    std::uint64_t medium_seed_ = 0;
    std::vector<std::string> names_;
    std::vector<double> positions_;
    std::vector<bool> dual_bus_;
    std::vector<std::string> dual_bus_names_;
    std::map<std::string, std::size_t> domain_of_;
    std::vector<std::vector<std::string>> destinations_;
    std::vector<sim::Duration> cam_phase_;
    std::vector<Incident> schedule_;
};

FleetMesh::FleetMesh(std::uint64_t variant) : dual_bus_(kVehicles, false) {
    SplitMix rng(0xf1ee'0000 + variant);
    scenario_seed_ = rng.next();
    medium_seed_ = rng.next();
    for (std::size_t i = 0; i < kVehicles; ++i) {
        names_.push_back(format("fv%03zu", i));
        domain_of_[names_.back()] = i % kDomains;
        positions_.push_back(kSpacingM * static_cast<double>(i) +
                             static_cast<double>(rng.below(31)));
        cam_phase_.push_back(sim::Duration::us(1000 + static_cast<std::int64_t>(
                                                          rng.below(490'000)) + 7));
    }
    // Two dual-bus vehicles per domain (vehicle i runs on domain i % 2), away
    // from the ends of the road, each with a storm.
    while (dual_bus_names_.size() < 4) {
        const std::size_t i = 16 + rng.below(96);
        if (dual_bus_[i] || (i % kDomains) != dual_bus_names_.size() % kDomains) {
            continue;
        }
        dual_bus_[i] = true;
        dual_bus_names_.push_back(names_[i]);
        schedule_.push_back(
            draw_incident(rng, IncidentKind::Storm, names_[i], 10 + rng.below(70)));
    }
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const Incident& a, const Incident& b) { return a.slice < b.slice; });
    for (std::size_t i = 0; i < kVehicles; ++i) {
        std::vector<std::string> destinations;
        while (destinations.size() < kCamDestinations) {
            const auto hops = static_cast<std::int64_t>(1 + rng.below(3));
            const std::int64_t j =
                static_cast<std::int64_t>(i) + (rng.below(2) == 0 ? -hops : hops);
            if (j >= 0 && j < static_cast<std::int64_t>(kVehicles)) {
                destinations.push_back(names_[static_cast<std::size_t>(j)]);
            }
        }
        destinations_.push_back(std::move(destinations));
    }
}

void FleetMesh::declare(scenario::ScenarioBuilder& builder) const {
    v2v::MediumConfig medium;
    medium.loss_probability = 0.02;
    medium.latency = sim::Duration::ms(20);
    medium.range_m = kRangeM;
    medium.fading = v2v::Fading::Linear;
    medium.seed = medium_seed_;
    builder.domains(kDomains).v2v(medium);

    rte::RtTaskConfig sense;
    sense.name = "sense";
    sense.priority = 1;
    sense.period = sim::Duration::ms(10);
    sense.wcet = sim::Duration::us(200);
    sense.bcet = sense.wcet;
    sense.randomize_exec = false;
    rte::RtTaskConfig fuse;
    fuse.name = "fuse";
    fuse.priority = 2;
    fuse.period = sim::Duration::ms(5);
    fuse.wcet = sim::Duration::us(300);
    fuse.bcet = fuse.wcet;
    fuse.randomize_exec = false;

    for (std::size_t i = 0; i < kVehicles; ++i) {
        mesh::MeshConfig stack;
        stack.beacon_ttl = kBeaconTtl;
        // Staggered off-grid phases, as in the campaign mesh topology.
        stack.beacon_phase = sim::Duration::us(913 * static_cast<std::int64_t>(i % 100) + 11);
        stack.speed_mps = 22.0;
        if (dual_bus_[i]) {
            scenario::presets::declare_dual_bus_platoon_vehicle(builder, names_[i]);
        } else {
            builder.vehicle(names_[i])
                .ecu({"zone", 1.0, 0.75, model::Asil::D, "cabin", "main"}, {1.0})
                .rt_task("zone", sense)
                .rt_task("zone", fuse);
        }
        builder.vehicle(names_[i]).domain(i % kDomains).mesh(stack, positions_[i]);
    }
}

Episode FleetMesh::run_episode(Tracer& tracer, RunTotals& totals) {
    Episode episode;
    std::vector<Incident> incidents = schedule_;
    ReactionProbe reactions(incidents);
    SenseActProbe latency;
    IngestTap ingests;
    // Declared before the scenario: its periodics point at the senders.
    std::deque<CamSender> senders;

    scenario::ScenarioBuilder builder(scenario_seed_);
    declare(builder);
    std::unique_ptr<scenario::Scenario> scenario;
    const std::int64_t setup_start = wall_ns();
    {
        Tracer::Scope span(tracer, "scenario.build");
        scenario = builder.build();
    }
    totals.setup_s.push_back(static_cast<double>(wall_ns() - setup_start) / 1e9);

    for (std::size_t i = 0; i < kVehicles; ++i) {
        auto& vehicle = scenario->vehicle(names_[i]);
        ingests.attach(vehicle);
        CamSender& sender = senders.emplace_back();
        sender.stack = &scenario->mesh(names_[i]);
        sender.destinations = destinations_[i];
        sender.tracer = &tracer;
        sender.domain = i % kDomains;
        vehicle.simulator().schedule_periodic(
            kCamPeriod, [&sender] { sender.fire(); }, cam_phase_[i]);
    }

    UnitMeter meter(false);
    const double vehicle_s = static_cast<double>(kVehicles) * kSlice.to_seconds();
    std::size_t next = 0;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
        const bool traced = begin_unit(tracer);
        meter.begin();
        {
            Tracer::UnitScope unit(tracer, unit_id());
            for (; next < incidents.size() && incidents[next].slice == slice; ++next) {
                auto& vehicle = scenario->vehicle(incidents[next].vehicle);
                schedule_incident(vehicle, incidents[next], tracer,
                                  domain_of_.at(incidents[next].vehicle));
            }
            Tracer::Scope span(tracer, "scenario.run_for");
            scenario->run_for(kSlice);
        }
        meter.end(vehicle_s, traced, totals);
        end_unit(tracer);
        reactions.collect(*scenario);
        latency.collect(*scenario, dual_bus_names_);
    }

    scenario::ScenarioReport report;
    {
        Tracer::Scope span(tracer, "scenario.report");
        report = scenario->report();
    }
    Fingerprint fp;
    fp.add(report.str());
    latency.fingerprint(fp);
    reactions.fingerprint(fp);
    Counters& c = episode.counters;
    for (const std::string& name : names_) {
        const mesh::MeshStack& stack = scenario->mesh(name);
        fp.add(stack.table_str());
        c["mesh.announces_relayed"] += static_cast<double>(stack.announces_relayed());
        c["mesh.cams_sent"] += static_cast<double>(stack.cams_sent());
        c["mesh.cams_relayed"] += static_cast<double>(stack.cams_relayed());
        c["mesh.cams_unroutable"] += static_cast<double>(stack.cams_unroutable());
        add_vehicle_counters(scenario->vehicle(name), c);
    }
    episode.fingerprints.push_back(hex64(fp.value()));

    const sim::ShardedKernel& kernel = scenario->kernel();
    c["sim.events"] = static_cast<double>(kernel.executed_events());
    c["sim.windows"] = static_cast<double>(kernel.windows());
    c["sim.cross_domain_events"] = static_cast<double>(kernel.cross_domain_events());
    c["mesh.transmissions"] = static_cast<double>(scenario->v2v().transmissions());
    c["mesh.deliveries"] = static_cast<double>(scenario->v2v().deliveries());
    c["mesh.losses"] = static_cast<double>(scenario->v2v().losses());
    c["monitor.ingests"] = static_cast<double>(ingests.total());
    finish_ratios(c);
    episode.detect_react_ms_p50 = reactions.median_ms();
    episode.sense_act_us_p99 = latency.p99_us();
    episode.units = kSlices;
    return episode;
}

} // namespace

std::unique_ptr<Workload> make_fleet_mesh(std::uint64_t variant) {
    return std::make_unique<FleetMesh>(variant);
}

} // namespace perfbench
