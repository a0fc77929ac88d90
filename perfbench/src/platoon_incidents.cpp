// platoon_incidents: dual-bus preset vehicles on the single-queue kernel
// under a seeded schedule of §V incidents.
//
// Every vehicle is presets::declare_dual_bus_platoon_vehicle extended with a
// thermal guard on both ECU zones and a learned monitor. Between slices the
// benchmark injects message-storm compromises and ambient-temperature steps
// through Vehicle::faults(), and submits runtime Vehicle::integrate() update
// requests that the MCC rejects, so they repeat without growing the system.
// CAN arbitration and gateways, RTE scheduling, monitor ingest, learned
// scoring and the coordinator do most of the work; the mesh and the sharded
// kernel do none.

#include <algorithm>

#include "model/contract_parser.hpp"
#include "probes.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "util/string_util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sa;

constexpr std::size_t kVehicles = 8;
/// A multiple of the 100 ms IDS window, so every storm starts at the same
/// phase of its window.
constexpr sim::Duration kSlice = sim::Duration::ms(200);
constexpr std::size_t kSlices = 100; ///< 20 s simulated per episode
/// A runtime integration request every this many slices, round-robin.
constexpr std::size_t kIntegrateEvery = 3;

/// Rejected by the security viewpoint: a level-0 client of brake_cmd, whose
/// contract asks for min_client_level 1. A rejected change leaves the
/// committed model and the running RTE untouched.
constexpr const char* kRejectedUpdate = R"(
    component infotainment {
      asil QM;
      security_level 0;
      task spam { wcet 500us; period 10ms; }
      requires service brake_cmd;
    }
)";

class PlatoonIncidents final : public Workload {
public:
    explicit PlatoonIncidents(std::uint64_t variant);

    Episode run_episode(Tracer& tracer, RunTotals& totals) override;

private:
    std::uint64_t scenario_seed_ = 0;
    std::vector<std::string> names_;
    std::vector<Incident> schedule_;
    model::ChangeRequest update_;
};

PlatoonIncidents::PlatoonIncidents(std::uint64_t variant) {
    SplitMix rng(0x91a7'0000 + variant);
    scenario_seed_ = rng.next();
    for (std::size_t i = 0; i < kVehicles; ++i) {
        names_.push_back(format("pv%02zu", i));
    }
    // One storm per vehicle and a thermal step on every other one, so storms
    // (reacted to at the end of their IDS window) stay the majority and the
    // median reaction time is a storm's. Thermal steps come early: the die
    // heats with a 20 s time constant.
    for (std::size_t i = 0; i < kVehicles; ++i) {
        schedule_.push_back(
            draw_incident(rng, IncidentKind::Storm, names_[i], 5 + rng.below(55)));
        if (i % 2 == 0) {
            schedule_.push_back(
                draw_incident(rng, IncidentKind::Thermal, names_[i], 2 + rng.below(23)));
        }
    }
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const Incident& a, const Incident& b) { return a.slice < b.slice; });
    model::ContractParser parser;
    update_.description = "infotainment requests the brake service";
    update_.contracts = parser.parse(kRejectedUpdate);
}

Episode PlatoonIncidents::run_episode(Tracer& tracer, RunTotals& totals) {
    Episode episode;
    std::vector<Incident> incidents = schedule_;
    ReactionProbe reactions(incidents);
    SenseActProbe latency;
    IngestTap ingests;

    scenario::ScenarioBuilder builder(scenario_seed_);
    learn::LearnedMonitorConfig learned;
    learned.seed = scenario_seed_;
    for (const std::string& name : names_) {
        scenario::presets::declare_dual_bus_platoon_vehicle(builder, name);
        builder.vehicle(name)
            .thermal_guard("zone_front", -40.0, kGuardHighC)
            .thermal_guard("zone_rear", -40.0, kGuardHighC)
            .learned_monitor(learned);
    }
    std::unique_ptr<scenario::Scenario> scenario;
    const std::int64_t setup_start = wall_ns();
    {
        Tracer::Scope span(tracer, "scenario.build");
        scenario = builder.build();
    }
    totals.setup_s.push_back(static_cast<double>(wall_ns() - setup_start) / 1e9);
    for (const std::string& name : names_) {
        ingests.attach(scenario->vehicle(name));
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
                schedule_incident(scenario->vehicle(incidents[next].vehicle), incidents[next],
                                  tracer, 0);
            }
            if (slice % kIntegrateEvery == kIntegrateEvery - 1) {
                auto& vehicle = scenario->vehicle(names_[(slice / kIntegrateEvery) % kVehicles]);
                Tracer::Scope span(tracer, "model.integrate");
                if (vehicle.integrate(update_).accepted) {
                    ++episode.failed_units;
                    episode.errors.push_back("the MCC accepted the infotainment update");
                }
            }
            Tracer::Scope span(tracer, "scenario.run_for");
            scenario->run_for(kSlice);
        }
        meter.end(vehicle_s, traced, totals);
        end_unit(tracer);
        reactions.collect(*scenario);
        latency.collect(*scenario, names_);
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
    episode.fingerprints.push_back(hex64(fp.value()));

    Counters& c = episode.counters;
    c["sim.events"] = static_cast<double>(scenario->simulator().executed_events());
    for (const std::string& name : names_) {
        add_vehicle_counters(scenario->vehicle(name), c);
    }
    c["monitor.ingests"] = static_cast<double>(ingests.total());
    finish_ratios(c);
    episode.detect_react_ms_p50 = reactions.median_ms();
    episode.sense_act_us_p99 = latency.p99_us();
    episode.units = kSlices;
    return episode;
}

} // namespace

std::unique_ptr<Workload> make_platoon_incidents(std::uint64_t variant) {
    return std::make_unique<PlatoonIncidents>(variant);
}

} // namespace perfbench
