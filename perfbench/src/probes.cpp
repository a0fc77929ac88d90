#include "probes.hpp"

#include <algorithm>
#include <cstdio>

#include "monitor/anomaly_kinds.hpp"
#include "scenario/presets.hpp"

namespace perfbench {

using namespace sa;

namespace {

void inject(scenario::Vehicle& vehicle, Incident& incident) {
    incident.at_ns = vehicle.simulator().now().ns();
    switch (incident.kind) {
    case IncidentKind::Storm:
        // The §V rear-brake example: a compromised component that may
        // legitimately reach the brake service floods it.
        vehicle.rte().access().grant("perception", "brake_cmd");
        vehicle.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                       sim::Duration::ms(2));
        return;
    case IncidentKind::Thermal:
        vehicle.faults().set_ambient_temperature(incident.ecu, incident.ambient_c);
        return;
    }
}

} // namespace

Incident draw_incident(SplitMix& rng, IncidentKind kind, std::string vehicle,
                       std::size_t slice) {
    Incident incident;
    incident.slice = slice;
    // Odd microsecond offsets stay off the preset's periodic grid.
    incident.offset = sim::Duration::us(static_cast<std::int64_t>(rng.below(5000)) * 2 + 3);
    incident.vehicle = std::move(vehicle);
    incident.kind = kind;
    if (kind == IncidentKind::Thermal) {
        incident.ecu = rng.below(2) == 0 ? "zone_front" : "zone_rear";
        incident.ambient_c = 100.0 + static_cast<double>(rng.below(101)) / 10.0;
    }
    return incident;
}

void schedule_incident(scenario::Vehicle& vehicle, Incident& incident, Tracer& tracer,
                       std::size_t domain) {
    vehicle.simulator().schedule(incident.offset, [&vehicle, &incident, &tracer, domain] {
        if (!tracer.active()) {
            inject(vehicle, incident);
            return;
        }
        const std::int64_t start = wall_ns();
        inject(vehicle, incident);
        tracer.record_on_domain(domain, "rte.inject", start, wall_ns());
    });
}

namespace {

bool reacts_to(const core::Decision& decision, const Incident& incident) {
    if (!decision.executed.has_value()) {
        return false;
    }
    switch (incident.kind) {
    case IncidentKind::Storm:
        return decision.anomaly.kind == monitor::kinds::kRateExcess;
    case IncidentKind::Thermal:
        return decision.anomaly.kind == monitor::kinds::kRangeViolation &&
               decision.anomaly.source == "temp." + incident.ecu;
    }
    return false;
}

} // namespace

void ReactionProbe::collect(scenario::Scenario& scenario) {
    for (Incident& incident : incidents_) {
        if (incident.at_ns < 0 || incident.react_ns >= 0) {
            continue;
        }
        const auto& decisions = scenario.vehicle(incident.vehicle).coordinator().decisions();
        for (const core::Decision& decision : decisions) {
            if (decision.at.ns() >= incident.at_ns && reacts_to(decision, incident)) {
                incident.react_ns = decision.at.ns() - incident.at_ns;
                break;
            }
        }
    }
}

double ReactionProbe::median_ms() const {
    std::vector<double> ms;
    for (const Incident& incident : incidents_) {
        if (incident.react_ns >= 0) {
            ms.push_back(static_cast<double>(incident.react_ns) / 1e6);
        }
    }
    return percentile(std::move(ms), 50.0);
}

void ReactionProbe::fingerprint(Fingerprint& fp) const {
    for (const Incident& incident : incidents_) {
        fp.add(incident.vehicle);
        fp.add(static_cast<std::int64_t>(incident.kind));
        fp.add(incident.ecu);
        fp.add(incident.at_ns);
        fp.add(incident.react_ns);
    }
}

void SenseActProbe::collect(scenario::Scenario& scenario,
                            const std::vector<std::string>& vehicles) {
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%x [", scenario::presets::kDualBusObjectFrameId);
    for (const std::string& name : vehicles) {
        auto& rte = scenario.vehicle(name).rte();
        auto& pending = pending_[name];
        sim::Trace& sense = rte.can_bus("can_sense").trace();
        for (const auto& record : sense.records()) {
            if (record.tag == "can.tx" && record.detail.starts_with(prefix)) {
                pending.push_back(record.at.ns());
            }
        }
        sense.clear();
        sim::Trace& act = rte.can_bus("can_act").trace();
        for (const auto& record : act.records()) {
            if (record.tag == "can.tx" && record.detail.starts_with(prefix) &&
                !pending.empty()) {
                samples_ns_.push_back(record.at.ns() - pending.front());
                pending.pop_front();
            }
        }
        act.clear();
    }
}

double SenseActProbe::p99_us() const {
    std::vector<double> us(samples_ns_.begin(), samples_ns_.end());
    for (double& x : us) {
        x /= 1e3;
    }
    return percentile(std::move(us), 99.0);
}

void SenseActProbe::fingerprint(Fingerprint& fp) const {
    for (const std::int64_t ns : samples_ns_) {
        fp.add(ns);
    }
}

void IngestTap::attach(scenario::Vehicle& vehicle) {
    std::uint64_t& count = counts_.emplace_back(0);
    vehicle.monitors().metric_ingested().subscribe(
        [&count](const monitor::Metric&) { ++count; });
}

std::uint64_t IngestTap::total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t count : counts_) {
        sum += count;
    }
    return sum;
}

void add_vehicle_counters(scenario::Vehicle& vehicle, Counters& c) {
    auto& rte = vehicle.rte();
    if (vehicle.has_bus_gateway("gw")) {
        for (const char* bus : {"can_sense", "can_act"}) {
            const can::CanBus& b = rte.can_bus(bus);
            c["can.frames"] += static_cast<double>(b.frames_transmitted());
            c["can.arbitration_rounds"] += static_cast<double>(b.arbitration_rounds());
            c["can.controller_polls"] += static_cast<double>(b.controller_polls());
        }
        const can::BusGateway& gw = vehicle.bus_gateway("gw");
        c["can.gw_forwarded"] += static_cast<double>(gw.frames_forwarded());
        c["can.gw_dropped"] += static_cast<double>(gw.frames_dropped());
        c["can.tx_dropped"] += static_cast<double>(
            vehicle.can_endpoint("zone_front", "can_sense").controller().tx_dropped() +
            vehicle.can_endpoint("zone_rear", "can_act").controller().tx_dropped());
    }
    for (const std::string& ecu : rte.ecu_names()) {
        const auto& scheduler = rte.ecu(ecu).scheduler();
        c["rte.jobs"] += static_cast<double>(scheduler.completed_jobs());
        c["rte.deadline_misses"] += static_cast<double>(scheduler.missed_deadlines());
        c["rte.dropped_jobs"] += static_cast<double>(scheduler.dropped_jobs());
    }
    c["rte.faults_injected"] += static_cast<double>(vehicle.faults().injected_faults());

    auto& monitors = vehicle.monitors();
    c["monitor.checks"] += static_cast<double>(monitors.total_checks());
    c["monitor.anomalies"] += static_cast<double>(monitors.total_anomalies());
    if (vehicle.has_learned_monitor()) {
        c["learn.evaluations"] += static_cast<double>(vehicle.learned_monitor().evaluations());
        c["learn.alarms"] += static_cast<double>(vehicle.learned_monitor().anomalies_raised());
    }

    const auto& coordinator = vehicle.coordinator();
    c["core.problems_handled"] += static_cast<double>(coordinator.problems_handled());
    c["core.problems_resolved"] += static_cast<double>(coordinator.problems_resolved());
    c["core.escalations"] += static_cast<double>(coordinator.total_escalations());
    c["core.conflicts_avoided"] += static_cast<double>(coordinator.conflicts_avoided());
    c["skills.tactics_applied"] += static_cast<double>(vehicle.tactics().history().size());
    if (vehicle.has_abilities() && !vehicle.root_skill().empty()) {
        const double level = vehicle.abilities().level(vehicle.root_skill());
        const auto it = c.find("skills.follow_level_min");
        c["skills.follow_level_min"] = it == c.end() ? level : std::min(it->second, level);
    }
    if (vehicle.has_mcc()) {
        c["model.integrations"] += static_cast<double>(vehicle.mcc().integrations_attempted());
        c["model.accepted"] += static_cast<double>(vehicle.mcc().integrations_accepted());
    }
}

namespace {

double ratio(const Counters& c, const char* num, const char* den) {
    const auto n = c.find(num);
    const auto d = c.find(den);
    if (n == c.end() || d == c.end() || d->second == 0.0) {
        return 0.0;
    }
    return n->second / d->second;
}

} // namespace

void finish_ratios(Counters& c) {
    c["can.frames_per_poll"] = ratio(c, "can.frames", "can.controller_polls");
    c["monitor.anomalies_per_check"] = ratio(c, "monitor.anomalies", "monitor.checks");
    c["core.resolved_frac"] = ratio(c, "core.problems_resolved", "core.problems_handled");
    c["model.accept_frac"] = ratio(c, "model.accepted", "model.integrations");
    c.erase("model.accepted");
    c["sim.events_per_window"] = ratio(c, "sim.events", "sim.windows");
    c["sim.cross_domain_frac"] = ratio(c, "sim.cross_domain_events", "sim.events");
    c["mesh.delivery_frac"] =
        c["mesh.deliveries"] + c["mesh.losses"] == 0.0
            ? 0.0
            : c["mesh.deliveries"] / (c["mesh.deliveries"] + c["mesh.losses"]);
}

} // namespace perfbench
