#pragma once
// Observers shared by the scenario workloads (platoon_incidents and the
// dual-bus vehicles of fleet_mesh): §V incident injection, the simulated
// detection->reaction latency, the sense->act object-frame latency across the
// gateway, and the per-layer counters read from public accessors.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

enum class IncidentKind { Storm, Thermal };

/// One scripted incident of a seeded schedule.
struct Incident {
    std::size_t slice = 0;    ///< injected during this slice...
    sa::sim::Duration offset; ///< ...this long after it starts
    std::string vehicle;
    IncidentKind kind = IncidentKind::Storm;
    std::string ecu;          ///< thermal steps: the heated ECU
    double ambient_c = 0.0;   ///< thermal steps: the new ambient temperature
    std::int64_t at_ns = -1;  ///< simulated injection time; -1: not yet
    std::int64_t react_ns = -1; ///< first countermeasure - injection; -1: none
};

/// Over-temperature bound of the thermal guard the workloads declare on both
/// ECU zones; thermal incidents step the ambient well above it.
inline constexpr double kGuardHighC = 55.0;

/// Draw a storm or thermal incident for `vehicle` in slice `slice`, at a
/// seeded instant in the first 10 ms of the slice (storms then fill the
/// rest of the IDS window and are caught at its end).
[[nodiscard]] Incident draw_incident(SplitMix& rng, IncidentKind kind, std::string vehicle,
                                     std::size_t slice);

/// Schedule `incident` on its vehicle's simulator, incident.offset from now:
/// at the start of its slice, with the kernel quiescent. The injection runs
/// inside the slice on the vehicle's domain thread and records an rte.inject
/// span into that domain's tracer buffer. It either compromises the
/// perception component with a message storm against the brake service, or
/// steps the ambient temperature of one ECU.
void schedule_incident(sa::scenario::Vehicle& vehicle, Incident& incident, Tracer& tracer,
                       std::size_t domain);

/// Matches every injected incident with the first executed countermeasure
/// its vehicle's coordinator took for it (rate_excess for storms, a
/// temp.<ecu> range violation for thermal steps).
class ReactionProbe {
public:
    explicit ReactionProbe(std::vector<Incident>& incidents) : incidents_(incidents) {}
    /// Look for the reactions to incidents that are still waiting for one.
    void collect(sa::scenario::Scenario& scenario);
    /// Median reaction time over the incidents that got one (ms, simulated).
    [[nodiscard]] double median_ms() const;
    void fingerprint(Fingerprint& fp) const;

private:
    std::vector<Incident>& incidents_;
};

/// Pairs the k-th object frame sent on a dual-bus vehicle's sense bus with
/// the k-th one on its act bus, like campaign::collect_latency, but slice by
/// slice: the CAN traces are bounded rings, so they are drained and cleared
/// after every slice.
class SenseActProbe {
public:
    void collect(sa::scenario::Scenario& scenario, const std::vector<std::string>& vehicles);
    /// p99 over every pair so far (us, simulated).
    [[nodiscard]] double p99_us() const;
    void fingerprint(Fingerprint& fp) const;

private:
    std::map<std::string, std::deque<std::int64_t>> pending_; ///< sense TX times
    std::vector<std::int64_t> samples_ns_;
};

/// Counts monitor.ingests through each vehicle's metric_ingested() tap. One
/// counter per vehicle: under sharding each is written only by its vehicle's
/// domain thread.
class IngestTap {
public:
    void attach(sa::scenario::Vehicle& vehicle);
    [[nodiscard]] std::uint64_t total() const;

private:
    std::deque<std::uint64_t> counts_; ///< deque: stable element addresses
};

/// Add one vehicle's CAN, RTE, monitor, learn, core, skills and model
/// counters into `counters` (sums; skills.follow_level_min is a minimum).
void add_vehicle_counters(sa::scenario::Vehicle& vehicle, Counters& counters);
/// Add the ratios derived from the summed counters.
void finish_ratios(Counters& counters);

} // namespace perfbench
