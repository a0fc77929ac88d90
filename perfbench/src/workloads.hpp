#pragma once
// The three benchmark workloads. Each is a closed loop with one client: the
// next unit of work is issued only after the previous one returned. A run
// repeats whole episodes (set-up, then a fixed sequence of units, then the
// output check) until its time is up, so every episode of a run produces the
// same simulated outputs and is checked against the same reference.
//
//   platoon_incidents  dual-bus preset vehicles on the single-queue kernel,
//                      with a seeded schedule of message-storm compromises,
//                      ambient-temperature steps and rejected runtime
//                      integrations. Unit: one Scenario::run_for slice.
//   fleet_mesh         128 vehicles with a MeshStack each on a range-limited
//                      medium, 2 domains, periodic multi-hop send_cam
//                      unicasts. Unit: one Scenario::run_for slice.
//   campaign_cells     a fixed 288-cell campaign matrix run cell by cell
//                      through CampaignDriver::run_single in worker-process
//                      mode. Unit: one cell.

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Workload inputs come from `seed % kVariants`: one committed reference
/// fingerprint exists per variant and workload.
inline constexpr std::uint64_t kVariants = 8;

class Workload {
public:
    virtual ~Workload() = default;

    /// Simulation domains whose worker threads record spans.
    [[nodiscard]] virtual std::size_t domains() const { return 1; }
    /// True when units reap child processes whose CPU time counts.
    [[nodiscard]] virtual bool child_processes() const { return false; }

    /// Set up, run and observe one episode. Units are timed into `totals`;
    /// the returned outputs are checked by the caller.
    [[nodiscard]] virtual Episode run_episode(Tracer& tracer, RunTotals& totals) = 0;

    /// A trace run interleaves traced and untraced units, so the tracing
    /// overhead is measured on the same simulated work.
    void set_trace_run(bool trace_run) noexcept { trace_run_ = trace_run; }

protected:
    /// Start the next unit: returns whether it is traced and arms the tracer.
    bool begin_unit(Tracer& tracer) {
        ++units_;
        const bool traced = trace_run_ && units_ % 2 == 0;
        tracer.set_active(traced);
        return traced;
    }
    /// Back to episode-level tracing (set-up and report spans of trace runs).
    void end_unit(Tracer& tracer) const { tracer.set_active(trace_run_); }
    [[nodiscard]] std::uint64_t unit_id() const noexcept { return units_; }

private:
    bool trace_run_ = false;
    std::uint64_t units_ = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_platoon_incidents(std::uint64_t variant);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_mesh(std::uint64_t variant);
/// `worker` is the sa_campaign executable forked for every cell.
[[nodiscard]] std::unique_ptr<Workload> make_campaign_cells(std::uint64_t variant,
                                                            std::string worker);

} // namespace perfbench
