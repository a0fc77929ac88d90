#pragma once
// The kernel every Scenario runs on: one Simulator (one event queue, one
// clock, one RNG) plus script barriers.
//
// Scripts. schedule_script() actions run at exactly their timestamp,
// between events: the kernel drains the queue up to just before the
// script's time, advances the clock to it and runs every script due then,
// in registration order. A script whose time collides with an event's runs
// before that event. Scripts may touch anything — inject faults, rewire
// routes, move or destroy a vehicle. Scripts are not events: they do not
// count towards executed_events().
//
// ECU domains are placement labels on the scenario, not a partition of the
// kernel: every vehicle runs on the one simulator whatever domain it is
// declared on, so a run gives the same result at every declared domain
// count.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"

namespace sa::sim {

class Kernel {
public:
    explicit Kernel(std::uint64_t seed = 0x5AA5F00DULL) : simulator_(seed) {}

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }

    /// Run `action` at exactly `at`, between events (see header comment).
    /// Scripts at equal times run in registration order.
    void schedule_script(Time at, std::function<void()> action);

    /// Drain events and scripts up to and including `until`. Returns the
    /// number of events executed. On return (without stop()) now() reads
    /// `until`.
    std::size_t run_until(Time until);
    std::size_t run_for(Duration span) { return run_until(now() + span); }

    /// Request that run_until() return after the current event or script,
    /// leaving the rest queued. Thread-safe; a request that lands while the
    /// kernel is idle is discarded by the next run.
    void stop() noexcept {
        stop_.store(true, std::memory_order_relaxed);
        simulator_.stop();
    }

    [[nodiscard]] Time now() const noexcept { return simulator_.now(); }
    [[nodiscard]] std::uint64_t executed_events() const noexcept {
        return simulator_.executed_events();
    }
    /// Drain segments between script barriers (diagnostic: work per barrier).
    [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
    /// Always 0: every event is scheduled on the one queue. Kept for callers
    /// that still report it.
    [[nodiscard]] std::uint64_t cross_domain_events() const noexcept { return 0; }

private:
    Simulator simulator_;
    std::atomic<bool> stop_{false};
    std::uint64_t windows_ = 0;
    /// Scripts kept sorted by time in a flat vector (equal times stay in
    /// registration order: inserts land after existing equal-time entries).
    /// scripts_head_ is the drain cursor — executed entries are skipped, not
    /// erased, and the vector compacts only when fully drained, so the
    /// script queue reuses one allocation instead of a tree node per script.
    struct Script {
        Time at;
        std::function<void()> action;
    };
    std::vector<Script> scripts_;
    std::size_t scripts_head_ = 0;
};

/// The kernel's former name, which callers that declare ECU domains still
/// use; domains are placement labels only (see the header comment).
using ShardedKernel = Kernel;

} // namespace sa::sim
