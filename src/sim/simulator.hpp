#pragma once
// Discrete-event simulation kernel. Single-threaded and deterministic:
// the same seed and setup always produce the same trace. All substrates of
// a scenario (CAN buses, ECU schedulers, vehicle dynamics, platoon and mesh
// messaging) run on one Simulator so their interleavings are globally
// ordered; sim::Kernel (sim/kernel.hpp) adds script barriers on top.
//
// There is one drain loop, run_until(): it executes one event at a time and
// honours stop() between any two events.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/random.hpp"

namespace sa::sim {

class Simulator {
public:
    explicit Simulator(std::uint64_t seed = 0x5AA5F00DULL) : seed_(seed) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Schedule `action` to run after `delay` (>= 0) from now.
    EventHandle schedule(Duration delay, EventQueue::Action action);

    /// Schedule `action` at absolute time `at` (>= now).
    EventHandle schedule_at(Time at, EventQueue::Action action);

    /// Schedule a periodic activity; the first firing happens after `phase`.
    /// The returned id can be passed to cancel_periodic().
    std::uint64_t schedule_periodic(Duration period, EventQueue::Action action,
                                    Duration phase = Duration::zero());

    /// Stop a periodic activity. The in-flight occurrence is cancelled
    /// eagerly (O(1) via the queue's generation counters), so no stale event
    /// lingers in the queue.
    void cancel_periodic(std::uint64_t id);

    bool cancel(EventHandle handle) { return queue_.cancel(handle); }

    /// Run until the event queue is empty or `until` is reached (whichever is
    /// first). Returns the number of events executed. Executes one event at a
    /// time; stop() takes effect after the current event completes.
    std::size_t run_until(Time until);

    /// Run for `span` from now.
    std::size_t run_for(Duration span) { return run_until(now_ + span); }

    /// Request that run_until return after the current event completes.
    /// Thread-safe: the flag is atomic, so an external thread may request a
    /// stop without racing the owning drain loop. Note run_until() consumes
    /// the flag on
    /// entry, so a stop aimed at an idle simulator is discarded; to stop a
    /// scenario run use Kernel::stop().
    void stop() noexcept { stop_requested_.store(true, std::memory_order_relaxed); }

    /// Advance the clock to `at` without executing anything. Requires that
    /// no event is pending before `at` and `at` >= now(). The kernel uses
    /// this to move the clock onto script barriers and to the end of a run.
    void advance_to(Time at);

    /// Earliest pending event time, or Time::max() when idle.
    [[nodiscard]] Time next_pending_time() const {
        return queue_.empty() ? Time::max() : queue_.next_time();
    }

    [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
    [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

    /// Deterministic RNG seeded from the constructor seed. Constructed
    /// lazily on first access: seeding a mt19937_64 costs ~0.6 us, which
    /// purely-deterministic simulations (no noise, no fault injection)
    /// never need to pay. The drawn sequence is identical either way.
    RandomEngine& rng() noexcept {
        if (!rng_.has_value()) {
            rng_.emplace(seed_);
        }
        return *rng_;
    }

private:
    /// One periodic activity, stored flat in `periodics_`. Slots are reused
    /// after cancellation; the generation counter makes reuse safe (a stale
    /// id can never act on a later registration in the same slot) exactly
    /// like EventQueue's cancellation slots. The public id encodes both:
    /// id = (generation << 32) | (slot + 1), so a valid id is never 0.
    struct PeriodicSlot {
        Duration period;
        EventQueue::Action action;
        EventHandle next; ///< the in-flight occurrence, cancelled eagerly
        std::uint32_t generation = 1;
        bool live = false;
    };

    void fire_periodic(std::uint64_t id);
    void arm_periodic(PeriodicSlot& slot, std::uint64_t id, Duration delay);
    EventQueue queue_;
    Time now_ = Time::zero();
    std::uint64_t seed_;
    std::optional<RandomEngine> rng_;
    std::atomic<bool> stop_requested_{false};
    std::uint64_t executed_ = 0;
    // Flat slot storage: a firing decodes its slot index straight from the
    // id — no hashing, no per-task heap node. fire_periodic moves the action
    // out of the slot before invoking it, so an action that cancels its own
    // id (or registers new periodics, reallocating the vector) never
    // destroys its own captures mid-call; this replaces the shared_ptr
    // pinning the old map-based registry needed.
    std::vector<PeriodicSlot> periodics_;
    std::vector<std::uint32_t> free_periodics_;
};

} // namespace sa::sim
