#include "sim/simulator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::sim {

EventHandle Simulator::schedule(Duration delay, EventQueue::Action action) {
    SA_REQUIRE(delay.count_ns() >= 0, "cannot schedule into the past");
    return queue_.push(now_ + delay, std::move(action));
}

EventHandle Simulator::schedule_at(Time at, EventQueue::Action action) {
    SA_REQUIRE(at >= now_, "cannot schedule into the past");
    return queue_.push(at, std::move(action));
}

namespace {
/// id layout: high 32 bits = slot generation, low 32 bits = slot index + 1.
constexpr std::uint32_t periodic_index(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFF'FFFFULL) - 1;
}
constexpr std::uint32_t periodic_generation(std::uint64_t id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
}
} // namespace

std::uint64_t Simulator::schedule_periodic(Duration period, EventQueue::Action action,
                                           Duration phase) {
    SA_REQUIRE(period.count_ns() > 0, "periodic activity needs a positive period");
    SA_REQUIRE(phase.count_ns() >= 0, "phase must be non-negative");
    std::uint32_t index;
    if (!free_periodics_.empty()) {
        index = free_periodics_.back();
        free_periodics_.pop_back();
    } else {
        periodics_.push_back(PeriodicSlot{});
        // Keep the free list's capacity >= total slots so cancel_periodic's
        // push never allocates in steady state.
        free_periodics_.reserve(periodics_.capacity());
        index = static_cast<std::uint32_t>(periodics_.size() - 1);
    }
    PeriodicSlot& slot = periodics_[index];
    slot.period = period;
    slot.action = std::move(action);
    slot.live = true;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(slot.generation) << 32) | (index + 1);
    arm_periodic(slot, id, phase);
    return id;
}

void Simulator::arm_periodic(PeriodicSlot& slot, std::uint64_t id, Duration delay) {
    // The firing captures only {this, id} — well within the Action's inline
    // buffer, so re-arming a periodic never heap-allocates. The id
    // indirection (instead of a pointer) keeps the firing safe even if the
    // task cancels itself from inside its own action.
    slot.next = schedule(delay, [this, id] { fire_periodic(id); });
}

void Simulator::fire_periodic(std::uint64_t id) {
    const std::uint32_t index = periodic_index(id);
    if (index >= periodics_.size()) {
        return; // cancelled between scheduling and firing (belt and braces)
    }
    {
        PeriodicSlot& slot = periodics_[index];
        if (!slot.live || slot.generation != periodic_generation(id)) {
            return; // slot was cancelled (and possibly reused) meanwhile
        }
        slot.next = EventHandle{};
    }
    // Move the action out of the slot for the call: the action may
    // cancel_periodic its own id (which would null the slot's action) or
    // register new periodics (which may reallocate the vector); its captures
    // must outlive their invocation either way.
    EventQueue::Action action = std::move(periodics_[index].action);
    action();
    // Re-resolve before re-arming: only a still-live, same-generation slot
    // gets the action back and continues.
    PeriodicSlot& slot = periodics_[index];
    if (slot.live && slot.generation == periodic_generation(id)) {
        slot.action = std::move(action);
        arm_periodic(slot, id, slot.period);
    }
}

void Simulator::cancel_periodic(std::uint64_t id) {
    const std::uint32_t index = periodic_index(id);
    if (index >= periodics_.size()) {
        return;
    }
    PeriodicSlot& slot = periodics_[index];
    if (!slot.live || slot.generation != periodic_generation(id)) {
        return; // already cancelled (possibly a stale id on a reused slot)
    }
    queue_.cancel(slot.next); // eager: no stale event stays queued
    slot.next = EventHandle{};
    slot.live = false;
    slot.action = nullptr;
    ++slot.generation; // stale ids can never act on this slot again
    free_periodics_.push_back(index);
}

std::size_t Simulator::run_until(Time until) {
    std::size_t executed = 0;
    stop_requested_.store(false, std::memory_order_relaxed);
    EventQueue::Popped popped;
    while (!stop_requested_.load(std::memory_order_relaxed) &&
           queue_.pop_until(until, popped)) {
        SA_ASSERT(popped.at >= now_, "event queue time went backwards");
        now_ = popped.at;
        popped.action();
        popped.action = nullptr; // destroy captures promptly
        ++executed;
        ++executed_;
    }
    // Even if nothing fired, time advances to the horizon so subsequent
    // scheduling is relative to the end of the observed window — except
    // after a stop(): jumping past still-pending events would strand them
    // in the past and poison every later drain.
    if (!stop_requested_.load(std::memory_order_relaxed) && now_ < until &&
        until != Time::max()) {
        now_ = until;
    }
    // Consume the stop request: it was honored by this run and must not
    // cut short the next one.
    stop_requested_.store(false, std::memory_order_relaxed);
    return executed;
}

void Simulator::advance_to(Time at) {
    SA_REQUIRE(at >= now_, "cannot advance the clock backwards");
    SA_REQUIRE(queue_.empty() || queue_.next_time() >= at,
               "cannot advance the clock past pending events");
    now_ = at;
}

} // namespace sa::sim
