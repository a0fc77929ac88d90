#include "sim/kernel.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::sim {

void Kernel::schedule_script(Time at, std::function<void()> action) {
    SA_REQUIRE(action != nullptr, "script needs an action");
    SA_REQUIRE(at >= now(), "cannot schedule a script into the past");
    // Sorted insert after any equal-time entries. Only the live tail
    // [scripts_head_, end) is searched — entries before the cursor are
    // already executed.
    const auto it = std::upper_bound(
        scripts_.begin() + static_cast<std::ptrdiff_t>(scripts_head_),
        scripts_.end(), at, [](Time t, const Script& s) { return t < s.at; });
    scripts_.insert(it, Script{at, std::move(action)});
}

std::size_t Kernel::run_until(Time until) {
    SA_REQUIRE(until >= now(), "cannot run into the past");
    const std::uint64_t executed_before = executed_events();
    // Consume any stale stop request on entry, mirroring
    // Simulator::run_until: a stop aimed at an idle kernel is discarded
    // instead of silently skipping the next span.
    stop_.store(false, std::memory_order_relaxed);
    bool stopped = false;
    for (;;) {
        if (stop_.exchange(false, std::memory_order_relaxed)) {
            stopped = true;
            break;
        }
        const Time script_at = scripts_head_ == scripts_.size()
                                   ? Time::max()
                                   : scripts_[scripts_head_].at;
        const Time next = std::min(script_at, simulator_.next_pending_time());
        if (next == Time::max() || next > until) {
            break; // drained, or nothing due inside the requested span
        }
        if (next == script_at) {
            simulator_.advance_to(script_at);
            while (scripts_head_ < scripts_.size() &&
                   scripts_[scripts_head_].at == script_at) {
                auto action = std::move(scripts_[scripts_head_].action);
                ++scripts_head_;
                if (scripts_head_ == scripts_.size()) {
                    // Fully drained: compact now so the action below (which
                    // may register new scripts) starts a fresh, dead-free
                    // vector that reuses the same allocation.
                    scripts_.clear();
                    scripts_head_ = 0;
                }
                action();
            }
            continue;
        }
        // Drain up to (excluding) the next script. run_until(Time::max())
        // leaves the clock at the last executed event instead of advancing
        // it to the numeric limit.
        ++windows_;
        const bool script_due = script_at <= until && script_at != Time::max();
        simulator_.run_until(script_due ? Time(script_at.ns() - 1) : until);
    }
    if (!stopped && until != Time::max()) {
        // Align the clock with the end of the observed span, so relative
        // scheduling after the run starts from `until`.
        simulator_.advance_to(until);
    }
    return static_cast<std::size_t>(executed_events() - executed_before);
}

} // namespace sa::sim
