#pragma once
// A tiny signal/slot utility used for decoupled publish/subscribe between
// substrates (e.g. monitors observing the RTE). Periodic activities use
// Simulator::schedule_periodic.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sa::sim {

/// A minimal typed signal. Subscribers are invoked synchronously in
/// subscription order; subscription order is deterministic.
template <typename... Args>
class Signal {
public:
    using Slot = std::function<void(Args...)>;

    /// Returns a subscription id usable with unsubscribe().
    std::uint64_t subscribe(Slot slot) {
        slots_.push_back({next_id_, std::move(slot)});
        return next_id_++;
    }

    void unsubscribe(std::uint64_t id) {
        for (auto& s : slots_) {
            if (s.first == id) {
                s.second = nullptr;
            }
        }
    }

    void emit(Args... args) const {
        // Iterate by index: slots may subscribe re-entrantly during emit.
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].second) {
                slots_[i].second(args...);
            }
        }
    }

    [[nodiscard]] std::size_t subscriber_count() const noexcept {
        std::size_t n = 0;
        for (const auto& s : slots_) {
            if (s.second) {
                ++n;
            }
        }
        return n;
    }

private:
    std::vector<std::pair<std::uint64_t, Slot>> slots_;
    std::uint64_t next_id_ = 1;
};

} // namespace sa::sim
