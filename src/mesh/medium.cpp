#include "mesh/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/sharded_kernel.hpp"
#include "util/assert.hpp"

namespace sa::v2v {
namespace {

/// splitmix64 finalizer: the avalanche stage used for the per-domain seed
/// derivation, reused here to mix the loss-draw hash state.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// FNV-1a over a string, folded into the running hash state.
std::uint64_t mix_string(std::uint64_t h, const std::string& text) noexcept {
    std::uint64_t fnv = 0xCBF29CE484222325ULL;
    for (const char c : text) {
        fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    return mix64(h ^ fnv);
}

} // namespace

const char* to_string(FrameKind kind) noexcept {
    switch (kind) {
    case FrameKind::Announce: return "announce";
    case FrameKind::Cam: return "cam";
    }
    return "?";
}

const char* to_string(Fading fading) noexcept {
    switch (fading) {
    case Fading::None: return "none";
    case Fading::Linear: return "linear";
    case Fading::Quadratic: return "quadratic";
    }
    return "?";
}

Medium::Medium(sim::Simulator& simulator, MediumConfig config)
    : simulator_(simulator), config_(config) {
    SA_REQUIRE(config_.loss_probability >= 0.0 && config_.loss_probability <= 1.0,
               "loss probability must be within [0,1]");
    SA_REQUIRE(config_.latency.count_ns() >= 0, "latency must be non-negative");
    SA_REQUIRE(config_.range_m >= 0.0, "radio range must be non-negative");
    SA_REQUIRE(config_.fading == Fading::None || config_.range_m > 0.0,
               "a fading model needs a finite radio range (range_m > 0)");
    // A one-domain kernel has no other domain to wait for, so a zero
    // latency is legal there; a positive one still bounds its windows,
    // keeping the window count equal at every domain count.
    sim::ShardedKernel* kernel = simulator_.shard();
    if (kernel != nullptr &&
        (kernel->num_domains() > 1 || config_.latency.count_ns() > 0)) {
        SA_REQUIRE(config_.latency.count_ns() > 0,
                   "a V2V medium on a sharded kernel needs a positive "
                   "latency (it becomes every domain's lookahead)");
        // Any domain may carry a transmitter, so the frame latency bounds
        // every domain's lookahead: it IS how far apart the domains' clocks
        // may drift within a window.
        for (std::size_t d = 0; d < kernel->num_domains(); ++d) {
            kernel->declare_lookahead(d, config_.latency);
        }
    }
}

void Medium::require_quiescent(const char* operation) const {
    SA_REQUIRE(sim::detail::executing_domain() == nullptr,
               std::string("Medium::") + operation +
                   " called from inside a sharded window: membership and "
                   "positions are read by every domain's transmit(); mutate "
                   "only between runs or from a script barrier");
}

// The index stays sorted by position; equal positions keep attach/move
// order (transmit() re-sorts its window by name anyway).
void Medium::index_insert(const Slot& slot) {
    const auto at = std::upper_bound(
        by_position_.begin(), by_position_.end(), slot.position_m,
        [](double position, const Slot& other) { return position < other.position_m; });
    by_position_.insert(at, slot);
}

void Medium::index_erase(const Endpoint* endpoint) {
    auto it = std::lower_bound(
        by_position_.begin(), by_position_.end(), endpoint->position_m,
        [](const Slot& other, double position) { return other.position_m < position; });
    while (it->endpoint != endpoint) {
        ++it; // equal positions: find this endpoint's own slot
    }
    by_position_.erase(it);
}

void Medium::attach(const std::string& name, sim::Simulator& home,
                    Receiver receiver, double position_m) {
    require_quiescent("attach");
    SA_REQUIRE(static_cast<bool>(receiver), "receiver must be callable");
    SA_REQUIRE(std::isfinite(position_m), "endpoint position must be finite");
    SA_REQUIRE(!endpoints_.contains(name), "duplicate medium endpoint: " + name);
    SA_REQUIRE(&home == &simulator_ || (simulator_.shard() != nullptr &&
                                        home.shard() == simulator_.shard()),
               "endpoint home must be the medium's simulator or a domain of "
               "the same sharded kernel");
    const auto it = endpoints_
                        .emplace(name, Endpoint{&home, std::move(receiver),
                                                position_m, next_id_++})
                        .first;
    index_insert(Slot{position_m, &it->first, &it->second});
    live_.insert(it->second.id, &it->second);
}

void Medium::detach(const std::string& name) {
    require_quiescent("detach");
    const auto it = endpoints_.find(name);
    if (it == endpoints_.end()) {
        return;
    }
    index_erase(&it->second);
    live_.erase(it->second.id);
    endpoints_.erase(it);
}

void Medium::move(const std::string& name, double position_m) {
    require_quiescent("move");
    auto it = endpoints_.find(name);
    SA_REQUIRE(it != endpoints_.end(), "unknown medium endpoint: " + name);
    SA_REQUIRE(std::isfinite(position_m), "endpoint position must be finite");
    index_erase(&it->second);
    it->second.position_m = position_m;
    index_insert(Slot{position_m, &it->first, &it->second});
}

bool Medium::attached(const std::string& name) const {
    return endpoints_.contains(name);
}

double Medium::position(const std::string& name) const {
    auto it = endpoints_.find(name);
    SA_REQUIRE(it != endpoints_.end(), "unknown medium endpoint: " + name);
    return it->second.position_m;
}

std::vector<std::string> Medium::members() const {
    std::vector<std::string> names;
    names.reserve(endpoints_.size());
    for (const auto& [name, endpoint] : endpoints_) {
        names.push_back(name);
    }
    return names;
}

double Medium::loss_at(double distance_m) const noexcept {
    if (config_.range_m > 0.0 && distance_m > config_.range_m) {
        return 1.0;
    }
    double fade = 0.0;
    if (config_.range_m > 0.0) {
        const double ratio = distance_m / config_.range_m;
        switch (config_.fading) {
        case Fading::None: break;
        case Fading::Linear: fade = ratio; break;
        case Fading::Quadratic: fade = ratio * ratio; break;
        }
    }
    return config_.loss_probability + (1.0 - config_.loss_probability) * fade;
}

double Medium::rssi_at(double distance_m) noexcept {
    // Log-distance path loss: -40 dBm reference at 1 m, exponent 2.2 (open
    // road with some ground reflection). Purely a function of distance, so
    // every run and every domain count sees the same estimate.
    const double d = distance_m < 1.0 ? 1.0 : distance_m;
    return -40.0 - 10.0 * 2.2 * std::log10(d);
}

double Medium::loss_draw(const Frame& frame,
                         const std::string& receiver) const noexcept {
    std::uint64_t h = mix64(config_.seed);
    h = mix_string(h, frame.transmitter);
    h = mix_string(h, receiver);
    h = mix64(h ^ static_cast<std::uint64_t>(frame.sent.ns()));
    h = mix_string(h, frame.origin);
    h = mix64(h ^ (static_cast<std::uint64_t>(frame.seq) |
                   (static_cast<std::uint64_t>(frame.kind) << 32) |
                   (static_cast<std::uint64_t>(frame.hops) << 40)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Frame Medium::cam(std::string sender, double position_m, double speed_mps) {
    Frame frame;
    frame.kind = FrameKind::Cam;
    frame.transmitter = sender;
    frame.origin = std::move(sender);
    frame.position_m = position_m;
    frame.speed_mps = speed_mps;
    return frame;
}

void Medium::transmit(Frame frame) {
    auto tx = endpoints_.find(frame.transmitter);
    SA_REQUIRE(tx != endpoints_.end(),
               "transmitter not attached to the medium: " + frame.transmitter);
    SA_REQUIRE(frame.ttl >= 1, "frame TTL exhausted before transmit");
    ++transmissions_;
    // The sending context: the domain whose window is executing, or the
    // medium's own simulator from quiescent contexts. Only its clock is
    // touched — loss draws are stateless hashes, never an RNG stream, so
    // the delivery trace is identical at every domain count.
    sim::Simulator* executing = sim::detail::executing_domain();
    sim::Simulator& context = executing != nullptr ? *executing : simulator_;
    if (frame.hops == 0) {
        frame.sent = context.now();
    }
    const Time deliver_at = context.now() + config_.latency;
    const double tx_position = tx->second.position_m;

    // Collect the receivers that draw: only the named hop of an addressed
    // relay, else every other member inside the range window. The window is
    // a prefilter with a little slack against rounding; loss_at() below
    // decides on the exact distance. Members outside it are lost unvisited.
    candidates_.clear();
    if (!frame.next_hop.empty()) {
        const auto hop = endpoints_.find(frame.next_hop);
        if (hop != endpoints_.end() && hop != tx) {
            candidates_.push_back(
                Slot{hop->second.position_m, &hop->first, &hop->second});
        }
    } else {
        const double range = config_.range_m;
        const double reach = range > 0.0
                                 ? range + 1e-9 * (range + std::abs(tx_position))
                                 : std::numeric_limits<double>::infinity();
        const auto first = std::lower_bound(
            by_position_.begin(), by_position_.end(), tx_position - reach,
            [](const Slot& slot, double position) { return slot.position_m < position; });
        const auto last = std::upper_bound(
            first, by_position_.end(), tx_position + reach,
            [](double position, const Slot& slot) { return position < slot.position_m; });
        for (auto it = first; it != last; ++it) {
            if (it->endpoint != &tx->second) {
                candidates_.push_back(*it);
            }
        }
        // Post in name order, as a scan of the name-keyed map would: the
        // order of same-time deliveries on one domain depends on it.
        std::sort(candidates_.begin(), candidates_.end(),
                  [](const Slot& a, const Slot& b) { return *a.name < *b.name; });
        losses_ += endpoints_.size() - 1 - candidates_.size();
    }

    for (const Slot& candidate : candidates_) {
        const double distance = std::abs(candidate.position_m - tx_position);
        const double p = loss_at(distance);
        if (p >= 1.0 || (p > 0.0 && loss_draw(frame, *candidate.name) < p)) {
            ++losses_;
            continue;
        }
        ++deliveries_;
        const double rssi = rssi_at(distance);
        // Resolve the receiver at delivery time by its attach id, not
        // capture it: an endpoint that detached while the frame was in
        // flight (quiescent contexts only) silently misses the frame, even
        // if another endpoint has since attached under the same name.
        sim::post(*candidate.endpoint->home, deliver_at,
                  [this, id = candidate.endpoint->id, frame, rssi] {
                      if (Endpoint* rx = live_.find(id)) {
                          rx->receiver(frame, rssi);
                      }
                  });
    }
}

} // namespace sa::v2v
