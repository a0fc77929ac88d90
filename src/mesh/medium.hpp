#pragma once
// v2v::Medium — the shared radio substrate of the V2V mesh (§V: cooperating
// vehicles "share information" over channels that are lossy, delayed and
// range-limited). The Medium replaces the old platoon::V2vChannel and keeps
// only the physics: per-pair loss derived from along-track distance through
// a pluggable fading model, a constant propagation+stack latency, a hard
// radio range, and a deterministic log-distance RSSI estimate delivered with
// every frame. Everything protocol-shaped (neighbor tables, announcements,
// relaying) lives one layer up in mesh::MeshStack.
//
// There is exactly ONE attach surface — attach(name, receiver, position).
// Deliveries are events on the medium's simulator.
//
// Loss draws do not use the simulator's RNG stream. Each draw is a
// stateless hash of (medium seed, transmitter, receiver, send time, origin,
// seq, kind): no shared mutable state, reproducible from the seed, and
// independent of every other consumer of randomness in the scenario.
//
// Range index. Beside the name-keyed map the medium keeps its endpoints in a
// position-sorted vector, maintained incrementally by attach()/detach()/
// move(). A broadcast binary-searches the window [tx - range, tx + range]
// and visits only the endpoints inside it, so a transmission costs
// O(log N + receivers in range). It schedules them in name order (the map
// order), which fixes the order of same-time deliveries.
// Members outside the window are counted as losses without being visited.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace sa::v2v {

using sim::Duration;
using sim::Time;

/// What a frame is to the mesh layer. Announce frames build neighbor tables
/// and routes; Cam frames carry the cooperative-awareness payload.
enum class FrameKind : std::uint8_t { Announce, Cam };

[[nodiscard]] const char* to_string(FrameKind kind) noexcept;

/// One radio frame. A single-hop CAM (the old V2vBeacon) is a Frame with
/// origin == transmitter, ttl 1 and no destination; the mesh layer reuses
/// the same shape for TTL'd announcements and addressed multi-hop relays.
struct Frame {
    FrameKind kind = FrameKind::Cam;
    std::string transmitter;  ///< per-hop radio sender (the relaying node)
    std::string origin;       ///< original source of the payload
    std::string destination;  ///< unicast target; empty = broadcast payload
    std::string next_hop;     ///< addressed relay target; empty = all in range
    std::uint32_t seq = 0;    ///< origin's sequence number (dedup + PRR)
    std::uint32_t ttl = 1;    ///< remaining transmissions (1 = no relay)
    std::uint32_t hops = 0;   ///< transmissions already taken
    double position_m = 0.0;  ///< origin's claimed along-track position
    double speed_mps = 0.0;   ///< origin's claimed speed
    Time sent;                ///< stamped by the medium at origination
};

/// Distance-dependent loss shape. The fading fraction f(d) ramps from 0 at
/// the transmitter to 1 at the radio range; the effective loss probability
/// of a pair at distance d is  base + (1 - base) * f(d).
enum class Fading : std::uint8_t {
    None,      ///< f(d) = 0 inside the range (hard-shell radio)
    Linear,    ///< f(d) = d / range
    Quadratic, ///< f(d) = (d / range)^2
};

[[nodiscard]] const char* to_string(Fading fading) noexcept;

struct MediumConfig {
    /// Distance-independent base loss probability in [0, 1].
    double loss_probability = 0.0;
    /// Constant propagation + stack latency (>= 0).
    Duration latency = Duration::ms(20);
    /// Hard radio range in meters; 0 = unlimited (every pair in range).
    double range_m = 0.0;
    /// Distance-dependent loss shape; requires a finite range.
    Fading fading = Fading::None;
    /// Seed of the stateless loss-draw hash (independent of the simulator
    /// seed so the same traffic pattern can be re-rolled in isolation).
    std::uint64_t seed = 0x5AA5F00DULL;
};

/// Shared lossy/latency/range substrate. See the header comment.
class Medium {
public:
    /// Receiver callback: the delivered frame plus the deterministic RSSI
    /// estimate of the transmitter->receiver link at delivery.
    using Receiver = std::function<void(const Frame&, double rssi_dbm)>;

    Medium(sim::Simulator& simulator, MediumConfig config = {});

    Medium(const Medium&) = delete;
    Medium& operator=(const Medium&) = delete;

    /// Attach an endpoint: delivered frames execute as events on the
    /// medium's simulator; `position_m` must be finite.
    void attach(const std::string& name, Receiver receiver, double position_m = 0.0);
    /// Detach an endpoint. Frames still in flight to it are dropped, also
    /// when an endpoint of the same name attaches before their delivery.
    void detach(const std::string& name);
    /// Move an endpoint along the track.
    void move(const std::string& name, double position_m);

    [[nodiscard]] bool attached(const std::string& name) const;
    [[nodiscard]] double position(const std::string& name) const;
    /// Attached endpoint names, sorted (map order).
    [[nodiscard]] std::vector<std::string> members() const;

    /// Transmit one frame from frame.transmitter (which must be attached).
    /// Every other endpoint — or only frame.next_hop when set — draws an
    /// independent loss and receives the frame latency later. Fresh frames
    /// (hops == 0) are stamped with the current time; relayed frames keep
    /// their origination timestamp.
    void transmit(Frame frame);

    /// Convenience: a single-hop CAM broadcast frame (the old V2vBeacon).
    [[nodiscard]] static Frame cam(std::string sender, double position_m,
                                   double speed_mps);

    // --- physics (deterministic, exposed for tests and lint) ---------------
    /// Effective loss probability at `distance_m` (1.0 beyond the range).
    [[nodiscard]] double loss_at(double distance_m) const noexcept;
    /// Log-distance path-loss RSSI estimate: -40 dBm at 1 m, exponent 2.2.
    [[nodiscard]] static double rssi_at(double distance_m) noexcept;

    [[nodiscard]] const MediumConfig& config() const noexcept { return config_; }
    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

    [[nodiscard]] std::uint64_t transmissions() const noexcept {
        return transmissions_;
    }
    [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }
    [[nodiscard]] std::uint64_t losses() const noexcept { return losses_; }

private:
    struct Endpoint {
        Receiver receiver;
        double position_m;
        std::int64_t id; ///< per-attach identity that in-flight frames resolve
    };

    /// One entry of the position index (pointers into stable map nodes).
    struct Slot {
        double position_m;
        const std::string* name;
        Endpoint* endpoint;
    };

    /// Stateless loss draw in [0, 1): a hash of the pair, the send instant
    /// and the frame identity.
    [[nodiscard]] double loss_draw(const Frame& frame,
                                   const std::string& receiver) const noexcept;
    void index_insert(const Slot& slot);
    void index_erase(const Endpoint* endpoint);

    sim::Simulator& simulator_;
    MediumConfig config_;
    std::map<std::string, Endpoint> endpoints_;
    std::vector<Slot> by_position_;      ///< sorted by position_m
    util::FlatPtrMap64<Endpoint*> live_; ///< attach id -> endpoint
    std::int64_t next_id_ = 0;
    std::vector<Slot> candidates_;       ///< transmit()'s receiver scratch
    std::uint64_t transmissions_ = 0;
    std::uint64_t deliveries_ = 0;
    std::uint64_t losses_ = 0;
};

} // namespace sa::v2v
