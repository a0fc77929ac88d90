#include "can/bus_gateway.hpp"

#include "can/bus.hpp"
#include "sim/sharded_kernel.hpp"
#include "util/assert.hpp"

namespace sa::can {

BusGateway::BusGateway(std::string name, Duration forward_latency)
    : name_(std::move(name)), latency_(forward_latency) {
    SA_REQUIRE(latency_.count_ns() >= 0, "forward latency must be non-negative");
}

BusGateway::~BusGateway() { *alive_ = false; }

CanController& BusGateway::port(CanBus& bus) {
    auto it = ports_.find(&bus);
    if (it == ports_.end()) {
        auto controller =
            std::make_unique<CanController>(bus, name_ + "@" + bus.name());
        it = ports_.emplace(&bus, std::move(controller)).first;
    }
    return *it->second;
}

void BusGateway::add_route(CanBus& from, CanBus& to, std::uint32_t id,
                           std::uint32_t mask) {
    SA_REQUIRE(&from != &to, "gateway route must join two distinct buses");
    sim::Simulator& ingress_sim = from.simulator();
    sim::Simulator& egress_sim = to.simulator();
    if (&ingress_sim != &egress_sim) {
        // Cross-domain route: both ends must shard the same kernel, and the
        // forward latency is the conservative lookahead the ingress domain
        // grants the rest of the system.
        SA_REQUIRE(ingress_sim.shard() != nullptr &&
                       ingress_sim.shard() == egress_sim.shard(),
                   "gateway route must stay on one simulator or join two "
                   "domains of one ShardedKernel");
        SA_REQUIRE(latency_.count_ns() > 0,
                   "a cross-domain gateway route needs a positive forward "
                   "latency (it becomes the ingress domain's lookahead)");
        ingress_sim.shard()->declare_lookahead(ingress_sim, latency_);
    }
    CanController& egress = port(to);
    port(from).add_rx_filter(
        id, mask, [this, &egress, &ingress_sim](const CanFrame& frame, Time) {
            ++forwarded_;
            // Store-and-forward: the egress send happens after the gateway's
            // processing latency, from a fresh event (never from inside the
            // ingress bus's RX delivery), on the egress bus's domain when the
            // route crosses domains. The alive flag guards the event against
            // the gateway being destroyed mid-flight.
            sim::post(egress.bus().simulator(), ingress_sim.now() + latency_,
                      [alive = alive_, this, &egress, frame] {
                          if (!*alive) {
                              return;
                          }
                          if (!egress.send(frame)) {
                              ++dropped_;
                          }
                      });
        });
}

} // namespace sa::can
