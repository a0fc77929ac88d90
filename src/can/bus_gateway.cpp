#include "can/bus_gateway.hpp"

#include "can/bus.hpp"
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
    SA_REQUIRE(&from.simulator() == &to.simulator(),
               "gateway route must join two buses of one simulator");
    CanController& egress = port(to);
    port(from).add_rx_filter(id, mask, [this, &egress](const CanFrame& frame, Time) {
        ++forwarded_;
        // Store-and-forward: the egress send happens after the gateway's
        // processing latency, from a fresh event (never from inside the
        // ingress bus's RX delivery). The alive flag guards the event against
        // the gateway being destroyed mid-flight.
        (void)egress.bus().simulator().schedule(
            latency_, [alive = alive_, this, &egress, frame] {
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
