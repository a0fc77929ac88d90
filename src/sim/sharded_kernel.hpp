#pragma once
// Sharded discrete-event kernel: one Simulator per ECU domain, coordinated
// with conservative lookahead so domains advance window by window while
// staying deterministic. It is the only kernel a Scenario runs on, for one
// domain as for many.
//
// Partitioning model. A ShardedKernel owns N DomainKernels; each DomainKernel
// owns a private Simulator (bucketed event queue, clock, RNG, periodic
// registry). A window runs every domain in index order on the calling
// thread, each draining its own queue up to the window's end — a domain is
// exactly the single-threaded kernel it always was. Domains are a
// deterministic partition, not threads: the same code path serves 1..N
// domains, and the guards below keep a run byte-identical across domain
// counts.
//
// Conservative lookahead. Cross-domain interactions (CAN gateway forwards,
// V2V delivery) carry a minimum link latency, declared up front via
// declare_lookahead(). Each round the coordinator computes the global safe
// horizon
//
//     horizon = min over domains d of (next_event(d) + lookahead(d))
//
// — no event a domain has yet to execute can cause an effect in another
// domain earlier than that — and every domain drains its queue up to (but
// excluding) the horizon. Cross-domain sends made during the window land in
// per-(source, target) outboxes and are flushed into the target queues at
// the barrier, ordered by (delivery time, source domain, send order): the
// merge does not depend on the order domains ran in, so a domain observes
// the same events at every domain count. Scheduling straight into another
// domain's queue mid-window would not: the receiver may already have run
// past that time, or not yet reached it, depending on the partition. The
// ownership guards (Simulator::owned_by_caller, post()'s rejections, the
// below-horizon check) therefore turn such a foreign mutation — or a
// forgotten declare_lookahead() — into a loud contract violation instead of
// a silent break of byte-identity.
//
// Scripts. schedule_script() actions are global barriers: the coordinator
// runs each one at exactly its timestamp with every domain quiescent and
// every clock aligned (Simulator::advance_to), so a script may touch any
// domain — inject faults, rewire routes, destroy a vehicle — without
// breaking the partition. This is how scenario-level interventions stay
// deterministic without carrying a lookahead of their own. Scripts are not
// events: they do not count towards executed_events().
//
// Determinism. Within a domain, execution order is the queue order of that
// domain's events. Entities that do not share simulator-level state
// (distinct vehicles) therefore observe identical event sequences at every
// domain count, and per-entity counters and executed_events() reproduce
// bit-for-bit across domain counts — windows() too when every domain
// declares the same lookahead, as a V2V medium does. The sharded
// determinism suite locks this in. A script whose time collides with an
// event's runs before that event: the barrier comes first.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace sa::sim {

/// Lookahead value meaning "this domain never emits cross-domain events".
inline constexpr Duration kUnboundedLookahead = Duration(INT64_MAX);

/// One shard of a sharded simulation: a private Simulator plus its outboxes.
/// Created and owned by ShardedKernel.
class DomainKernel {
public:
    DomainKernel(const DomainKernel&) = delete;
    DomainKernel& operator=(const DomainKernel&) = delete;

    [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] const Simulator& simulator() const noexcept { return simulator_; }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    /// Minimum latency of any cross-domain event this domain may emit.
    [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

private:
    friend class ShardedKernel;
    DomainKernel(std::size_t index, std::uint64_t seed, std::size_t num_domains);

    /// A cross-domain event waiting for the barrier flush.
    struct Envelope {
        Time at;
        EventQueue::Action action;
    };

    Simulator simulator_;
    std::size_t index_;
    Duration lookahead_ = kUnboundedLookahead;
    /// outbox_[target]: sends made by this domain during the current
    /// window, drained by the coordinator at the barrier.
    std::vector<std::vector<Envelope>> outbox_;
    /// An exception thrown inside this domain's window (e.g. a contract
    /// violation); held until every domain has finished the window, then
    /// rethrown by the coordinator.
    std::exception_ptr error_;
};

/// Coordinator of N DomainKernels. See the header comment for the model.
class ShardedKernel {
public:
    /// Domain 0 is seeded with `seed` itself (identical to a standalone
    /// Simulator(seed)); domains 1+ get independent streams derived via
    /// splitmix64, so a run is reproducible from one seed and domain-0
    /// workloads are stream-identical across domain counts.
    explicit ShardedKernel(std::size_t num_domains,
                           std::uint64_t seed = 0x5AA5F00DULL);
    /// Pending events are dropped with their queues, like a Simulator
    /// destroyed mid-run.
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel&) = delete;
    ShardedKernel& operator=(const ShardedKernel&) = delete;

    [[nodiscard]] std::size_t num_domains() const noexcept { return domains_.size(); }
    [[nodiscard]] Simulator& domain(std::size_t index);
    [[nodiscard]] const DomainKernel& domain_kernel(std::size_t index) const;

    /// Declare that `domain` may emit cross-domain events with at least
    /// `min_latency` of delay; its lookahead becomes the minimum of all
    /// declarations. Must be > 0: a zero-latency cross-domain link would
    /// admit no progress.
    void declare_lookahead(std::size_t domain, Duration min_latency);
    /// Same, resolving the domain from one of this kernel's simulators.
    void declare_lookahead(const Simulator& from, Duration min_latency);

    /// Run `action` at exactly `at` with every domain quiescent and every
    /// domain clock advanced to `at` (global barrier; see header comment).
    /// Scripts at equal times run in registration order. Call from the
    /// coordinator context only (before run_until(), or from a script).
    void schedule_script(Time at, std::function<void()> action);

    /// Drain every domain up to and including `until` through conservative
    /// windows. Returns the number of events executed across all domains.
    /// On return (without stop()) every domain clock reads `until`.
    std::size_t run_until(Time until);
    std::size_t run_for(Duration span) { return run_until(now_ + span); }

    /// Request that run_until() return at the next barrier, leaving
    /// remaining events queued. Thread-safe; consumed like Simulator::stop().
    void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

    /// Barrier time: the coordinator's lower bound on global progress.
    [[nodiscard]] Time now() const noexcept { return now_; }
    /// Actual global progress: the furthest any domain clock has advanced,
    /// never below now(). Unlike now() this stays meaningful when a window
    /// threw (now() is only updated after a window completes) — partial
    /// reports after a mid-run violation read this. Every domain finishes
    /// its window before a window exception is rethrown, so after one this
    /// reads the furthest clock any domain reached.
    [[nodiscard]] Time progress() const noexcept;
    /// Events executed across all domains since construction.
    [[nodiscard]] std::uint64_t executed_events() const noexcept;
    /// Windows executed (diagnostic: work per barrier).
    [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
    /// Cross-domain events delivered through the mailboxes (diagnostic).
    [[nodiscard]] std::uint64_t cross_domain_events() const noexcept {
        return cross_posts_;
    }

    /// True when `simulator` is one of this kernel's domains.
    [[nodiscard]] bool owns(const Simulator& simulator) const noexcept {
        return simulator.shard() == this;
    }

private:
    friend void post(Simulator& target, Time at, EventQueue::Action action);

    /// Run one window: every domain, in index order, drains to `window_end`.
    void run_window(Time window_end);
    /// Merge all outboxes into their target queues, deterministically.
    void flush_outboxes();
    /// Called from inside a domain's window (via post()) for a cross-domain
    /// send.
    void post_from(std::size_t from, std::size_t to, Time at,
                   EventQueue::Action action);

    std::vector<std::unique_ptr<DomainKernel>> domains_;
    Time now_ = Time::zero();
    std::atomic<bool> stop_{false};
    std::uint64_t windows_ = 0;
    std::uint64_t cross_posts_ = 0;
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

    Time horizon_ = Time::max(); ///< current window's safe horizon (post() check)
};

/// Schedule `action` at absolute time `at` on `target`, routing through the
/// sharded mailboxes when (and only when) the caller is executing the
/// window of a *different* domain. From quiescent contexts (between runs,
/// a script barrier), from the target's own window, or for a standalone
/// simulator outside any window this is exactly Simulator::schedule_at.
/// Cross-domain sends must satisfy the conservative contract: `at` must lie
/// at or beyond the current window's horizon, which holds by construction
/// when `at` = sender-domain now + a declared link latency.
void post(Simulator& target, Time at, EventQueue::Action action);

} // namespace sa::sim
