#pragma once
// Bucketed event queue for the discrete-event kernel.
//
// Events are grouped into per-timestamp *buckets*: a binary min-heap orders
// the distinct timestamps while each bucket holds its events in insertion
// order. Pushing into an existing bucket and popping within a bucket are
// O(1); the O(log n) heap work is paid once per distinct timestamp instead
// of once per event. This is what makes dense same-time cohorts (periodic
// monitors, batched CAN windows) cheap.
//
// Memory layout (the steady-state hot path is allocation-free, and storage
// is bounded by the peak number of pending events):
//  - Every pending event lives in one queue-wide slot table. A slot holds
//    the action (util::InlineCallable, 24 inline bytes: typical captures
//    such as {this, id, token} never touch the heap; bigger captures fall
//    back to one heap allocation), the index of the next slot in its
//    bucket, and a generation counter. Free slots are chained through the
//    same index, so the table never holds more entries than the most events
//    ever pending at once.
//  - A bucket is a timestamp plus the head and tail of its FIFO of slots.
//    Buckets have stable addresses (util::StableVector) and are recycled
//    through an intrusive free list; they own no storage of their own, so a
//    timestamp that once held a large cohort leaves nothing behind.
//  - The timestamp -> bucket index is a last-bucket cache over an
//    open-addressed flat table (util::FlatPtrMap64): repeated pushes to the
//    current cohort hit the cache, everything else is one mixed probe.
//
// Cancellation uses generation counters: an event's handle stores its
// slot's generation at push time. cancel() is O(1) — it destroys the
// action, which marks the slot dead — and a handle can never revoke a later
// event that reuses the same slot, because releasing a slot bumps its
// generation. Dead slots are unlinked when their bucket reaches the front.

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/flat_map.hpp"
#include "util/inline_callable.hpp"
#include "util/stable_vector.hpp"

namespace sa::sim {

/// Opaque handle for cancelling a scheduled event.
///
/// A handle stays valid-looking forever, but cancel() only succeeds while
/// the event it names is still pending: once the event has fired, been
/// cancelled, or the queue has been cleared, cancel() returns false. Slot
/// reuse is made safe by the generation counter — a stale handle can never
/// cancel a newer event.
class EventHandle {
public:
    EventHandle() = default;

    /// True if this handle was ever bound to an event. Note this does NOT
    /// mean the event is still pending — see cancel().
    [[nodiscard]] bool valid() const noexcept { return slot_ != 0; }

private:
    friend class EventQueue;
    EventHandle(std::uint32_t slot_plus1, std::uint32_t generation)
        : slot_(slot_plus1), generation_(generation) {}
    std::uint32_t slot_ = 0; ///< slot index + 1; 0 = never bound
    std::uint32_t generation_ = 0;
};

/// Priority event queue with stable FIFO order inside each timestamp.
///
/// Ordering contract: events fire in ascending timestamp order; events with
/// equal timestamps fire in push order (stable), which keeps simulations
/// deterministic regardless of heap internals.
class EventQueue {
public:
    /// Move-only small-buffer callable (24 inline bytes; see header note).
    using Action = util::InlineCallable<void(), 24>;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;
    ~EventQueue() { clear(); }

    /// Schedule an action at absolute time `at`. Returns a cancellation
    /// handle. Amortised O(1) when `at` already has pending events,
    /// O(log n distinct timestamps) otherwise.
    EventHandle push(Time at, Action action);

    /// Cancel a previously scheduled event in O(1), destroying its action.
    /// Returns false if it already fired, was already cancelled, or the
    /// queue was cleared since.
    bool cancel(EventHandle handle);

    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    /// Entries in the slot table: the most events (pending, or cancelled and
    /// not yet unlinked) the queue ever held at once. Its storage is this
    /// many Slots plus the vector's growth slack.
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

    /// Earliest pending event time. Requires !empty().
    [[nodiscard]] Time next_time() const;

    /// Pop the earliest event. Requires !empty(). O(1) within a timestamp
    /// cohort; heap maintenance happens only on cohort boundaries.
    struct Popped {
        Time at;
        Action action;
    };
    Popped pop();

    /// Pop the earliest event into `out` if its time is <= `until`; returns
    /// false (leaving `out` untouched) when the queue is empty or the next
    /// event is later. Equivalent to `!empty() && next_time() <= until` then
    /// pop(), but with a single front-pruning pass — this is the simulator
    /// run-loop fast path.
    bool pop_until(Time until, Popped& out);

    void clear() noexcept;

private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /// One pending event, or a free entry. The action is empty when the
    /// event fired, was cancelled or the slot is free; `next` links the
    /// slot into its bucket's FIFO, or into the free list.
    struct Slot {
        Action action;
        std::uint32_t next = kNoSlot;
        std::uint32_t generation = 1;
    };
    /// All events at one timestamp: a FIFO of slots, consumed from the head.
    struct Bucket {
        std::int64_t at = 0;
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
        Bucket* next_free = nullptr;
    };

    /// Heap ordering for std::push_heap/pop_heap (max-heap builders):
    /// "greater-than" yields a min-heap on bucket timestamp.
    static bool bucket_after(const Bucket* a, const Bucket* b) noexcept {
        return a->at > b->at;
    }

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot) noexcept;
    void release_bucket(Bucket* bucket) noexcept;
    void retire_front_bucket() noexcept;
    /// Drop leading cancelled events (and exhausted buckets) so the heap
    /// front is a live event.
    void prune_front() noexcept;
    /// Move the front event into `out`. Requires a pruned, non-empty queue.
    void take_front(Popped& out) noexcept;

    // Min-heap over bucket timestamps (std::push_heap/pop_heap with a
    // greater-than comparator). Holds one entry per *distinct* timestamp.
    std::vector<Bucket*> heap_;
    /// Timestamp index: cache of the bucket the last push landed in (dense
    /// cohorts hit it almost always), backed by the flat table.
    Bucket* last_bucket_ = nullptr;
    util::FlatPtrMap64<Bucket*> by_time_;
    util::StableVector<Bucket, 16> buckets_;
    Bucket* free_buckets_ = nullptr;
    std::vector<Slot> slots_;
    std::uint32_t free_slots_ = kNoSlot;
    std::size_t live_ = 0;
};

} // namespace sa::sim
