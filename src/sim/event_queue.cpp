#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::sim {

std::uint32_t EventQueue::acquire_slot() {
    if (free_slots_ != kNoSlot) {
        const std::uint32_t slot = free_slots_;
        free_slots_ = slots_[slot].next;
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    ++s.generation; // stale handles can never match this slot again
    s.next = free_slots_;
    free_slots_ = slot;
}

void EventQueue::release_bucket(Bucket* bucket) noexcept {
    bucket->next_free = free_buckets_;
    free_buckets_ = bucket;
}

void EventQueue::retire_front_bucket() noexcept {
    Bucket* bucket = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), &EventQueue::bucket_after);
    heap_.pop_back();
    by_time_.erase(bucket->at);
    if (last_bucket_ == bucket) {
        last_bucket_ = nullptr;
    }
    release_bucket(bucket);
}

EventHandle EventQueue::push(Time at, Action action) {
    SA_REQUIRE(static_cast<bool>(action), "cannot schedule an empty action");
    const std::int64_t at_ns = at.ns();
    Bucket* bucket = (last_bucket_ != nullptr && last_bucket_->at == at_ns)
                         ? last_bucket_
                         : by_time_.find(at_ns);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = std::move(action);
    s.next = kNoSlot;
    if (bucket == nullptr) {
        if (free_buckets_ != nullptr) {
            bucket = free_buckets_;
            free_buckets_ = bucket->next_free;
        } else {
            bucket = &buckets_.emplace_back();
        }
        bucket->at = at_ns;
        bucket->head = slot;
        by_time_.insert(at_ns, bucket);
        heap_.push_back(bucket);
        std::push_heap(heap_.begin(), heap_.end(), &EventQueue::bucket_after);
    } else {
        slots_[bucket->tail].next = slot;
    }
    bucket->tail = slot;
    last_bucket_ = bucket;
    ++live_;
    return EventHandle(slot + 1, s.generation);
}

bool EventQueue::cancel(EventHandle handle) {
    if (!handle.valid()) {
        return false;
    }
    const std::uint32_t slot = handle.slot_ - 1;
    if (slot >= slots_.size()) {
        return false;
    }
    Slot& s = slots_[slot];
    if (!s.action || s.generation != handle.generation_) {
        return false; // already fired, already cancelled, or slot reused
    }
    s.action = nullptr; // the dead slot is unlinked when its bucket drains
    --live_;
    return true;
}

void EventQueue::prune_front() noexcept {
    while (!heap_.empty()) {
        Bucket* bucket = heap_.front();
        while (bucket->head != kNoSlot) {
            const std::uint32_t slot = bucket->head;
            if (slots_[slot].action) {
                return; // front is a live event
            }
            bucket->head = slots_[slot].next;
            release_slot(slot);
        }
        retire_front_bucket();
    }
}

void EventQueue::take_front(Popped& out) noexcept {
    Bucket* bucket = heap_.front();
    const std::uint32_t slot = bucket->head;
    out.at = Time(bucket->at);
    out.action = std::move(slots_[slot].action);
    bucket->head = slots_[slot].next;
    release_slot(slot);
    --live_;
    if (bucket->head == kNoSlot) {
        retire_front_bucket();
    }
}

Time EventQueue::next_time() const {
    auto* self = const_cast<EventQueue*>(this);
    self->prune_front();
    SA_REQUIRE(!heap_.empty(), "next_time on empty queue");
    return Time(heap_.front()->at);
}

EventQueue::Popped EventQueue::pop() {
    prune_front();
    SA_REQUIRE(!heap_.empty(), "pop on empty queue");
    Popped out;
    take_front(out);
    return out;
}

bool EventQueue::pop_until(Time until, Popped& out) {
    prune_front();
    if (heap_.empty() || heap_.front()->at > until.ns()) {
        return false;
    }
    take_front(out);
    return true;
}

void EventQueue::clear() noexcept {
    // Release every queued slot (bumping its generation) so outstanding
    // handles can never cancel events scheduled after the clear.
    for (Bucket* bucket : heap_) {
        for (std::uint32_t slot = bucket->head; slot != kNoSlot;) {
            const std::uint32_t next = slots_[slot].next;
            slots_[slot].action = nullptr;
            release_slot(slot);
            slot = next;
        }
        release_bucket(bucket);
    }
    heap_.clear();
    by_time_.clear();
    last_bucket_ = nullptr;
    live_ = 0;
}

} // namespace sa::sim
