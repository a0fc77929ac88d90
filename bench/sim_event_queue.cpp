// SIM-EQ — kernel hot path: the bucketed event queue behind every substrate
// (CAN bus, ECU schedulers, monitors, platoon messaging). The self-awareness
// loop only stays affordable on automotive hardware if scheduling is cheap
// (Schlatow et al. 2017; ROADMAP "hot-path candidates").
//
// Series:
//  - BM_SameTimestampPops: push/pop N events that all share one timestamp —
//    the dense-cohort case produced by periodic monitors and batched CAN
//    windows. The bucketed queue amortises this to O(1) per event; the
//    comparator-heap reference (the pre-batching design, reproduced below)
//    pays O(log n) per event plus a pool scan.
//  - BM_HeapReferenceSameTimestampPops: that reference implementation. The
//    batching rework's speedup is the `real_time` of BM_SameTimestampPops/10000
//    against BM_HeapReferenceSameTimestampPops/10000 in the same run.
//  - BM_RunUntilDrain: Simulator::run_until() over dense timestamp
//    cohorts.
//  - BM_CancelHeavy: schedule/cancel churn (the rte scheduler's
//    preempt-and-reschedule pattern); generation-counter cancel is O(1).
//  - BM_BucketRecycleWaves: waves of distinct timestamps on one long-lived
//    queue — counts the allocations of one warm wave (zero: buckets and
//    slots are recycled).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_hook.hpp"

using namespace sa::sim;

namespace {

/// The pre-batching EventQueue design, kept here as an in-bench reference so
/// the speedup is measurable in a single run: a std::priority_queue of
/// heap-allocated entries ordered by (time, seq), with lazily reaped
/// tombstones and a retained-pool scan on pop.
class HeapReferenceQueue {
public:
    using Action = std::function<void()>;

    ~HeapReferenceQueue() {
        for (Entry* e : pool_) {
            delete e;
        }
    }

    void push(Time at, Action action) {
        auto* entry = new Entry{at, next_seq_++, std::move(action)};
        pool_.push_back(entry);
        heap_.push(entry);
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

    struct Popped {
        Time at;
        Action action;
    };
    Popped pop() {
        Entry* top = heap_.top();
        heap_.pop();
        pool_.erase(std::remove(pool_.begin(), pool_.end(), top), pool_.end());
        Popped out{top->at, std::move(top->action)};
        delete top;
        return out;
    }

private:
    struct Entry {
        Time at;
        std::uint64_t seq;
        Action action;
    };
    struct Cmp {
        bool operator()(const Entry* a, const Entry* b) const noexcept {
            if (a->at != b->at) {
                return a->at > b->at;
            }
            return a->seq > b->seq;
        }
    };
    std::priority_queue<Entry*, std::vector<Entry*>, Cmp> heap_;
    std::vector<Entry*> pool_;
    std::uint64_t next_seq_ = 1;
};

void BM_SameTimestampPops(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < n; ++i) {
            q.push(Time(1'000), [&sink] { ++sink; });
        }
        while (!q.empty()) {
            auto popped = q.pop();
            popped.action();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SameTimestampPops)->Arg(100)->Arg(1'000)->Arg(10'000);

void BM_HeapReferenceSameTimestampPops(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        HeapReferenceQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < n; ++i) {
            q.push(Time(1'000), [&sink] { ++sink; });
        }
        while (!q.empty()) {
            auto popped = q.pop();
            popped.action();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HeapReferenceSameTimestampPops)->Arg(100)->Arg(1'000)->Arg(10'000);

/// Cohort drain through Simulator::run_until(): 64 timestamps x `cohort`
/// events each, the shape of a fleet of same-period monitors.
void BM_RunUntilDrain(benchmark::State& state) {
    const int cohort = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t sink = 0;
        for (int t = 1; t <= 64; ++t) {
            for (int i = 0; i < cohort; ++i) {
                sim.schedule_at(Time(t * 1'000), [&sink] { ++sink; });
            }
        }
        sim.run_until(Time::max());
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 64 * cohort);
}
BENCHMARK(BM_RunUntilDrain)->Arg(16)->Arg(256);

/// The rte scheduler's pattern: schedule a completion, cancel it on
/// preemption, reschedule. Cancel is O(1) via generation counters.
void BM_CancelHeavy(benchmark::State& state) {
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        std::vector<EventHandle> handles;
        handles.reserve(1'000);
        for (int i = 0; i < 1'000; ++i) {
            handles.push_back(q.push(Time(i), [&sink] { ++sink; }));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2) {
            q.cancel(handles[i]);
        }
        while (!q.empty()) {
            auto popped = q.pop();
            popped.action();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_CancelHeavy);

/// Waves of 64 distinct timestamps pushed and drained on one long-lived
/// queue — the steady-state shape of a simulation that keeps opening and
/// retiring timestamp buckets. Only the first wave grows the slot table and
/// the bucket store; every later wave reuses them.
void BM_BucketRecycleWaves(benchmark::State& state) {
    EventQueue q; // outlives all iterations: recycling is the point
    std::uint64_t sink = 0;
    // Untimed warm-up: grow the queue's storage to its steady-state size so
    // the timed iterations measure recycling, not first-contact growth.
    for (int wave = 0; wave < 16; ++wave) {
        for (int i = 0; i < 64; ++i) {
            q.push(Time(wave * 64 + i + 1), [&sink] { ++sink; });
        }
        while (!q.empty()) {
            auto popped = q.pop();
            popped.action();
        }
    }
    for (auto _ : state) {
        for (int wave = 0; wave < 16; ++wave) {
            for (int i = 0; i < 64; ++i) {
                q.push(Time(wave * 64 + i + 1), [&sink] { ++sink; });
            }
            while (!q.empty()) {
                auto popped = q.pop();
                popped.action();
            }
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 16 * 64);
    // Untimed probe: one more wave on the warm queue, whose figure does not
    // depend on the iteration count. The allocations are counted by the
    // operator-new interposition; the hard zero pin lives in test_alloc.
    {
        sa::util::alloc_hook::CountScope scope;
        for (int i = 0; i < 64; ++i) {
            q.push(Time(16 * 64 + i + 1), [&sink] { ++sink; });
        }
        while (!q.empty()) {
            auto popped = q.pop();
            popped.action();
        }
        state.counters["steady_allocs_per_wave"] =
            static_cast<double>(scope.allocations());
    }
}
BENCHMARK(BM_BucketRecycleWaves);

} // namespace
