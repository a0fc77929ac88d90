#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <limits>

#include <sys/resource.h>

namespace perfbench {

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t process_cpu_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::int64_t timeval_ns(const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

rusage usage(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return ru;
}

} // namespace

std::int64_t children_cpu_ns() {
    const rusage ru = usage(RUSAGE_CHILDREN);
    return timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
}

// VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so it would
// report the peak of the process that launched the benchmark.
double self_peak_rss_mb() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) {
        return 0.0;
    }
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
            break;
        }
    }
    std::fclose(status);
    return static_cast<double>(kib) / 1024.0;
}

// ru_maxrss is in KiB on Linux. A worker is forked from this process, so its
// figure also counts the pages it shared with the benchmark before exec.
double children_peak_rss_mb() {
    return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size());
    std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999999) - 1;
    index = std::min(index, samples.size() - 1);
    return samples[index];
}

std::uint64_t SplitMix::next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void Fingerprint::add(std::string_view text) noexcept {
    for (const char c : text) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff; // item separator
    hash_ *= 0x100000001b3ULL;
}

void Fingerprint::add(std::int64_t value) noexcept {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    add(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string hex64(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer(std::size_t domains) : buffers_(1 + domains) {}

std::uint64_t Tracer::make_id(std::size_t buffer) {
    // Buffer index in the high bits: ids stay unique without any sharing.
    return (static_cast<std::uint64_t>(buffer) << 48) | ++buffers_[buffer].next_id;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(std::numeric_limits<std::size_t>::max()) {
    if (!tracer_.active()) {
        return;
    }
    Span span;
    span.id = tracer_.make_id(0);
    span.parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
    span.unit = tracer_.unit_;
    span.name = name;
    auto& spans = tracer_.buffers_[0].spans;
    index_ = spans.size();
    tracer_.open_.push_back(span.id);
    span.start_ns = wall_ns();
    spans.push_back(span);
}

Tracer::Scope::~Scope() {
    if (index_ == std::numeric_limits<std::size_t>::max()) {
        return;
    }
    tracer_.buffers_[0].spans[index_].end_ns = wall_ns();
    tracer_.open_.pop_back();
}

Tracer& Tracer::UnitScope::enter(Tracer& tracer, std::uint64_t unit) {
    tracer.unit_ = unit;
    return tracer;
}

Tracer::UnitScope::UnitScope(Tracer& tracer, std::uint64_t unit)
    : tracer_(tracer), scope_(enter(tracer, unit), "unit") {
    if (tracer_.active()) {
        tracer_.unit_span_.store(tracer_.open_.back(), std::memory_order_relaxed);
        tracer_.unit_for_domains_.store(unit, std::memory_order_relaxed);
    }
}

Tracer::UnitScope::~UnitScope() {
    tracer_.unit_ = 0;
    tracer_.unit_span_.store(0, std::memory_order_relaxed);
    tracer_.unit_for_domains_.store(0, std::memory_order_relaxed);
}

void Tracer::record_on_domain(std::size_t domain, const char* name,
                              std::int64_t start_ns, std::int64_t end_ns) {
    const std::size_t buffer = 1 + domain;
    Span span;
    span.id = make_id(buffer);
    span.parent = unit_span_.load(std::memory_order_relaxed);
    span.unit = unit_for_domains_.load(std::memory_order_relaxed);
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    buffers_[buffer].spans.push_back(span);
}

std::vector<Span> Tracer::finish() {
    std::vector<Span> all;
    for (auto& buffer : buffers_) {
        all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
        buffer.spans.clear();
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    // Self time: a span's duration minus the union of its children's
    // intervals (children from two domain threads may overlap each other).
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
    for (const Span& span : all) {
        if (span.parent != 0) {
            children[span.parent].emplace_back(span.start_ns, span.end_ns);
        }
    }
    for (Span& span : all) {
        std::int64_t covered = 0;
        const auto it = children.find(span.id);
        if (it != children.end()) {
            auto& intervals = it->second; // already in start order
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            bool open = false;
            for (auto [start, end] : intervals) {
                start = std::max(start, span.start_ns);
                end = std::min(end, span.end_ns);
                if (end <= start) {
                    continue;
                }
                if (open && start <= hi) {
                    hi = std::max(hi, end);
                    continue;
                }
                if (open) {
                    covered += hi - lo;
                }
                lo = start;
                hi = end;
                open = true;
            }
            if (open) {
                covered += hi - lo;
            }
        }
        span.self_ns = (span.end_ns - span.start_ns) - covered;
    }
    return all;
}

std::map<std::string, SpanSummary> Tracer::summarize(const std::vector<Span>& spans) {
    std::map<std::string, SpanSummary> out;
    for (const Span& span : spans) {
        SpanSummary& s = out[span.name];
        s.self_ms += static_cast<double>(span.self_ns) / 1e6;
        s.durations_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
    return out;
}

bool Tracer::write(const std::string& path, const std::vector<Span>& spans) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fprintf(out, "id\tparent\tunit\tname\tstart_ns\tend_ns\tself_ns\n");
    for (const Span& s : spans) {
        std::fprintf(out, "%llx\t%llx\t%llu\t%s\t%lld\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.unit), s.name,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.self_ns));
    }
    return std::fclose(out) == 0;
}

// --- UnitMeter ----------------------------------------------------------------

void UnitMeter::begin() {
    cpu0_ = process_cpu_ns() + (with_children_ ? children_cpu_ns() : 0);
    wall0_ = wall_ns();
}

void UnitMeter::end(double vehicle_s, bool traced, RunTotals& totals) const {
    const std::int64_t wall1 = wall_ns();
    const std::int64_t cpu1 = process_cpu_ns() + (with_children_ ? children_cpu_ns() : 0);
    const double host_s = static_cast<double>(wall1 - wall0_) / 1e9;
    if (traced) {
        totals.traced_host_s += host_s;
        totals.traced_vehicle_s += vehicle_s;
        return;
    }
    ++totals.units;
    totals.episode_unit_ms.push_back(host_s * 1e3);
    totals.host_s += host_s;
    totals.cpu_s += static_cast<double>(cpu1 - cpu0_) / 1e9;
    totals.vehicle_s += vehicle_s;
}

} // namespace perfbench
