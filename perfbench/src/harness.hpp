#pragma once
// perfbench harness: clocks, sample statistics, output fingerprints, the
// span tracer and the per-run accumulators every workload shares.
//
// Everything here measures the program from outside: spans wrap the
// benchmark's own calls into the library's public functions, counters come
// from public accessors. Nothing in src/ knows it is being measured.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- clocks ------------------------------------------------------------------

/// Monotonic host time.
[[nodiscard]] std::int64_t wall_ns();
/// CPU time of this process, summed over all of its threads.
[[nodiscard]] std::int64_t process_cpu_ns();
/// CPU time of reaped child processes (campaign workers).
[[nodiscard]] std::int64_t children_cpu_ns();
/// Peak resident set size of this process.
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set size of the largest reaped child process.
[[nodiscard]] double children_peak_rss_mb();

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile, `p` in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Deterministic 64-bit generator (splitmix64): the workload inputs must not
/// depend on the standard library's distribution implementations.
class SplitMix {
public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() noexcept;
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

private:
    std::uint64_t state_;
};

/// FNV-1a over the simulated outputs of one episode. Items are separated so
/// that ("ab", "c") and ("a", "bc") differ.
class Fingerprint {
public:
    void add(std::string_view text) noexcept;
    void add(std::int64_t value) noexcept;
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t value);

// --- spans -------------------------------------------------------------------

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: no parent
    std::uint64_t unit = 0;   ///< shared by every span of one unit; 0: set-up
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0; ///< filled by Tracer::finish()
};

/// Per-name totals over a finished trace.
struct SpanSummary {
    double self_ms = 0.0;
    std::vector<double> durations_ms;
};

/// In-memory span recorder. The main thread opens nested spans through
/// Scope; callbacks running on simulation-domain worker threads record
/// finished spans into their own domain's buffer (record_on_domain), so no
/// two threads ever append to one vector. Buffers are merged by finish(),
/// after the run.
class Tracer {
public:
    /// One buffer for the main thread plus one per simulation domain.
    explicit Tracer(std::size_t domains);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Spans are recorded only while active. Toggle between units only
    /// (the simulation kernel is quiescent then).
    void set_active(bool on) noexcept { active_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool active() const noexcept {
        return active_.load(std::memory_order_relaxed);
    }

    /// RAII span on the main thread; nests under the innermost open Scope.
    class Scope {
    public:
        Scope(Tracer& tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::size_t index_; ///< position in the main buffer; SIZE_MAX: inactive
    };

    /// Open the span of unit `unit` (> 0): every span recorded until the
    /// matching Scope closes carries this unit identifier, and spans from
    /// domain threads take it as their parent.
    class UnitScope {
    public:
        UnitScope(Tracer& tracer, std::uint64_t unit);
        ~UnitScope();
        UnitScope(const UnitScope&) = delete;
        UnitScope& operator=(const UnitScope&) = delete;

    private:
        static Tracer& enter(Tracer& tracer, std::uint64_t unit);

        Tracer& tracer_;
        Scope scope_;
    };

    /// Record a finished span from the worker thread of `domain`.
    void record_on_domain(std::size_t domain, const char* name, std::int64_t start_ns,
                          std::int64_t end_ns);

    /// Merge the buffers (start order) and compute self times. Call once,
    /// after the run, with every domain thread quiescent.
    [[nodiscard]] std::vector<Span> finish();

    [[nodiscard]] static std::map<std::string, SpanSummary>
    summarize(const std::vector<Span>& spans);
    /// Tab-separated dump: id parent unit name start_ns end_ns self_ns.
    static bool write(const std::string& path, const std::vector<Span>& spans);

private:
    /// One buffer per thread. Aligned so the domain threads' appends do not
    /// share cache lines.
    struct alignas(64) Buffer {
        std::vector<Span> spans;
        std::uint64_t next_id = 0;
    };

    std::uint64_t make_id(std::size_t buffer);

    std::atomic<bool> active_{false};
    std::vector<Buffer> buffers_;                 ///< [0] main thread, [1 + d] domain d
    std::vector<std::uint64_t> open_;             ///< main-thread stack of open span ids
    std::uint64_t unit_ = 0;                      ///< main thread: current unit
    std::atomic<std::uint64_t> unit_span_{0};     ///< read by domain threads
    std::atomic<std::uint64_t> unit_for_domains_{0};
};

// --- per-run accumulators -----------------------------------------------------

/// Deterministic per-layer counters of one episode, by metric name.
using Counters = std::map<std::string, double>;

/// The checked outputs of one episode.
struct Episode {
    /// Hex fingerprints, compared one by one with the committed reference:
    /// one per episode, or one per cell for campaigns.
    std::vector<std::string> fingerprints;
    Counters counters;
    double detect_react_ms_p50 = 0.0; ///< simulated
    double sense_act_us_p99 = 0.0;    ///< simulated
    std::uint64_t units = 0;
    std::uint64_t failed_units = 0; ///< units whose own check failed
    std::vector<std::string> errors;
};

/// Units covered by fingerprint `index` of an episode: a whole-episode
/// fingerprint covers every unit, a per-cell one covers its cell.
[[nodiscard]] inline std::uint64_t units_per_fingerprint(const Episode& episode) {
    return episode.fingerprints.size() == 1 ? episode.units : 1;
}

/// Host-time accumulators over a run's units.
struct RunTotals {
    std::uint64_t units = 0;       ///< untraced units
    double host_s = 0.0;           ///< untraced units
    double cpu_s = 0.0;            ///< untraced units
    double vehicle_s = 0.0;        ///< untraced units
    double traced_host_s = 0.0;    ///< traced units (trace runs only)
    double traced_vehicle_s = 0.0; ///< traced units
    std::vector<double> setup_s;
    /// Host times of the episode's untraced units; the runner clears it
    /// before every episode.
    std::vector<double> episode_unit_ms;
    /// Host-side per-layer measurements summed over the run (not part of
    /// the deterministic counters), e.g. campaign worker CPU time.
    std::map<std::string, double> extra;
};

/// Times one unit: host time, and CPU time of the process plus (when asked)
/// of the child processes it reaped.
class UnitMeter {
public:
    explicit UnitMeter(bool with_children) : with_children_(with_children) {}
    void begin();
    /// Close the unit that simulated `vehicle_s` vehicle-seconds.
    void end(double vehicle_s, bool traced, RunTotals& totals) const;

private:
    bool with_children_;
    std::int64_t wall0_ = 0;
    std::int64_t cpu0_ = 0;
};

} // namespace perfbench
