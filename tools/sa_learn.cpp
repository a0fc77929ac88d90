// sa_learn: the learned-anomaly-model workbench. Records the canonical
// drift scenario's metric stream into a byte-stable .trace file, fits and
// scores the online models over recorded traces (the offline engine runs
// the exact in-sim algorithm), and replays a recording to prove the bytes
// reproduce.
//
//   usage: sa_learn <command> [options] ...
//
//   commands:
//     record <out.trace> [--seed <n>] [--duration-ms <n>] [--drift-step-m <x>]
//         run the drift demo, record vehicle "ego"'s ingest stream, save it
//         (scenario parameters are kept as trace metadata for replay)
//     fit <trace> [--warmup-ms <n>] [--threshold <bits>] [--band-width <x>]
//         [--seed <n>]
//         fit the per-metric baselines + joint-state model, print them
//     score <trace> [fit options] [--expect-anomaly]
//         print every alarm-state transition; with --expect-anomaly exit 1
//         when no learned_abnormality was raised
//     replay <trace>
//         re-run the recorded scenario and diff the bytes
//         exit 0 = byte-identical, 1 = diverged
//
//   A malformed command line or flag value exits 2 with a message naming
//   the flag.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "learn/drift_demo.hpp"
#include "learn/offline.hpp"
#include "learn/trace.hpp"
#include "scenario/scenario.hpp"
#include "util/string_util.hpp"

namespace {

int usage() {
    std::cerr << "usage: sa_learn record|fit|score|replay ...\n"
                 "       (see the header of tools/sa_learn.cpp)\n";
    return 2;
}

/// A malformed command line: main() prints it with the usage and exits 2.
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

enum class Bound { Any, NonNegative, Positive };

/// The value after the flag at args[i] (advancing i past it): the whole
/// text must parse as a finite T within `bound`, else a UsageError names
/// the flag.
template <typename T>
T flag_value(const std::vector<std::string>& args, std::size_t& i, Bound bound) {
    const std::string& flag = args[i];
    if (i + 1 == args.size()) {
        throw UsageError(flag + " needs a value");
    }
    const std::string& text = args[++i];
    T value{};
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
    bool ok = error == std::errc{} && end == text.data() + text.size();
    if constexpr (std::is_floating_point_v<T>) {
        ok = ok && std::isfinite(value);
    }
    if (bound == Bound::NonNegative) {
        ok = ok && value >= T{0};
    } else if (bound == Bound::Positive) {
        ok = ok && value > T{0};
    }
    if (!ok) {
        const char* wanted = bound == Bound::Positive      ? "a positive number"
                             : bound == Bound::NonNegative ? "a non-negative number"
                                                           : "a number";
        throw UsageError(flag + " expects " + wanted + ", got '" + text + "'");
    }
    return value;
}

/// Run the drift demo and record "ego"'s metric stream, stamping the
/// scenario parameters into the trace metadata so replay can rebuild it.
sa::learn::Trace record_drift(const sa::learn::DriftDemoConfig& config) {
    sa::scenario::ScenarioBuilder builder = sa::learn::make_drift_demo(config);
    const std::unique_ptr<sa::scenario::Scenario> scenario = builder.build();
    sa::learn::TraceRecorder recorder(scenario->vehicle("ego").monitors());
    scenario->run(config.duration, config.domains);
    sa::learn::Trace trace = std::move(recorder.trace());
    trace.set_meta("scenario", "drift_demo");
    trace.set_meta("seed", std::to_string(config.seed));
    trace.set_meta("duration_ns", std::to_string(config.duration.count_ns()));
    return trace;
}

struct ParsedArgs {
    sa::learn::DriftDemoConfig demo;
    /// --warmup-ms: the scored model's warm-up only; the recorded scenario
    /// keeps its own.
    std::optional<sa::sim::Duration> warmup;
    bool expect_anomaly = false;
    std::string file;
};

ParsedArgs parse_args(const std::vector<std::string>& args) {
    ParsedArgs parsed;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--seed") {
            parsed.demo.seed = flag_value<std::uint64_t>(args, i, Bound::Any);
        } else if (arg == "--duration-ms") {
            parsed.demo.duration =
                sa::sim::Duration::ms(flag_value<std::int64_t>(args, i, Bound::Positive));
        } else if (arg == "--drift-step-m") {
            parsed.demo.drift_step_m = flag_value<double>(args, i, Bound::Any);
        } else if (arg == "--band-width") {
            parsed.demo.band_width = flag_value<double>(args, i, Bound::Positive);
        } else if (arg == "--warmup-ms") {
            parsed.warmup =
                sa::sim::Duration::ms(flag_value<std::int64_t>(args, i, Bound::NonNegative));
        } else if (arg == "--threshold") {
            parsed.demo.score_threshold = flag_value<double>(args, i, Bound::Positive);
        } else if (arg == "--expect-anomaly") {
            parsed.expect_anomaly = true;
        } else if (!arg.empty() && arg.front() == '-') {
            throw UsageError("unknown option " + arg);
        } else {
            parsed.file = arg;
        }
    }
    if (parsed.file.empty()) {
        throw UsageError("missing trace file");
    }
    return parsed;
}

int cmd_record(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    const sa::learn::Trace trace = record_drift(parsed.demo);
    trace.save(parsed.file);
    std::cout << "recorded " << trace.samples.size() << " samples (seed "
              << parsed.demo.seed << ") -> " << parsed.file << '\n';
    return 0;
}

/// Score-model defaults for fit/score: mirror the drift demo's monitor so
/// the offline verdict matches what the recording vehicle raised.
sa::learn::LearnedMonitorConfig offline_config(const ParsedArgs& parsed) {
    // parsed.demo already carries --seed/--threshold/--band-width.
    sa::learn::DriftDemoConfig demo = parsed.demo;
    if (parsed.warmup) {
        demo.warmup = *parsed.warmup;
    }
    return sa::learn::drift_demo_model(demo);
}

int cmd_fit(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    const sa::learn::Trace trace = sa::learn::Trace::load(parsed.file);
    const sa::learn::OfflineResult result =
        sa::learn::run_offline(trace, offline_config(parsed));
    std::cout << "metrics: " << result.metrics.size() << '\n';
    for (const sa::learn::MetricBaseline& metric : result.metrics) {
        std::cout << sa::format(
            "  %-16s samples=%zu mean=%.4f sigma=%.4f ewma=%.4f drift_z=%.2f%s\n",
            metric.name.c_str(), metric.samples, metric.mean, metric.sigma,
            metric.ewma, metric.drift_z, metric.warmed_up ? "" : " (warming)");
    }
    std::cout << sa::format("states: %zu, evaluations=%llu, max_score=%.2f bits\n",
                            result.state_count,
                            static_cast<unsigned long long>(result.evaluations),
                            result.max_score);
    return 0;
}

int cmd_score(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    const sa::learn::Trace trace = sa::learn::Trace::load(parsed.file);
    const sa::learn::OfflineResult result =
        sa::learn::run_offline(trace, offline_config(parsed));
    std::size_t abnormal = 0;
    for (const sa::learn::ScoredEvent& event : result.events) {
        abnormal += event.abnormal ? 1 : 0;
        std::cout << sa::format("  %10.4fs state=%zu score=%.2f bits %s\n",
                                static_cast<double>(event.at_ns) / 1e9,
                                event.state, event.score,
                                event.abnormal ? "ABNORMAL" : "recovered");
    }
    std::cout << sa::format("events: %zu (%zu abnormal), max_score=%.2f bits\n",
                            result.events.size(), abnormal, result.max_score);
    if (parsed.expect_anomaly && abnormal == 0) {
        std::cerr << "sa_learn: expected a learned_abnormality, none raised\n";
        return 1;
    }
    return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    const sa::learn::Trace recorded = sa::learn::Trace::load(parsed.file);
    const std::string* scenario = recorded.find_meta("scenario");
    if (scenario == nullptr || *scenario != "drift_demo") {
        std::cerr << "sa_learn: " << parsed.file
                  << " was not recorded from the drift demo\n";
        return 2;
    }
    sa::learn::DriftDemoConfig config;
    config.seed = static_cast<std::uint64_t>(
        recorded.meta_int("seed", static_cast<std::int64_t>(config.seed)));
    config.duration = sa::sim::Duration::ns(
        recorded.meta_int("duration_ns", config.duration.count_ns()));
    sa::learn::Trace fresh = record_drift(config);
    // The replay parameters came from the recorded metadata; older traces
    // also carry a domains line, which never changed the samples.
    fresh.meta = recorded.meta;
    if (fresh.str() == recorded.str()) {
        std::cout << "REPLAY OK: " << fresh.samples.size()
                  << " samples byte-identical\n";
        return 0;
    }
    std::cout << "REPLAY DIVERGED: " << recorded.samples.size()
              << " recorded vs " << fresh.samples.size() << " fresh samples\n";
    const std::size_t n = std::min(recorded.samples.size(), fresh.samples.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(recorded.samples[i] == fresh.samples[i])) {
            std::cout << sa::format(
                "  first divergence at sample %zu: %lld %s %.17g vs %lld %s "
                "%.17g\n",
                i, static_cast<long long>(recorded.samples[i].at_ns),
                recorded.samples[i].name.c_str(), recorded.samples[i].value,
                static_cast<long long>(fresh.samples[i].at_ns),
                fresh.samples[i].name.c_str(), fresh.samples[i].value);
            break;
        }
    }
    return 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "record") {
            return cmd_record(args);
        }
        if (command == "fit") {
            return cmd_fit(args);
        }
        if (command == "score") {
            return cmd_score(args);
        }
        if (command == "replay") {
            return cmd_replay(args);
        }
    } catch (const UsageError& error) {
        std::cerr << "sa_learn: " << error.what() << '\n';
        return usage();
    } catch (const std::exception& error) {
        std::cerr << "sa_learn: " << error.what() << '\n';
        return 2;
    }
    return usage();
}
