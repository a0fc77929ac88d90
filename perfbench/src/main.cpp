// perfbench: the repository benchmark. One process runs one workload for a
// fixed host time, checks every episode's simulated outputs against the
// committed reference fingerprints, and prints each metric by name with its
// unit, then one JSON result line. perfbench/run.py builds this binary and
// is the entry point; see perfbench/README.md for the metric definitions.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --worker EXE --refs FILE [--spans FILE]
//   perfbench record --workload W --worker EXE
//       print the reference line of every input variant of W
//   perfbench selftest --worker EXE --refs FILE
//       determinism self-test: per workload, two untraced episodes and a
//       traced one give identical fingerprints and per-layer counters

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "harness.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Host time unless marked simulated. Keep in step with BENCHMARK.json
// (run.py refuses a result whose names differ).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"vehicle_s_per_s", "vehicle_s/s"},
    {"cpu_ms_per_vehicle_s", "ms"},
    {"unit_ms_p50", "ms"},
    {"unit_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"detect_react_ms_p50", "ms"}, // simulated
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "ratio"},
    {"sim.cross_domain_events", "count"},
    {"sim.cross_domain_frac", "ratio"},
    {"sim.cpu_per_wall", "ratio"},
    {"can.frames", "count"},
    {"can.arbitration_rounds", "count"},
    {"can.controller_polls", "count"},
    {"can.frames_per_poll", "ratio"},
    {"can.gw_forwarded", "count"},
    {"can.gw_dropped", "count"},
    {"can.tx_dropped", "count"},
    {"can.sense_act_us_p99", "us"}, // simulated
    {"rte.jobs", "count"},
    {"rte.deadline_misses", "count"},
    {"rte.dropped_jobs", "count"},
    {"rte.faults_injected", "count"},
    {"rte.inject_ms", "ms"},
    {"monitor.ingests", "count"},
    {"monitor.checks", "count"},
    {"monitor.anomalies", "count"},
    {"monitor.anomalies_per_check", "ratio"},
    {"learn.evaluations", "count"},
    {"learn.alarms", "count"},
    {"core.problems_handled", "count"},
    {"core.problems_resolved", "count"},
    {"core.resolved_frac", "ratio"},
    {"core.escalations", "count"},
    {"core.conflicts_avoided", "count"},
    {"skills.tactics_applied", "count"},
    {"skills.follow_level_min", "level"},
    {"mesh.transmissions", "count"},
    {"mesh.deliveries", "count"},
    {"mesh.losses", "count"},
    {"mesh.delivery_frac", "ratio"},
    {"mesh.announces_relayed", "count"},
    {"mesh.cams_sent", "count"},
    {"mesh.cams_relayed", "count"},
    {"mesh.cams_unroutable", "count"},
    {"mesh.send_ms", "ms"},
    {"model.integrations", "count"},
    {"model.accept_frac", "ratio"},
    {"model.integrate_ms", "ms"},
    {"scenario.build_ms", "ms"},
    {"scenario.report_ms", "ms"},
    {"campaign.cells", "count"},
    {"campaign.ok_frac", "ratio"},
    {"campaign.cell_ms", "ms"},
    {"campaign.child_cpu_ms_per_cell", "ms"},
    {"campaign.parse_ms", "ms"},
    {"platoon.maneuvers", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_vehicle_s_per_s", "vehicle_s/s"},
    {"trace.overhead_frac", "ratio"},
};

/// Per-layer metrics timed by spans: the median duration of one call.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"rte.inject_ms", "rte.inject"},
    {"mesh.send_ms", "mesh.send_cam"},
    {"model.integrate_ms", "model.integrate"},
    {"scenario.build_ms", "scenario.build"},
    {"scenario.report_ms", "scenario.report"},
    {"campaign.cell_ms", "campaign.run_single"},
    {"campaign.parse_ms", "campaign.parse"},
};

std::string number(double value) {
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, result.ptr);
}

struct Args {
    std::string command;
    std::map<std::string, std::string> options;

    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback = {}) const {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }
    [[nodiscard]] std::string require(const std::string& key) const {
        const auto it = options.find(key);
        if (it == options.end() || it->second.empty()) {
            throw std::invalid_argument("missing --" + key);
        }
        return it->second;
    }
};

Args parse_args(int argc, char** argv) {
    Args args;
    if (argc < 2) {
        throw std::invalid_argument("missing command");
    }
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (!key.starts_with("--") || i + 1 >= argc) {
            throw std::invalid_argument("bad argument: " + key);
        }
        args.options[key.substr(2)] = argv[++i];
    }
    return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t variant,
                                        const std::string& worker) {
    if (name == "platoon_incidents") {
        return make_platoon_incidents(variant);
    }
    if (name == "fleet_mesh") {
        return make_fleet_mesh(variant);
    }
    if (name == "campaign_cells") {
        return make_campaign_cells(variant, worker);
    }
    throw std::invalid_argument("unknown workload: " + name);
}

/// Reference fingerprints: lines "<workload> <variant> <hex> [<hex> ...]".
std::vector<std::string> load_reference(const std::string& path, const std::string& workload,
                                        std::uint64_t variant) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read reference file " + path);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t v = 0;
        if (line.empty() || line.front() == '#' || !(fields >> name >> v) ||
            name != workload || v != variant) {
            continue;
        }
        std::vector<std::string> hashes;
        for (std::string hash; fields >> hash;) {
            hashes.push_back(hash);
        }
        return hashes;
    }
    throw std::runtime_error("no reference for " + workload + " variant " +
                             std::to_string(variant) + " in " + path);
}

/// Runs each episode on one CPU, taking the CPUs this process may use in
/// turn. The simulation's domain threads and the campaign workers an episode
/// starts inherit its CPU, so the hand-offs of the 2-domain fleet stay on one
/// CPU (spread over several, its wall time swung by a third between
/// identical runs). On the shared host the benchmark was tuned on, a run
/// held on one CPU throughout read up to a quarter off the median,
/// depending on the CPU it drew; taking them in turn averages them.
class CpuRotation {
public:
    CpuRotation() {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &allowed)) {
                    cpus_.push_back(cpu);
                }
            }
        }
    }

    /// Move the calling thread to the next CPU.
    void next() {
        if (cpus_.empty()) {
            return;
        }
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
        (void)::sched_setaffinity(0, sizeof set, &set);
    }

private:
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/// The host-time end-to-end metrics, one sample per episode, taken over the
/// untraced units the episode added to the run totals. A run reports each at
/// its slow quartile, the value that three episodes in four match or beat.
/// On the shared host the benchmark was tuned on, every CPU at once ran
/// 1.3-1.7x faster for bursts of a few seconds; a mean or a median over the
/// run moved with the share of the run such bursts covered, the slow
/// quartile only when they covered more than three quarters of it.
struct EpisodeSeries {
    std::vector<double> vehicle_s_per_s;
    std::vector<double> cpu_ms_per_vehicle_s;
    std::vector<double> unit_ms_p50;
    std::vector<double> unit_ms_p90;

    void add(double host_s, double cpu_s, double vehicle_s, const std::vector<double>& unit_ms) {
        if (host_s <= 0 || vehicle_s <= 0 || unit_ms.empty()) {
            return;
        }
        vehicle_s_per_s.push_back(vehicle_s / host_s);
        cpu_ms_per_vehicle_s.push_back(cpu_s * 1e3 / vehicle_s);
        unit_ms_p50.push_back(percentile(unit_ms, 50.0));
        unit_ms_p90.push_back(percentile(unit_ms, 90.0));
    }
};

bool same_outputs(const Episode& a, const Episode& b) {
    return a.fingerprints == b.fingerprints && a.counters == b.counters &&
           a.detect_react_ms_p50 == b.detect_react_ms_p50 &&
           a.sense_act_us_p99 == b.sense_act_us_p99;
}

int cmd_run(const Args& args) {
    const std::string name = args.require("workload");
    const std::uint64_t seed = std::stoull(args.require("seed"));
    const double seconds = std::stod(args.require("seconds"));
    const bool trace = args.require("trace") == "1";
    const std::uint64_t variant = seed % kVariants;
    auto workload = make_workload(name, variant, args.get("worker"));
    const std::vector<std::string> reference =
        load_reference(args.require("refs"), name, variant);

    CpuRotation cpus;
    workload->set_trace_run(trace);
    Tracer tracer(workload->domains());
    tracer.set_active(trace);
    RunTotals totals;
    Episode first;
    std::uint64_t episodes = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    EpisodeSeries series;

    const std::int64_t start = wall_ns();
    while (true) {
        cpus.next();
        const double host0 = totals.host_s;
        const double cpu0 = totals.cpu_s;
        const double vehicle0 = totals.vehicle_s;
        totals.episode_unit_ms.clear();
        Episode episode;
        try {
            Tracer::Scope span(tracer, "workload");
            episode = workload->run_episode(tracer, totals);
        } catch (const std::exception& error) {
            errors.push_back(std::string("episode threw: ") + error.what());
            ++attempted;
            ++failed;
            break;
        }
        ++episodes;
        series.add(totals.host_s - host0, totals.cpu_s - cpu0, totals.vehicle_s - vehicle0,
                   totals.episode_unit_ms);
        attempted += episode.units;
        std::uint64_t bad = episode.failed_units;
        for (std::string& error : episode.errors) {
            errors.push_back(std::move(error));
        }
        if (episode.fingerprints.size() != reference.size()) {
            errors.push_back("episode has " + std::to_string(episode.fingerprints.size()) +
                             " fingerprints, the reference " +
                             std::to_string(reference.size()));
            bad = episode.units;
        } else {
            for (std::size_t i = 0; i < reference.size(); ++i) {
                if (episode.fingerprints[i] != reference[i]) {
                    if (errors.size() < 8) {
                        errors.push_back("fingerprint " + std::to_string(i) + " is " +
                                         episode.fingerprints[i] + ", reference " +
                                         reference[i]);
                    }
                    bad += units_per_fingerprint(episode);
                }
            }
        }
        if (episodes == 1) {
            first = episode;
        } else if (!same_outputs(episode, first)) {
            errors.push_back("episode " + std::to_string(episodes) +
                             " differs from the first episode of this run");
            bad = episode.units;
        }
        failed += std::min(bad, episode.units);
        const double elapsed = static_cast<double>(wall_ns() - start) / 1e9;
        if (elapsed >= seconds && attempted >= 100) {
            break;
        }
    }
    tracer.set_active(false);
    for (const std::string& error : errors) {
        std::cerr << "perfbench: " << error << '\n';
    }

    std::vector<std::pair<const MetricDef*, double>> metrics;
    const auto put = [&metrics](const MetricDef& def, double value) {
        metrics.emplace_back(&def, value);
    };
    if (!trace) {
        double rss = self_peak_rss_mb();
        if (workload->child_processes()) {
            rss += children_peak_rss_mb();
        }
        const double values[] = {
            percentile(totals.setup_s, 50.0),
            percentile(series.vehicle_s_per_s, 25.0),
            percentile(series.cpu_ms_per_vehicle_s, 75.0),
            percentile(series.unit_ms_p50, 75.0),
            percentile(series.unit_ms_p90, 75.0),
            rss,
            first.detect_react_ms_p50,
        };
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            put(kEndToEnd[i], values[i]);
        }
    } else {
        Counters layer = first.counters;
        layer["can.sense_act_us_p99"] = first.sense_act_us_p99;
        const std::vector<Span> spans = tracer.finish();
        const auto summary = Tracer::summarize(spans);
        for (const auto& [metric, span] : kSpanMetrics) {
            const auto it = summary.find(span);
            layer[metric] = it == summary.end() ? 0.0 : percentile(it->second.durations_ms, 50.0);
        }
        const double events = layer["sim.events"] * static_cast<double>(episodes);
        layer["sim.host_ns_per_event"] =
            events > 0 ? (totals.host_s + totals.traced_host_s) * 1e9 / events : 0.0;
        layer["sim.cpu_per_wall"] = totals.host_s > 0 ? totals.cpu_s / totals.host_s : 0.0;
        const double cells = totals.extra["campaign.cells"];
        layer["campaign.child_cpu_ms_per_cell"] =
            cells > 0 ? totals.extra["campaign.child_cpu_s"] * 1e3 / cells : 0.0;
        const double vehicle_s_per_s =
            totals.host_s > 0 ? totals.vehicle_s / totals.host_s : 0.0;
        const double traced = totals.traced_host_s > 0
                                  ? totals.traced_vehicle_s / totals.traced_host_s
                                  : 0.0;
        layer["trace.spans"] = static_cast<double>(spans.size());
        layer["trace.overhead_vehicle_s_per_s"] = vehicle_s_per_s - traced;
        layer["trace.overhead_frac"] =
            vehicle_s_per_s > 0 ? (vehicle_s_per_s - traced) / vehicle_s_per_s : 0.0;
        for (const MetricDef& def : kPerLayer) {
            const auto it = layer.find(def.name);
            put(def, it == layer.end() ? 0.0 : it->second);
        }
        const std::string spans_path = args.get("spans");
        if (!spans_path.empty() && !Tracer::write(spans_path, spans)) {
            std::cerr << "perfbench: cannot write " << spans_path << '\n';
        }
        std::printf("spans %zu (self ms by name:", spans.size());
        for (const auto& [span, s] : summary) {
            std::printf(" %s=%s", span.c_str(), number(s.self_ms).c_str());
        }
        std::printf(")\n");
    }

    std::printf("workload %s seed %llu variant %llu episodes %llu units %llu "
                "untraced_units %llu setups %zu\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(variant),
                static_cast<unsigned long long>(episodes),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(totals.units),
                totals.setup_s.size());
    for (const auto& [def, value] : metrics) {
        std::printf("%s %s %s\n", def->name, number(value).c_str(), def->unit);
    }
    std::printf("error_rate %s ratio\n",
                number(attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 1.0)
                    .c_str());
    const bool correct = errors.empty() && failed == 0;
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + std::string(metrics[i].first->name) +
                "\": {\"value\": " + number(metrics[i].second) + ", \"unit\": \"" +
                metrics[i].first->unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

int cmd_record(const Args& args) {
    const std::string name = args.require("workload");
    for (std::uint64_t variant = 0; variant < kVariants; ++variant) {
        auto workload = make_workload(name, variant, args.get("worker"));
        Tracer tracer(workload->domains());
        RunTotals totals;
        const Episode episode = workload->run_episode(tracer, totals);
        if (episode.failed_units != 0) {
            std::cerr << "perfbench: " << name << " variant " << variant << " failed "
                      << episode.failed_units << " units\n";
            return 1;
        }
        std::printf("%s %llu", name.c_str(), static_cast<unsigned long long>(variant));
        for (const std::string& hash : episode.fingerprints) {
            std::printf(" %s", hash.c_str());
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}

int cmd_selftest(const Args& args) {
    const std::string refs = args.require("refs");
    const std::uint64_t variant = 1;
    bool ok = true;
    for (const char* name : {"platoon_incidents", "fleet_mesh", "campaign_cells"}) {
        Episode runs[3];
        for (int i = 0; i < 3; ++i) {
            const bool traced = i == 2;
            auto workload = make_workload(name, variant, args.get("worker"));
            workload->set_trace_run(traced);
            Tracer tracer(workload->domains());
            tracer.set_active(traced);
            RunTotals totals;
            runs[i] = workload->run_episode(tracer, totals);
            if (traced && tracer.finish().empty()) {
                std::printf("FAIL %s: the traced run recorded no spans\n", name);
                ok = false;
            }
        }
        const bool repeat = same_outputs(runs[0], runs[1]);
        const bool traced_same = same_outputs(runs[0], runs[2]);
        const bool matches = runs[0].fingerprints == load_reference(refs, name, variant);
        std::printf("%s %s: repeat %s, traced %s, reference %s\n", repeat && traced_same &&
                    matches ? "PASS" : "FAIL", name, repeat ? "identical" : "DIFFERS",
                    traced_same ? "identical" : "DIFFERS", matches ? "matches" : "DIFFERS");
        ok = ok && repeat && traced_same && matches;
    }
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    // Expected fault-injection warnings would drown the metrics.
    sa::Log::set_level(sa::LogLevel::Error);
    try {
        const Args args = parse_args(argc, argv);
        if (args.command == "run") {
            return cmd_run(args);
        }
        if (args.command == "record") {
            return cmd_record(args);
        }
        if (args.command == "selftest") {
            return cmd_selftest(args);
        }
        throw std::invalid_argument("unknown command: " + args.command);
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << '\n';
        return 2;
    }
}
