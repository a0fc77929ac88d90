// campaign_cells: a fixed 288-cell campaign matrix run cell by cell through
// CampaignDriver::run_single in worker-process mode, with the sa_campaign
// binary as the worker — the path the CI explore job and replay/shrink pay.
//
// The matrix is every non-probe fault x every weather x every policy x every
// topology, 3 vehicles, 1 domain, the learned monitor on, about 300 ms per cell.
// Per-cell fixed costs dominate: process start, cell parse, scenario build
// with MCC, lint and spec instantiation, verdict rendering. The set-up is the
// campaign parse, expand and lint.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "campaign/driver.hpp"
#include "campaign/runner.hpp"
#include "lint/campaign_rules.hpp"
#include "monitor/anomaly_kinds.hpp"
#include "util/string_util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sa;

constexpr const char* kCampaign = R"(campaign perfbench {
  template platoon;
  vehicles 3;
  duration %llums;
  weather clear fog rain winter;
  fault none fog_blind v2v_blackout storm overrun sensor_drift;
  policy steady cautious eager;
  topology dual_bus bridged mesh lossy_mesh;
  domains 1;
  seeds %llu..%llu;
  learned 100ms;
})";
constexpr std::size_t kCells = 288;
/// Set-up is short next to a run, so each episode repeats it and records
/// every repetition.
constexpr int kSetupRepeats = 5;

/// Every numeric field `"key":N` of a verdict line, in order.
std::vector<double> fields(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    std::vector<double> values;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
        values.push_back(std::strtod(json.c_str() + at + needle.size(), nullptr));
    }
    return values;
}

double sum_field(const std::string& json, const std::string& key) {
    double sum = 0.0;
    for (const double value : fields(json, key)) {
        sum += value;
    }
    return sum;
}

/// Simulated time from a storm cell's fault script to the first executed
/// countermeasure on the fault target, from an in-process rerun of the cell
/// (the worker's verdict carries no decision times). The fault instant
/// mirrors campaign::declare_cell_scenario: duration / 2 + 17 us.
std::int64_t storm_reaction_ns(const campaign::CellConfig& cell) {
    scenario::ScenarioBuilder builder(cell.seed);
    campaign::declare_cell_scenario(builder, cell);
    auto scenario = builder.build();
    scenario->run(cell.duration, cell.domains);
    const std::int64_t fault_at = cell.duration.count_ns() / 2 + 17'000;
    const std::string target = campaign::cell_vehicle_names(cell.vehicles)[1];
    for (const core::Decision& decision : scenario->vehicle(target).coordinator().decisions()) {
        if (decision.executed.has_value() && decision.at.ns() >= fault_at &&
            decision.anomaly.kind == monitor::kinds::kRateExcess) {
            return decision.at.ns() - fault_at;
        }
    }
    return -1;
}

class CampaignCells final : public Workload {
public:
    CampaignCells(std::uint64_t variant, std::string worker);

    [[nodiscard]] bool child_processes() const override { return true; }
    Episode run_episode(Tracer& tracer, RunTotals& totals) override;

private:
    std::string text_;
    std::string worker_;
};

CampaignCells::CampaignCells(std::uint64_t variant, std::string worker)
    : worker_(std::move(worker)) {
    if (worker_.empty()) {
        throw std::invalid_argument("campaign_cells needs --worker <sa_campaign>");
    }
    // Cells last about 300 ms: the storm fault at half time is caught by the
    // IDS window ending at 300 ms. The seeded few extra milliseconds move
    // the fault instant, and with it the simulated reaction time.
    const auto duration_ms = static_cast<unsigned long long>(300 + variant);
    const auto seed = static_cast<unsigned long long>(1 + variant);
    text_ = format(kCampaign, duration_ms, seed, seed);
}

Episode CampaignCells::run_episode(Tracer& tracer, RunTotals& totals) {
    Episode episode;
    std::vector<campaign::CellConfig> cells;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const std::int64_t start = wall_ns();
        {
            Tracer::Scope span(tracer, "campaign.parse");
            const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text_);
            cells = spec.expand();
            const lint::LintReport report = lint::lint_campaign(spec);
            if (!report.ok()) {
                throw std::runtime_error("the benchmark campaign fails lint:\n" +
                                         report.str());
            }
        }
        totals.setup_s.push_back(static_cast<double>(wall_ns() - start) / 1e9);
    }
    if (cells.size() != kCells) {
        throw std::runtime_error(format("the campaign expands to %zu cells", cells.size()));
    }

    campaign::DriverOptions options;
    options.jobs = 1;
    options.worker_exe = worker_;
    options.shrink = false;
    campaign::CampaignDriver campaigns(options);
    UnitMeter meter(true);
    Counters& c = episode.counters;
    double ok = 0.0;
    double worst_p99_ns = 0.0;
    for (const campaign::CellConfig& cell : cells) {
        const bool traced = begin_unit(tracer);
        const std::int64_t child_cpu = children_cpu_ns();
        meter.begin();
        campaign::CellResult result;
        {
            Tracer::UnitScope unit(tracer, unit_id());
            Tracer::Scope span(tracer, "campaign.run_single");
            result = campaigns.run_single(cell);
        }
        meter.end(static_cast<double>(cell.vehicles) * cell.duration.to_seconds(), traced, totals);
        end_unit(tracer);
        totals.extra["campaign.child_cpu_s"] +=
            static_cast<double>(children_cpu_ns() - child_cpu) / 1e9;
        totals.extra["campaign.cells"] += 1.0;

        const std::string& json = result.verdict_json;
        episode.fingerprints.push_back(campaign::fingerprint_hex(campaign::fnv1a64(json)));
        if (result.failed()) {
            ++episode.failed_units;
            episode.errors.push_back(cell.id() + ": " + result.status + " " + result.reason);
            continue;
        }
        ok += 1.0;
        c["rte.jobs"] += sum_field(json, "total_jobs");
        c["rte.deadline_misses"] += sum_field(json, "total_misses");
        c["monitor.anomalies"] += sum_field(json, "total_anomalies");
        c["core.problems_handled"] += sum_field(json, "total_handled");
        c["core.problems_resolved"] += sum_field(json, "total_resolved");
        c["platoon.maneuvers"] += sum_field(json, "total_maneuvers");
        c["can.gw_forwarded"] += sum_field(json, "gw_fwd");
        c["can.gw_dropped"] += sum_field(json, "gw_drop");
        worst_p99_ns = std::max(worst_p99_ns, sum_field(json, "p99_ns"));
        for (const double level : fields(json, "follow")) {
            const auto it = c.find("skills.follow_level_min");
            c["skills.follow_level_min"] = it == c.end() ? level : std::min(it->second, level);
        }
    }
    c["campaign.cells"] = static_cast<double>(cells.size());
    c["campaign.ok_frac"] = ok / static_cast<double>(cells.size());
    c["core.resolved_frac"] = c["core.problems_handled"] > 0
                                  ? c["core.problems_resolved"] / c["core.problems_handled"]
                                  : 0.0;

    std::vector<double> reactions_ms;
    for (const campaign::CellConfig& cell : cells) {
        if (cell.fault == campaign::Fault::Storm) {
            const std::int64_t ns = storm_reaction_ns(cell);
            if (ns >= 0) {
                reactions_ms.push_back(static_cast<double>(ns) / 1e6);
            }
        }
    }
    episode.detect_react_ms_p50 = percentile(std::move(reactions_ms), 50.0);
    episode.sense_act_us_p99 = worst_p99_ns / 1e3;
    episode.units = cells.size();
    return episode;
}

} // namespace

std::unique_ptr<Workload> make_campaign_cells(std::uint64_t variant, std::string worker) {
    return std::make_unique<CampaignCells>(variant, std::move(worker));
}

} // namespace perfbench
