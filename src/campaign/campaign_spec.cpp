#include "campaign/campaign_spec.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::campaign {

// --- axis names --------------------------------------------------------------------

const char* to_string(Weather weather) noexcept {
    switch (weather) {
    case Weather::Clear: return "clear";
    case Weather::Fog: return "fog";
    case Weather::Rain: return "rain";
    case Weather::Winter: return "winter";
    }
    return "?";
}

const char* to_string(Fault fault) noexcept {
    switch (fault) {
    case Fault::None: return "none";
    case Fault::FogBlind: return "fog_blind";
    case Fault::V2vBlackout: return "v2v_blackout";
    case Fault::Storm: return "storm";
    case Fault::Overrun: return "overrun";
    case Fault::SensorDrift: return "sensor_drift";
    case Fault::Misuse: return "misuse";
    case Fault::Crash: return "crash";
    }
    return "?";
}

const char* to_string(PolicyKind policy) noexcept {
    switch (policy) {
    case PolicyKind::Steady: return "steady";
    case PolicyKind::Cautious: return "cautious";
    case PolicyKind::Eager: return "eager";
    }
    return "?";
}

const char* to_string(Topology topology) noexcept {
    switch (topology) {
    case Topology::DualBus: return "dual_bus";
    case Topology::Bridged: return "bridged";
    case Topology::Mesh: return "mesh";
    case Topology::LossyMesh: return "lossy_mesh";
    }
    return "?";
}

bool topology_is_mesh(Topology topology) noexcept {
    return topology == Topology::Mesh || topology == Topology::LossyMesh;
}

namespace {

template <typename Enum>
bool enum_from_string(const std::string& text, Enum& out,
                      std::initializer_list<Enum> all) {
    for (Enum value : all) {
        if (text == to_string(value)) {
            out = value;
            return true;
        }
    }
    return false;
}

} // namespace

bool weather_from_string(const std::string& text, Weather& out) {
    return enum_from_string(text, out,
                            {Weather::Clear, Weather::Fog, Weather::Rain,
                             Weather::Winter});
}

bool fault_from_string(const std::string& text, Fault& out) {
    return enum_from_string(text, out,
                            {Fault::None, Fault::FogBlind, Fault::V2vBlackout,
                             Fault::Storm, Fault::Overrun, Fault::SensorDrift,
                             Fault::Misuse, Fault::Crash});
}

bool policy_from_string(const std::string& text, PolicyKind& out) {
    return enum_from_string(
        text, out, {PolicyKind::Steady, PolicyKind::Cautious, PolicyKind::Eager});
}

bool topology_from_string(const std::string& text, Topology& out) {
    return enum_from_string(text, out,
                            {Topology::DualBus, Topology::Bridged,
                             Topology::Mesh, Topology::LossyMesh});
}

bool fault_is_harness_probe(Fault fault) noexcept {
    return fault == Fault::Misuse || fault == Fault::Crash;
}

std::string duration_str(sim::Duration duration) {
    const std::int64_t ns = duration.count_ns();
    if (ns % 1'000'000'000 == 0) {
        return format("%llds", static_cast<long long>(ns / 1'000'000'000));
    }
    if (ns % 1'000'000 == 0) {
        return format("%lldms", static_cast<long long>(ns / 1'000'000));
    }
    if (ns % 1'000 == 0) {
        return format("%lldus", static_cast<long long>(ns / 1'000));
    }
    return format("%lldns", static_cast<long long>(ns));
}

// --- CellConfig --------------------------------------------------------------------

std::string CellConfig::id() const {
    std::string out = campaign;
    out += " vehicles=" + std::to_string(vehicles);
    out += " duration=" + duration_str(duration);
    if (!spec_file.empty()) {
        out += " spec=" + spec_file;
    }
    out += " weather=" + std::string(to_string(weather));
    out += " fault=" + std::string(to_string(fault));
    out += " policy=" + std::string(to_string(policy));
    out += " topology=" + std::string(to_string(topology));
    out += " domains=" + std::to_string(domains);
    out += " seed=" + std::to_string(seed);
    if (learned_warmup.count_ns() > 0) {
        out += " learned=" + duration_str(learned_warmup);
        if (learned_no_metrics) {
            out += "/none";
        }
    }
    if (mesh_range_m > 0) {
        out += " mesh_range=" + std::to_string(mesh_range_m);
    }
    if (mesh_ttl > 0) {
        out += " mesh_ttl=" + std::to_string(mesh_ttl);
    }
    return out;
}

std::string CellConfig::str() const {
    std::string out = "cell {\n";
    out += "  campaign " + campaign + ";\n";
    out += "  template " + scenario_template + ";\n";
    out += "  vehicles " + std::to_string(vehicles) + ";\n";
    out += "  duration " + duration_str(duration) + ";\n";
    if (!spec_file.empty()) {
        out += "  spec \"" + spec_file + "\";\n";
    }
    out += "  weather " + std::string(to_string(weather)) + ";\n";
    out += "  fault " + std::string(to_string(fault)) + ";\n";
    out += "  policy " + std::string(to_string(policy)) + ";\n";
    out += "  topology " + std::string(to_string(topology)) + ";\n";
    out += "  domains " + std::to_string(domains) + ";\n";
    out += "  seed " + std::to_string(seed) + ";\n";
    if (learned_warmup.count_ns() > 0) {
        out += "  learned " + duration_str(learned_warmup) +
               (learned_no_metrics ? " none" : "") + ";\n";
    }
    if (mesh_range_m > 0) {
        out += "  mesh_range " + std::to_string(mesh_range_m) + ";\n";
    }
    if (mesh_ttl > 0) {
        out += "  mesh_ttl " + std::to_string(mesh_ttl) + ";\n";
    }
    out += "}\n";
    return out;
}

namespace {

std::size_t take_vehicles(Lexer& lexer) {
    const int line = lexer.peek().line;
    const std::uint64_t count = lexer.take_uint("a vehicle count");
    if (count < 2 || count > 8) {
        throw ParseError(line, "vehicles must be in [2, 8], got " + std::to_string(count));
    }
    return count;
}

std::size_t take_domains(Lexer& lexer) {
    const int line = lexer.peek().line;
    const std::uint64_t count = lexer.take_uint("a domain count");
    if (count < 1 || count > 8) {
        throw ParseError(line, "domains must be in [1, 8], got " + std::to_string(count));
    }
    return count;
}

sim::Duration take_cell_duration(Lexer& lexer) {
    const int line = lexer.peek().line;
    const sim::Duration duration(lexer.take_duration());
    if (duration < sim::Duration::ms(1)) {
        throw ParseError(line, "duration must be at least 1ms");
    }
    return duration;
}

/// One value of the enum axis `axis` ("weather", "fault", ...).
template <typename Enum>
Enum take_enum(Lexer& lexer, const std::string& axis,
               bool (*from_string)(const std::string&, Enum&)) {
    const Token token = lexer.take_ident("a " + axis + " value");
    Enum value{};
    if (!from_string(token.text, value)) {
        throw ParseError(token.line, "unknown " + axis + " '" + token.text + "'");
    }
    return value;
}

/// The tail of a `learned <dur> [none]` statement, after the keyword.
void parse_learned(Lexer& lexer, int line, sim::Duration& warmup, bool& no_metrics) {
    warmup = sim::Duration(lexer.take_duration());
    if (warmup.count_ns() <= 0) {
        throw ParseError(line, "learned warm-up must be positive");
    }
    no_metrics = false;
    if (lexer.peek().kind == TokKind::Ident) {
        const std::string flag = lexer.take().text;
        if (flag != "none") {
            throw ParseError(line, "unknown learned flag '" + flag + "'");
        }
        no_metrics = true;
    }
}

/// Parse one cell statement (after its keyword) into `cell`.
void parse_cell_statement(Lexer& lexer, const Token& keyword, CellConfig& cell) {
    const std::string& word = keyword.text;
    if (word == "campaign") {
        cell.campaign = lexer.take_ident("a campaign name").text;
    } else if (word == "template") {
        cell.scenario_template = lexer.take_ident("a template name").text;
    } else if (word == "vehicles") {
        cell.vehicles = take_vehicles(lexer);
    } else if (word == "duration") {
        cell.duration = take_cell_duration(lexer);
    } else if (word == "spec") {
        cell.spec_file = lexer.take_string("a quoted spec file path");
    } else if (word == "weather") {
        cell.weather = take_enum(lexer, "weather", weather_from_string);
    } else if (word == "fault") {
        cell.fault = take_enum(lexer, "fault", fault_from_string);
    } else if (word == "policy") {
        cell.policy = take_enum(lexer, "policy", policy_from_string);
    } else if (word == "topology") {
        cell.topology = take_enum(lexer, "topology", topology_from_string);
    } else if (word == "domains") {
        cell.domains = take_domains(lexer);
    } else if (word == "seed") {
        cell.seed = lexer.take_uint("a seed");
    } else if (word == "learned") {
        parse_learned(lexer, keyword.line, cell.learned_warmup, cell.learned_no_metrics);
    } else if (word == "mesh_range") {
        cell.mesh_range_m = lexer.take_uint("a radio range in meters");
    } else if (word == "mesh_ttl") {
        cell.mesh_ttl = lexer.take_uint("a beacon TTL");
    } else {
        throw ParseError(keyword.line, "unknown cell statement '" + word + "'");
    }
    lexer.expect_punct(";");
}

} // namespace

CellConfig CellConfig::parse(const std::string& text) {
    Lexer lexer(text);
    return parse(lexer);
}

CellConfig CellConfig::parse(Lexer& lexer) {
    lexer.expect_ident("cell");
    lexer.expect_punct("{");
    CellConfig cell;
    while (!lexer.accept_punct("}")) {
        parse_cell_statement(lexer, lexer.take_ident("a cell statement"), cell);
    }
    return cell;
}

// --- CampaignSpec ------------------------------------------------------------------

CampaignSpec::CampaignSpec(std::string name) : name_(std::move(name)) {}

CampaignSpec& CampaignSpec::scenario_template(std::string name) {
    template_ = std::move(name);
    return *this;
}

CampaignSpec& CampaignSpec::vehicles(std::vector<std::size_t> counts) {
    SA_REQUIRE(!counts.empty(), "vehicles axis needs at least one value");
    vehicles_ = std::move(counts);
    return *this;
}

CampaignSpec& CampaignSpec::duration(sim::Duration duration) {
    SA_REQUIRE(duration.count_ns() >= sim::Duration::ms(1).count_ns(),
               "campaign duration must be at least 1ms");
    duration_ = duration;
    return *this;
}

CampaignSpec& CampaignSpec::spec_file(std::string path) {
    spec_file_ = std::move(path);
    return *this;
}

CampaignSpec& CampaignSpec::weathers(std::vector<Weather> values) {
    SA_REQUIRE(!values.empty(), "weather axis needs at least one value");
    weathers_ = std::move(values);
    return *this;
}

CampaignSpec& CampaignSpec::faults(std::vector<Fault> values) {
    SA_REQUIRE(!values.empty(), "fault axis needs at least one value");
    faults_ = std::move(values);
    return *this;
}

CampaignSpec& CampaignSpec::policies(std::vector<PolicyKind> values) {
    SA_REQUIRE(!values.empty(), "policy axis needs at least one value");
    policies_ = std::move(values);
    return *this;
}

CampaignSpec& CampaignSpec::topologies(std::vector<Topology> values) {
    SA_REQUIRE(!values.empty(), "topology axis needs at least one value");
    topologies_ = std::move(values);
    return *this;
}

CampaignSpec& CampaignSpec::domains(std::vector<std::size_t> counts) {
    SA_REQUIRE(!counts.empty(), "domains axis needs at least one value");
    domains_ = std::move(counts);
    return *this;
}

CampaignSpec& CampaignSpec::seeds(std::uint64_t lo, std::uint64_t hi) {
    seeds_ = SeedRange{lo, hi};
    return *this;
}

CampaignSpec& CampaignSpec::learned(sim::Duration warmup, bool no_metrics) {
    SA_REQUIRE(warmup.count_ns() >= 0, "learned warm-up must not be negative");
    learned_warmup_ = warmup;
    learned_no_metrics_ = no_metrics;
    return *this;
}

CampaignSpec& CampaignSpec::mesh_range(std::uint64_t range_m) {
    mesh_range_m_ = range_m;
    return *this;
}

CampaignSpec& CampaignSpec::mesh_ttl(std::uint64_t ttl) {
    mesh_ttl_ = ttl;
    return *this;
}

std::uint64_t CampaignSpec::cell_count() const noexcept {
    std::uint64_t count = seeds_.count();
    count *= weathers_.size();
    count *= faults_.size();
    count *= policies_.size();
    count *= topologies_.size();
    count *= domains_.size();
    count *= vehicles_.size();
    return count;
}

std::vector<CellConfig> CampaignSpec::expand() const {
    std::vector<CellConfig> cells;
    cells.reserve(static_cast<std::size_t>(cell_count()));
    for (const Weather weather : weathers_) {
        for (const Fault fault : faults_) {
            for (const PolicyKind policy : policies_) {
                for (const Topology topology : topologies_) {
                    for (const std::size_t domains : domains_) {
                        for (const std::size_t vehicles : vehicles_) {
                            for (std::uint64_t seed = seeds_.lo;
                                 seed <= seeds_.hi && seeds_.count() > 0; ++seed) {
                                CellConfig cell;
                                cell.campaign = name_;
                                cell.scenario_template = template_;
                                cell.vehicles = vehicles;
                                cell.duration = duration_;
                                cell.spec_file = spec_file_;
                                cell.weather = weather;
                                cell.fault = fault;
                                cell.policy = policy;
                                cell.topology = topology;
                                cell.domains = domains;
                                cell.seed = seed;
                                cell.learned_warmup = learned_warmup_;
                                cell.learned_no_metrics = learned_no_metrics_;
                                cell.mesh_range_m = mesh_range_m_;
                                cell.mesh_ttl = mesh_ttl_;
                                cells.push_back(std::move(cell));
                                if (seed == seeds_.hi) {
                                    break; // avoid overflow at UINT64_MAX
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

std::string CampaignSpec::str() const {
    std::string out = "campaign " + name_ + " {\n";
    out += "  template " + template_ + ";\n";
    out += "  vehicles";
    for (const std::size_t count : vehicles_) {
        out += " " + std::to_string(count);
    }
    out += ";\n";
    out += "  duration " + duration_str(duration_) + ";\n";
    if (!spec_file_.empty()) {
        out += "  spec \"" + spec_file_ + "\";\n";
    }
    out += "  weather";
    for (const Weather weather : weathers_) {
        out += " " + std::string(to_string(weather));
    }
    out += ";\n";
    out += "  fault";
    for (const Fault fault : faults_) {
        out += " " + std::string(to_string(fault));
    }
    out += ";\n";
    out += "  policy";
    for (const PolicyKind policy : policies_) {
        out += " " + std::string(to_string(policy));
    }
    out += ";\n";
    out += "  topology";
    for (const Topology topology : topologies_) {
        out += " " + std::string(to_string(topology));
    }
    out += ";\n";
    out += "  domains";
    for (const std::size_t count : domains_) {
        out += " " + std::to_string(count);
    }
    out += ";\n";
    out += "  seeds " + std::to_string(seeds_.lo) + ".." + std::to_string(seeds_.hi) +
           ";\n";
    if (learned_warmup_.count_ns() > 0) {
        out += "  learned " + duration_str(learned_warmup_) +
               (learned_no_metrics_ ? " none" : "") + ";\n";
    }
    if (mesh_range_m_ > 0) {
        out += "  mesh_range " + std::to_string(mesh_range_m_) + ";\n";
    }
    if (mesh_ttl_ > 0) {
        out += "  mesh_ttl " + std::to_string(mesh_ttl_) + ";\n";
    }
    out += "}\n";
    return out;
}

namespace {

/// Values of a multi-valued axis statement: one or more Ident/Number tokens
/// before its ';', each read by `take_value`.
template <typename TakeValue>
auto parse_axis(Lexer& lexer, TakeValue take_value) {
    std::vector<decltype(take_value())> values;
    while (lexer.peek().kind == TokKind::Ident || lexer.peek().kind == TokKind::Number) {
        values.push_back(take_value());
    }
    if (values.empty()) {
        lexer.fail("axis statement needs at least one value");
    }
    return values;
}

} // namespace

CampaignSpec CampaignSpec::parse(const std::string& text) {
    Lexer lexer(text);
    lexer.expect_ident("campaign");
    CampaignSpec spec(lexer.take_ident("a campaign name").text);
    lexer.expect_punct("{");
    while (!lexer.accept_punct("}")) {
        const Token token = lexer.take_ident("a campaign statement");
        const std::string& keyword = token.text;
        if (keyword == "template") {
            spec.template_ = lexer.take_ident("a template name").text;
        } else if (keyword == "vehicles") {
            spec.vehicles_ = parse_axis(lexer, [&] { return take_vehicles(lexer); });
        } else if (keyword == "duration") {
            spec.duration_ = take_cell_duration(lexer);
        } else if (keyword == "spec") {
            spec.spec_file_ = lexer.take_string("a quoted spec file path");
        } else if (keyword == "weather") {
            spec.weathers_ = parse_axis(
                lexer, [&] { return take_enum(lexer, "weather", weather_from_string); });
        } else if (keyword == "fault") {
            spec.faults_ = parse_axis(
                lexer, [&] { return take_enum(lexer, "fault", fault_from_string); });
        } else if (keyword == "policy") {
            spec.policies_ = parse_axis(
                lexer, [&] { return take_enum(lexer, "policy", policy_from_string); });
        } else if (keyword == "topology") {
            spec.topologies_ = parse_axis(
                lexer, [&] { return take_enum(lexer, "topology", topology_from_string); });
        } else if (keyword == "domains") {
            spec.domains_ = parse_axis(lexer, [&] { return take_domains(lexer); });
        } else if (keyword == "seeds") {
            spec.seeds_.lo = lexer.take_uint("a seed range low bound");
            lexer.expect_punct("..");
            spec.seeds_.hi = lexer.take_uint("a seed range high bound");
        } else if (keyword == "learned") {
            parse_learned(lexer, token.line, spec.learned_warmup_, spec.learned_no_metrics_);
        } else if (keyword == "mesh_range") {
            spec.mesh_range_m_ = lexer.take_uint("a radio range in meters");
        } else if (keyword == "mesh_ttl") {
            spec.mesh_ttl_ = lexer.take_uint("a beacon TTL");
        } else {
            throw ParseError(token.line, "unknown campaign axis '" + keyword + "'");
        }
        lexer.expect_punct(";");
    }
    if (lexer.peek().kind != TokKind::End) {
        lexer.fail("trailing input after the campaign block: '" + lexer.peek().text + "'");
    }
    return spec;
}

} // namespace sa::campaign
