// Robustness of the text front ends (contracts, skill specs, campaigns,
// cells and corpus entries): every input either parses or throws
// sa::ParseError, never another exception, a narrowed number or a crash.
// A checked-literal table pins the numeric defects one row each; a seeded
// mutational fuzz loop runs every committed fixture through byte flips,
// deletes, inserts, duplicated spans and 20-digit runs (ctest label
// `fuzz`, also run under ASan/UBSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/corpus.hpp"
#include "model/contract_parser.hpp"
#include "skills/skill_graph_spec.hpp"
#include "util/random.hpp"

namespace {

using namespace sa;

enum class Grammar { Contracts, Skills, Campaign, Cell, Corpus };

/// Parse `text` as `grammar` and return the parsed value's canonical str()
/// text (contracts have no str() and return "").
std::string parse_as(Grammar grammar, const std::string& text) {
    switch (grammar) {
    case Grammar::Contracts: (void)model::ContractParser{}.parse(text); return {};
    case Grammar::Skills: return skills::SkillGraphSpec::parse(text).str();
    case Grammar::Campaign: return campaign::CampaignSpec::parse(text).str();
    case Grammar::Cell: return campaign::CellConfig::parse(text).str();
    case Grammar::Corpus: return campaign::CorpusEntry::parse(text).str();
    }
    return {};
}

/// Line of the ParseError `text` raises, or -1 when it parses.
int error_line(Grammar grammar, const std::string& text) {
    try {
        parse_as(grammar, text);
    } catch (const ParseError& error) {
        return error.line();
    }
    return -1;
}

// --- checked numeric literals ------------------------------------------------------

struct LiteralRow {
    Grammar grammar;
    const char* text;
    int line; ///< line of the expected ParseError
};

// Each row was accepted with a wrong value, or escaped as a non-ParseError
// exception, before numbers were range-checked where they are converted.
const LiteralRow kLiteralRows[] = {
    // int64 -> int narrowing after the range check: read as 1 and 2.
    {Grammar::Contracts,
     "component c {\n  task t { wcet 1ms; period 10ms; }\n"
     "  message m { payload 4294967297; }\n}",
     3},
    {Grammar::Contracts,
     "component c {\n  security_level 4294967298;\n  task t { wcet 1ms; period 10ms; }\n}",
     2},
    {Grammar::Contracts,
     "component c {\n  task t { wcet 1ms; period 10ms; }\n"
     "  message m { id 0x100000120; }\n}",
     3},
    // stod stopped early: read as 1.2 ms.
    {Grammar::Contracts, "component c {\n  task t { wcet 1.2.3ms; period 10ms; }\n}", 2},
    // double -> int64 overflow: read as INT64_MIN.
    {Grammar::Contracts,
     "component c {\n  task t { wcet 99999999999999999999s; period 10ms; }\n}", 2},
    {Grammar::Contracts,
     "component c {\n  task t { wcet 1ms; period 10ms; }\n"
     "  max_e2e_latency 9300000000000000000ns;\n}",
     3},
    // std::out_of_range from stoull/stoll, and Duration::sec overflow.
    {Grammar::Campaign, "campaign x {\n  seeds 1..99999999999999999999999;\n}", 2},
    {Grammar::Campaign, "campaign x {\n  seeds 1..1;\n  duration 9223372036854775807s;\n}", 3},
    {Grammar::Campaign, "campaign x {\n  vehicles 2 99999999999999999999;\n}", 2},
    {Grammar::Campaign, "campaign x {\n  seeds 1..1;\n  learned 99999999999999999999ms;\n}",
     3},
    {Grammar::Cell, "cell {\n  seed 18446744073709551616;\n}", 2},
    {Grammar::Corpus, "cell { seed 1; }\nexpect status crash;\nexpect signal 4294967302;\n",
     3},
};

TEST(TextFrontEnds, NumericLiteralsAreRangeChecked) {
    for (const LiteralRow& row : kLiteralRows) {
        EXPECT_EQ(error_line(row.grammar, row.text), row.line) << row.text;
    }
}

// --- mutational fuzz over the committed fixtures -----------------------------------

struct Fixture {
    std::string path;
    std::string text;
    std::vector<Grammar> grammars;
};

std::vector<Fixture> load_fixtures() {
    namespace fs = std::filesystem;
    std::vector<Fixture> out;
    for (const char* dir : {"contracts", "specs", "campaigns", "corpus", "bad"}) {
        std::vector<fs::path> paths;
        for (const auto& entry : fs::directory_iterator(fs::path(SA_FIXTURES_DIR) / dir)) {
            paths.push_back(entry.path());
        }
        std::sort(paths.begin(), paths.end());
        for (const fs::path& path : paths) {
            const std::string ext = path.extension().string();
            std::vector<Grammar> grammars;
            if (ext == ".contracts") grammars = {Grammar::Contracts};
            else if (ext == ".skills") grammars = {Grammar::Skills};
            else if (ext == ".campaign") grammars = {Grammar::Campaign};
            else if (ext == ".repro") grammars = {Grammar::Corpus, Grammar::Cell};
            else continue;
            std::ifstream in(path);
            std::ostringstream text;
            text << in.rdbuf();
            out.push_back(Fixture{path.string(), text.str(), grammars});
        }
    }
    return out;
}

/// Apply 1..4 random edits: byte flips, span deletes, inserts of bytes or
/// grammar fragments, duplicated spans and 20-digit runs.
std::string mutate(const std::string& seed_text, RandomEngine& rng) {
    static const char* const kFragments[] = {
        "..", "->", "//", "\"", "0x", ".", ";", "{", "}", "\n", "expect ", "ms", "s",
        "-", "1.5", "0", "4294967297", "18446744073709551616"};
    std::string text = seed_text;
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < edits; ++i) {
        const std::size_t at = rng.index(text.size() + 1);
        switch (rng.uniform_int(0, 4)) {
        case 0:
            if (!text.empty()) {
                text[std::min(at, text.size() - 1)] = static_cast<char>(rng.uniform_int(0, 255));
            }
            break;
        case 1:
            text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
            break;
        case 2:
            text.insert(at, kFragments[rng.index(std::size(kFragments))]);
            break;
        case 3: {
            const std::size_t from = rng.index(text.size() + 1);
            const auto length = static_cast<std::size_t>(rng.uniform_int(1, 48));
            text.insert(at, text.substr(from, length));
            break;
        }
        default: {
            std::string digits(20, '0');
            for (char& digit : digits) {
                digit = static_cast<char>('0' + rng.uniform_int(0, 9));
            }
            text.insert(at, digits);
            break;
        }
        }
    }
    return text;
}

TEST(TextFrontEnds, MutatedFixturesParseOrThrowParseError) {
    const std::vector<Fixture> fixtures = load_fixtures();
    ASSERT_GE(fixtures.size(), 15u) << "fixtures not found under " << SA_FIXTURES_DIR;
    RandomEngine rng(0x5EED'F022ULL);
    constexpr int kMutationsPerFixture = 2000;
    int parsed = 0;
    int rejected = 0;
    int failures = 0;
    for (const Fixture& fixture : fixtures) {
        for (const Grammar grammar : fixture.grammars) {
            if (fixture.path.find("/bad/") == std::string::npos) {
                EXPECT_EQ(error_line(grammar, fixture.text), -1) << fixture.path;
            }
            for (int i = 0; i < kMutationsPerFixture && failures < 5; ++i) {
                const std::string text = mutate(fixture.text, rng);
                std::string canonical;
                try {
                    canonical = parse_as(grammar, text);
                    ++parsed;
                } catch (const ParseError&) {
                    ++rejected;
                    continue;
                } catch (const std::exception& error) {
                    ++failures;
                    ADD_FAILURE() << fixture.path << ": " << error.what()
                                  << "\n--- input ---\n" << text;
                    continue;
                }
                // Whatever parses prints text that parses back to itself.
                try {
                    EXPECT_EQ(parse_as(grammar, canonical), canonical) << text;
                } catch (const std::exception& error) {
                    ++failures;
                    ADD_FAILURE() << fixture.path << ": str() output does not parse: "
                                  << error.what() << "\n--- str() ---\n" << canonical;
                }
            }
        }
    }
    // Both outcomes occur, so the loop exercises parsers past their first token.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
