#include "campaign/corpus.hpp"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/string_util.hpp"

namespace sa::campaign {
namespace {

/// Quote a string for the entry grammar (the lexer reads single-line
/// double-quoted strings; reasons never contain quotes or newlines, but
/// strip them defensively so str() always re-parses).
std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c != '"' && c != '\n' && c != '\r') {
            out += c;
        }
    }
    out += "\"";
    return out;
}

} // namespace

std::string CorpusEntry::signature() const {
    if (status == "crash") {
        return format("crash signal=%d", signal);
    }
    return status + " reason=" + reason;
}

std::string CorpusEntry::signature_of(const CellVerdict& verdict) {
    if (verdict.status == "crash") {
        return format("crash signal=%d", verdict.signal);
    }
    return verdict.status + " reason=" + verdict.reason;
}

CorpusEntry CorpusEntry::from_failure(const CellConfig& cell,
                                      const CellVerdict& verdict) {
    CorpusEntry entry;
    entry.cell = cell;
    entry.status = verdict.status;
    entry.reason = verdict.reason;
    entry.signal = verdict.signal;
    entry.fingerprint = fingerprint_hex(fnv1a64(verdict.json()));
    return entry;
}

std::string CorpusEntry::suggested_filename() const {
    const std::uint64_t hash = fnv1a64(signature() + "|" + cell.id());
    return cell.campaign + "-" + fingerprint_hex(hash).substr(0, 12) + ".repro";
}

std::string CorpusEntry::str() const {
    std::string out = cell.str();
    out += "expect status " + status + ";\n";
    if (!reason.empty()) {
        out += "expect reason " + quoted(reason) + ";\n";
    }
    if (signal != 0) {
        out += format("expect signal %d;\n", signal);
    }
    if (!fingerprint.empty()) {
        // Quoted: a hex16 that starts with a digit ("1cc9...") would lex as
        // Number + Ident as a bare token.
        out += "expect fingerprint " + quoted(fingerprint) + ";\n";
    }
    return out;
}

CorpusEntry CorpusEntry::parse(const std::string& text) {
    Lexer lexer(text);
    CorpusEntry entry;
    entry.cell = CellConfig::parse(lexer);
    entry.status.clear();
    while (lexer.peek().kind != TokKind::End) {
        lexer.expect_ident("expect");
        const Token what = lexer.take_ident("an expectation kind");
        if (what.text == "status") {
            const std::string value = lexer.take_ident("a status").text;
            if (value != "ok" && value != "violation" && value != "crash") {
                throw ParseError(what.line, "unknown status '" + value + "'");
            }
            entry.status = value;
        } else if (what.text == "reason") {
            entry.reason = lexer.take_string("a quoted reason");
        } else if (what.text == "signal") {
            entry.signal = static_cast<int>(lexer.take_uint("a signal number", INT_MAX));
        } else if (what.text == "fingerprint") {
            // Canonically quoted (see str()); bare Ident/Number tokens are
            // accepted too for hand-written entries whose hex16 happens to
            // lex as a single token.
            const Token value = lexer.take();
            if (value.kind != TokKind::String && value.kind != TokKind::Ident &&
                value.kind != TokKind::Number) {
                throw ParseError(value.line, "expected a fingerprint");
            }
            entry.fingerprint = value.text;
        } else {
            throw ParseError(what.line, "unknown expectation '" + what.text + "'");
        }
        lexer.expect_punct(";");
    }
    if (entry.status.empty()) {
        throw ParseError(0, "corpus entry lacks 'expect status'");
    }
    return entry;
}

std::vector<std::string>
CorpusEntry::mismatches(const std::string& verdict_json) const {
    std::vector<std::string> out;
    const std::string got_status = json_string_field(verdict_json, "status");
    const std::string got_reason = json_string_field(verdict_json, "reason");
    const int got_signal =
        static_cast<int>(json_int_field(verdict_json, "signal", 0));
    if (got_status != status) {
        out.push_back("status: expected '" + status + "', got '" + got_status +
                      "'");
    }
    if (!reason.empty() && got_reason != reason) {
        out.push_back("reason: expected '" + reason + "', got '" + got_reason +
                      "'");
    }
    if (signal != 0 && got_signal != signal) {
        out.push_back(format("signal: expected %d, got %d", signal, got_signal));
    }
    if (!fingerprint.empty()) {
        const std::string actual = fingerprint_hex(fnv1a64(verdict_json));
        if (actual != fingerprint) {
            out.push_back("fingerprint: expected " + fingerprint + ", got " +
                          actual);
        }
    }
    return out;
}

std::vector<std::pair<std::string, CorpusEntry>>
load_corpus(const std::string& directory) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, CorpusEntry>> out;
    std::error_code ec;
    if (!fs::is_directory(directory, ec)) {
        return out;
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(directory)) {
        if (entry.is_regular_file() && entry.path().extension() == ".repro") {
            paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        try {
            out.emplace_back(path.string(), CorpusEntry::parse(text.str()));
        } catch (const ParseError& error) {
            throw ParseError(error.line(), format("%s:%d: %s", path.string().c_str(),
                                                  error.line(), error.what()));
        }
    }
    return out;
}

} // namespace sa::campaign
