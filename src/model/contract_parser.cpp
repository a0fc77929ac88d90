#include "model/contract_parser.hpp"

#include <climits>

#include "util/lexer.hpp"
#include "util/string_util.hpp"

namespace sa::model {
namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : lex_(text) {}

    std::vector<Contract> parse_document() {
        std::vector<Contract> out;
        while (lex_.peek().kind != TokKind::End) {
            out.push_back(parse_component());
        }
        return out;
    }

private:
    Duration parse_duration() { return Duration(lex_.take_duration()); }

    double parse_rate() {
        const double value = lex_.take_real("a rate");
        lex_.expect_punct("/");
        const int line = lex_.peek().line;
        if (lex_.take_ident("rate unit").text != "s") {
            throw ParseError(line, "rates must be per second ('/s')");
        }
        return value;
    }

    int parse_int() { return static_cast<int>(lex_.take_uint("an integer", INT_MAX)); }

    TaskSpec parse_task() {
        TaskSpec task;
        task.name = lex_.take_ident("task name").text;
        lex_.expect_punct("{");
        while (!lex_.accept_punct("}")) {
            const Token key = lex_.take_ident("task attribute");
            if (key.text == "wcet") task.wcet = parse_duration();
            else if (key.text == "bcet") task.bcet = parse_duration();
            else if (key.text == "period") task.period = parse_duration();
            else if (key.text == "deadline") task.deadline = parse_duration();
            else throw ParseError(key.line, "unknown task attribute '" + key.text + "'");
            lex_.expect_punct(";");
        }
        if (task.bcet.count_ns() == 0) {
            task.bcet = task.wcet;
        }
        if (task.bcet > task.wcet) {
            throw ParseError(lex_.peek().line, "task " + task.name + ": bcet > wcet");
        }
        return task;
    }

    MessageSpec parse_message() {
        MessageSpec msg;
        msg.name = lex_.take_ident("message name").text;
        lex_.expect_punct("{");
        while (!lex_.accept_punct("}")) {
            const Token key = lex_.take_ident("message attribute");
            if (key.text == "id") msg.can_id = static_cast<std::uint32_t>(
                lex_.take_uint("an integer", UINT32_MAX));
            else if (key.text == "payload") msg.payload_bytes = parse_int();
            else if (key.text == "period") msg.period = parse_duration();
            else if (key.text == "deadline") msg.deadline = parse_duration();
            else if (key.text == "bus") msg.bus = lex_.take_ident("bus name").text;
            else throw ParseError(key.line, "unknown message attribute '" + key.text + "'");
            lex_.expect_punct(";");
        }
        if (msg.payload_bytes < 0 || msg.payload_bytes > 8) {
            throw ParseError(lex_.peek().line,
                             "message " + msg.name + ": payload must be 0..8 bytes");
        }
        return msg;
    }

    Contract parse_component() {
        lex_.expect_ident("component");
        Contract c;
        c.component = lex_.take_ident("component name").text;
        lex_.expect_punct("{");
        while (!lex_.accept_punct("}")) {
            const Token key = lex_.take_ident("contract clause");
            if (key.text == "asil") {
                const Token level = lex_.take_ident("ASIL level");
                const auto asil = asil_from_string(level.text);
                if (!asil.has_value()) {
                    throw ParseError(level.line, "unknown ASIL '" + level.text + "'");
                }
                c.asil = *asil;
                lex_.expect_punct(";");
            } else if (key.text == "security_level") {
                c.security_level = parse_int();
                if (c.security_level < 0 || c.security_level > 3) {
                    throw ParseError(key.line, "security_level must be 0..3");
                }
                lex_.expect_punct(";");
            } else if (key.text == "task") {
                c.tasks.push_back(parse_task());
            } else if (key.text == "provides") {
                lex_.expect_ident("service");
                ProvidedService svc;
                svc.name = lex_.take_ident("service name").text;
                if (lex_.accept_punct("{")) {
                    while (!lex_.accept_punct("}")) {
                        const Token attr = lex_.take_ident("service attribute");
                        if (attr.text == "max_rate") svc.max_client_rate_hz = parse_rate();
                        else if (attr.text == "min_client_level")
                            svc.min_client_level = parse_int();
                        else
                            throw ParseError(attr.line,
                                             "unknown service attribute '" + attr.text + "'");
                        lex_.expect_punct(";");
                    }
                } else {
                    lex_.expect_punct(";");
                }
                c.provides.push_back(std::move(svc));
            } else if (key.text == "requires") {
                lex_.expect_ident("service");
                RequiredService req;
                req.name = lex_.take_ident("service name").text;
                lex_.expect_punct(";");
                c.requires_.push_back(std::move(req));
            } else if (key.text == "message") {
                c.messages.push_back(parse_message());
            } else if (key.text == "pin") {
                lex_.expect_ident("ecu");
                c.pinned_ecu = lex_.take_ident("ECU name").text;
                lex_.expect_punct(";");
            } else if (key.text == "redundant_with") {
                c.redundant_with = lex_.take_ident("component name").text;
                lex_.expect_punct(";");
            } else if (key.text == "max_e2e_latency") {
                c.max_e2e_latency = parse_duration();
                lex_.expect_punct(";");
            } else if (key.text == "external") {
                c.external_interface = true;
                lex_.expect_punct(";");
            } else if (key.text == "gateway") {
                c.gateway = true;
                lex_.expect_punct(";");
            } else {
                throw ParseError(key.line, "unknown contract clause '" + key.text + "'");
            }
        }
        if (c.tasks.empty()) {
            throw ParseError(lex_.peek().line,
                             "component " + c.component + " declares no tasks");
        }
        return c;
    }

    Lexer lex_;
};

} // namespace

std::vector<Contract> ContractParser::parse(const std::string& text) const {
    Parser parser(text);
    return parser.parse_document();
}

Contract ContractParser::parse_one(const std::string& text) const {
    auto contracts = parse(text);
    if (contracts.size() != 1) {
        throw ParseError(1, format("expected exactly one contract, found %zu",
                                   contracts.size()));
    }
    return contracts.front();
}

} // namespace sa::model
