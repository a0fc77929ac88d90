#include "skills/skill_graph_spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::skills {

bool aggregation_from_string(const std::string& text, Aggregation& out) {
    if (text == "min") {
        out = Aggregation::Min;
    } else if (text == "product") {
        out = Aggregation::Product;
    } else if (text == "weighted_mean") {
        out = Aggregation::WeightedMean;
    } else {
        return false;
    }
    return true;
}

// --- builder ----------------------------------------------------------------------

namespace {

/// Names must lex as single identifiers in the text form, or str() output
/// would not parse back.
bool is_identifier(const std::string& text) {
    if (text.empty() || (!std::isalpha(static_cast<unsigned char>(text[0])) &&
                         text[0] != '_')) {
        return false;
    }
    return std::all_of(text.begin(), text.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    });
}

/// Shortest fixed-notation text that reads back as exactly `weight`: the
/// Number token has no exponent, so scientific notation would not parse.
std::string weight_text(double weight) {
    char buffer[512];
    const auto result =
        std::to_chars(buffer, buffer + sizeof buffer, weight, std::chars_format::fixed);
    return std::string(buffer, result.ptr);
}

} // namespace

SkillGraphSpec::SkillGraphSpec(std::string name) : name_(std::move(name)) {
    SA_REQUIRE(is_identifier(name_),
               "spec name must be an identifier ([A-Za-z_][A-Za-z0-9_]*): '" +
                   name_ + "'");
}

SkillGraphSpec& SkillGraphSpec::add_node(NodeDecl decl) {
    SA_REQUIRE(is_identifier(decl.name),
               "spec node name must be an identifier ([A-Za-z_][A-Za-z0-9_]*): '" +
                   decl.name + "'");
    SA_REQUIRE(find_node(decl.name) == nullptr,
               "duplicate node in spec '" + name_ + "': " + decl.name);
    // Descriptions must survive str() -> parse(): the text form quotes them
    // with no escape sequences, so quotes and newlines are unrepresentable.
    SA_REQUIRE(decl.description.find('"') == std::string::npos &&
                   decl.description.find('\n') == std::string::npos,
               "node description must not contain '\"' or newlines: " + decl.name);
    nodes_.push_back(std::move(decl));
    return *this;
}

SkillGraphSpec& SkillGraphSpec::skill(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::Skill,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::source(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::DataSource,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::sink(std::string name, std::string description) {
    return add_node(NodeDecl{std::move(name), SkillNodeKind::DataSink,
                             std::move(description)});
}

SkillGraphSpec& SkillGraphSpec::depends(const std::string& parent,
                                        const std::vector<std::string>& children) {
    SA_REQUIRE(!children.empty(), "dependency declaration needs at least one child");
    for (const auto& child : children) {
        edges_.push_back(EdgeDecl{parent, child});
    }
    return *this;
}

SkillGraphSpec& SkillGraphSpec::aggregate(std::string skill, Aggregation aggregation) {
    aggregates_.push_back(AggregateDecl{std::move(skill), aggregation});
    return *this;
}

SkillGraphSpec& SkillGraphSpec::weight(std::string skill, std::string child,
                                       double weight) {
    SA_REQUIRE(weight > 0.0 && std::isfinite(weight),
               "weights must be positive and finite");
    weights_.push_back(WeightDecl{std::move(skill), std::move(child), weight});
    return *this;
}

SkillGraphSpec& SkillGraphSpec::root(std::string skill) {
    root_ = std::move(skill);
    return *this;
}

// --- introspection ----------------------------------------------------------------

const SkillGraphSpec::NodeDecl* SkillGraphSpec::find_node(const std::string& name) const {
    for (const auto& node : nodes_) {
        if (node.name == name) {
            return &node;
        }
    }
    return nullptr;
}

bool SkillGraphSpec::declares_node(const std::string& name) const {
    return find_node(name) != nullptr;
}

std::vector<std::string> SkillGraphSpec::node_names() const {
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const auto& node : nodes_) {
        out.push_back(node.name);
    }
    return out;
}

SkillNodeKind SkillGraphSpec::node_kind(const std::string& name) const {
    const NodeDecl* node = find_node(name);
    SA_REQUIRE(node != nullptr, "spec '" + name_ + "' declares no node: " + name);
    return node->kind;
}

std::string SkillGraphSpec::str() const {
    std::string out = "graph " + name_ + " {\n";
    if (!root_.empty()) {
        out += "  root " + root_ + ";\n";
    }
    for (const auto& node : nodes_) {
        out += "  ";
        switch (node.kind) {
        case SkillNodeKind::Skill: out += "skill "; break;
        case SkillNodeKind::DataSource: out += "source "; break;
        case SkillNodeKind::DataSink: out += "sink "; break;
        }
        out += node.name;
        if (!node.description.empty()) {
            out += " \"" + node.description + "\"";
        }
        out += ";\n";
    }
    // Edges grouped by parent in declaration order (one fan-out per run).
    for (std::size_t i = 0; i < edges_.size();) {
        out += "  " + edges_[i].parent + " ->";
        const std::string& parent = edges_[i].parent;
        while (i < edges_.size() && edges_[i].parent == parent) {
            out += " " + edges_[i].child;
            ++i;
        }
        out += ";\n";
    }
    for (const auto& agg : aggregates_) {
        out += "  aggregate " + agg.skill + " " +
               std::string(to_string(agg.aggregation)) + ";\n";
    }
    for (const auto& w : weights_) {
        out += "  weight " + w.skill + " " + w.child + " " + weight_text(w.weight) +
               ";\n";
    }
    out += "}\n";
    return out;
}

// --- instantiation ----------------------------------------------------------------

SkillGraph SkillGraphSpec::instantiate() const {
    SkillGraph g;
    for (const auto& node : nodes_) {
        switch (node.kind) {
        case SkillNodeKind::Skill: g.add_skill(node.name, node.description); break;
        case SkillNodeKind::DataSource: g.add_source(node.name, node.description); break;
        case SkillNodeKind::DataSink: g.add_sink(node.name, node.description); break;
        }
    }
    for (const auto& edge : edges_) {
        g.add_dependency(edge.parent, edge.child);
    }
    g.validate();
    if (!root_.empty()) {
        const auto roots = g.roots();
        SA_REQUIRE(std::find(roots.begin(), roots.end(), root_) != roots.end(),
                   "spec '" + name_ + "': declared root '" + root_ +
                       "' is not a root skill of the instantiated graph");
    }
    return g;
}

AbilityGraph SkillGraphSpec::instantiate_abilities(AbilityThresholds thresholds) const {
    AbilityGraph abilities(instantiate(), thresholds);
    for (const auto& agg : aggregates_) {
        abilities.set_aggregation(agg.skill, agg.aggregation);
    }
    for (const auto& w : weights_) {
        abilities.set_dependency_weight(w.skill, w.child, w.weight);
    }
    return abilities;
}

// --- parser -----------------------------------------------------------------------
// Hand-rolled recursive descent over the shared util/lexer token stream.

namespace {

class SpecParser {
public:
    explicit SpecParser(const std::string& text) : lex_(text) {}

    SkillGraphSpec parse_one() {
        lex_.expect_ident("graph");
        SkillGraphSpec spec(lex_.take_ident("graph name").text);
        lex_.expect_punct("{");
        while (!lex_.accept_punct("}")) {
            parse_statement(spec);
        }
        if (lex_.peek().kind != TokKind::End) {
            lex_.fail("expected exactly one graph block");
        }
        return spec;
    }

private:
    /// `<name> ["description"]`; a name declared twice is rejected here,
    /// before the builder's precondition would turn it into an abort.
    void parse_node(SkillGraphSpec& spec, SkillNodeKind kind, const char* what) {
        const Token name = lex_.take_ident(what);
        if (spec.declares_node(name.text)) {
            throw ParseError(name.line, "duplicate node '" + name.text + "'");
        }
        std::string description;
        if (lex_.peek().kind == TokKind::String) {
            description = lex_.take().text;
        }
        switch (kind) {
        case SkillNodeKind::Skill: spec.skill(name.text, description); break;
        case SkillNodeKind::DataSource: spec.source(name.text, description); break;
        case SkillNodeKind::DataSink: spec.sink(name.text, description); break;
        }
    }

    void parse_statement(SkillGraphSpec& spec) {
        const Token head = lex_.take_ident("statement");
        if (head.text == "root") {
            spec.root(lex_.take_ident("root skill name").text);
        } else if (head.text == "skill") {
            parse_node(spec, SkillNodeKind::Skill, "skill name");
        } else if (head.text == "source") {
            parse_node(spec, SkillNodeKind::DataSource, "source name");
        } else if (head.text == "sink") {
            parse_node(spec, SkillNodeKind::DataSink, "sink name");
        } else if (head.text == "aggregate") {
            const std::string skill = lex_.take_ident("skill name").text;
            const Token agg = lex_.take_ident("aggregation name");
            Aggregation aggregation{};
            if (!aggregation_from_string(agg.text, aggregation)) {
                throw ParseError(agg.line, "unknown aggregation '" + agg.text +
                                               "' (min, product, weighted_mean)");
            }
            spec.aggregate(skill, aggregation);
        } else if (head.text == "weight") {
            const std::string skill = lex_.take_ident("skill name").text;
            const std::string child = lex_.take_ident("child name").text;
            const int line = lex_.peek().line;
            const double weight = lex_.take_real("weight value");
            if (weight <= 0.0) {
                throw ParseError(line, "weights must be positive");
            }
            spec.weight(skill, child, weight);
        } else if (lex_.accept_punct("->")) {
            // `<parent> -> <child> [<child> ...]`
            std::vector<std::string> children;
            children.push_back(lex_.take_ident("child name").text);
            while (lex_.peek().kind == TokKind::Ident) {
                children.push_back(lex_.take().text);
            }
            spec.depends(head.text, children);
        } else {
            throw ParseError(head.line, "unknown statement '" + head.text + "'");
        }
        lex_.expect_punct(";");
    }

    Lexer lex_;
};

} // namespace

SkillGraphSpec SkillGraphSpec::parse(const std::string& text) {
    SpecParser parser(text);
    return parser.parse_one();
}

} // namespace sa::skills
