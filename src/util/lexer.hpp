#pragma once
// The one tokenizer behind every text front end: contracts (model), skill
// specs (skills), campaigns and corpus entries (campaign). It has one token
// set and no modes:
//
//   Ident   [A-Za-z_][A-Za-z0-9_]*
//   Number  decimal digits with an optional .digits fraction, or 0x hex
//   String  "..." ending on the same line (no escapes)
//   Punct   "->", "..", or any other single character
//
// plus `//` comments to end of line. Each grammar keeps its own rules (units,
// ranges, keywords) in its parser; the expect_*/take_* helpers give every
// parser the same diagnostics and range-check every Number they convert, so
// any input becomes either a parse or a ParseError.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sa {

/// Thrown by every text front end on malformed input. what() is the bare
/// message; line() is the 1-based source line (0: not tied to one line).
class ParseError : public std::runtime_error {
public:
    ParseError(int line, const std::string& message);
    [[nodiscard]] int line() const noexcept { return line_; }

private:
    int line_;
};

enum class TokKind { Ident, Number, String, Punct, End };

struct Token {
    TokKind kind = TokKind::End;
    std::string text; ///< a String's contents, without the quotes
    int line = 0;
};

class Lexer {
public:
    /// `text` must outlive the lexer.
    explicit Lexer(std::string_view text) : text_(text) { advance(); }

    [[nodiscard]] const Token& peek() const noexcept { return current_; }
    Token take();

    /// Throw ParseError(message) at the line of the next token.
    [[noreturn]] void fail(const std::string& message) const;

    /// Take the next token if it is the punctuator `punct`.
    bool accept_punct(std::string_view punct);

    /// Take the punctuator `punct` / the keyword `word`, or fail with
    /// `expected '<punct>', got '<token>'`.
    Token expect_punct(std::string_view punct);
    Token expect_ident(std::string_view word);

    /// Take a token of one kind, or fail with `expected <what>, got ...`.
    Token take_ident(std::string_view what);
    std::string take_string(std::string_view what);
    /// An integer Number (decimal or 0x hex) no larger than `max`.
    std::uint64_t take_uint(std::string_view what, std::uint64_t max = UINT64_MAX);
    /// A decimal Number (with or without a fraction) as a finite double.
    double take_real(std::string_view what);
    /// A decimal Number followed by a unit identifier (ns/us/ms/s, any case),
    /// in nanoseconds; fails unless the result fits an int64.
    std::int64_t take_duration();

private:
    [[noreturn]] void fail_expected(std::string_view what) const;
    void advance();
    void skip_space_and_comments();

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token current_;
};

} // namespace sa
