#include "util/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/string_util.hpp"

namespace sa {

ParseError::ParseError(int line, const std::string& message)
    : std::runtime_error(message), line_(line) {}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }
bool is_xdigit(char c) {
    return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

bool is_hex(std::string_view number) {
    return number.size() > 2 && (number[1] == 'x' || number[1] == 'X');
}

std::string describe(const Token& token) {
    if (token.kind == TokKind::End) {
        return ", got end of input";
    }
    return ", got '" + token.text + "'";
}

/// Integer value of a Number token (decimal or 0x hex); false when it has a
/// fraction or does not fit 64 bits.
bool integer_value(std::string_view number, std::uint64_t& out) {
    int base = 10;
    if (is_hex(number)) {
        number.remove_prefix(2);
        base = 16;
    } else if (number.find('.') != std::string_view::npos) {
        return false;
    }
    const auto result =
        std::from_chars(number.data(), number.data() + number.size(), out, base);
    return result.ec == std::errc{};
}

} // namespace

Token Lexer::take() {
    Token token = current_;
    advance();
    return token;
}

void Lexer::fail(const std::string& message) const {
    throw ParseError(current_.line, message);
}

void Lexer::fail_expected(std::string_view what) const {
    fail("expected " + std::string(what) + describe(current_));
}

bool Lexer::accept_punct(std::string_view punct) {
    if (current_.kind != TokKind::Punct || current_.text != punct) {
        return false;
    }
    advance();
    return true;
}

Token Lexer::expect_punct(std::string_view punct) {
    if (current_.kind != TokKind::Punct || current_.text != punct) {
        fail_expected("'" + std::string(punct) + "'");
    }
    return take();
}

Token Lexer::expect_ident(std::string_view word) {
    if (current_.kind != TokKind::Ident || current_.text != word) {
        fail_expected("'" + std::string(word) + "'");
    }
    return take();
}

Token Lexer::take_ident(std::string_view what) {
    if (current_.kind != TokKind::Ident) {
        fail_expected(what);
    }
    return take();
}

std::string Lexer::take_string(std::string_view what) {
    if (current_.kind != TokKind::String) {
        fail_expected(what);
    }
    return take().text;
}

std::uint64_t Lexer::take_uint(std::string_view what, std::uint64_t max) {
    if (current_.kind != TokKind::Number || current_.text.find('.') != std::string::npos) {
        fail_expected(what);
    }
    std::uint64_t value = 0;
    if (!integer_value(current_.text, value) || value > max) {
        fail("number out of range: '" + current_.text + "'");
    }
    advance();
    return value;
}

double Lexer::take_real(std::string_view what) {
    if (current_.kind != TokKind::Number || is_hex(current_.text)) {
        fail_expected(what);
    }
    double value = 0.0;
    const std::string& text = current_.text;
    if (std::from_chars(text.data(), text.data() + text.size(), value).ec != std::errc{}) {
        fail("number out of range: '" + text + "'");
    }
    advance();
    return value;
}

std::int64_t Lexer::take_duration() {
    if (current_.kind != TokKind::Number || is_hex(current_.text)) {
        fail("expected a duration like '400ms'" + describe(current_));
    }
    const Token number = take();
    if (current_.kind != TokKind::Ident) {
        throw ParseError(number.line, "expected a duration unit (ns/us/ms/s) after '" +
                                          number.text + "'");
    }
    const std::string unit = to_lower(current_.text);
    std::int64_t scale = 0;
    if (unit == "ns") scale = 1;
    else if (unit == "us") scale = 1'000;
    else if (unit == "ms") scale = 1'000'000;
    else if (unit == "s") scale = 1'000'000'000;
    else fail("unknown duration unit '" + current_.text + "'");

    std::uint64_t whole = 0;
    double real = 0.0;
    const std::string& text = number.text;
    bool fits = false;
    std::int64_t ns = 0;
    if (integer_value(text, whole)) {
        fits = whole <= static_cast<std::uint64_t>(INT64_MAX / scale);
        ns = fits ? static_cast<std::int64_t>(whole) * scale : 0;
    } else if (std::from_chars(text.data(), text.data() + text.size(), real).ec ==
               std::errc{}) {
        // Truncating, as fractional durations always have.
        const double scaled = real * static_cast<double>(scale);
        fits = scaled < 9.223372036854775807e18;
        ns = fits ? static_cast<std::int64_t>(scaled) : 0;
    }
    if (!fits) {
        fail("duration out of range: '" + text + current_.text + "'");
    }
    advance();
    return ns;
}

void Lexer::advance() {
    skip_space_and_comments();
    current_ = Token{TokKind::End, {}, line_};
    if (pos_ >= text_.size()) {
        return;
    }
    const auto at = [this](std::size_t i) { return i < text_.size() ? text_[i] : '\0'; };
    const std::size_t start = pos_;
    const char c = text_[pos_];
    if (is_ident_start(c)) {
        current_.kind = TokKind::Ident;
        while (is_ident_char(at(pos_))) {
            ++pos_;
        }
    } else if (is_digit(c)) {
        current_.kind = TokKind::Number;
        if (c == '0' && (at(pos_ + 1) == 'x' || at(pos_ + 1) == 'X') &&
            is_xdigit(at(pos_ + 2))) {
            pos_ += 2;
            while (is_xdigit(at(pos_))) {
                ++pos_;
            }
        } else {
            while (is_digit(at(pos_))) {
                ++pos_;
            }
            if (at(pos_) == '.' && is_digit(at(pos_ + 1))) {
                ++pos_;
                while (is_digit(at(pos_))) {
                    ++pos_;
                }
            }
        }
    } else if (c == '"') {
        const std::size_t close = text_.find_first_of("\"\n", pos_ + 1);
        if (close == std::string_view::npos || text_[close] != '"') {
            throw ParseError(line_, "unterminated string literal");
        }
        current_.kind = TokKind::String;
        current_.text.assign(text_.substr(pos_ + 1, close - pos_ - 1));
        pos_ = close + 1;
        return;
    } else {
        current_.kind = TokKind::Punct;
        const char next = at(pos_ + 1);
        pos_ += (c == '-' && next == '>') || (c == '.' && next == '.') ? 2 : 1;
    }
    current_.text.assign(text_.substr(start, pos_ - start));
}

void Lexer::skip_space_and_comments() {
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '\n') {
            ++line_;
            ++pos_;
        } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++pos_;
        } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
            pos_ = std::min(text_.find('\n', pos_), text_.size());
        } else {
            break;
        }
    }
}

} // namespace sa
