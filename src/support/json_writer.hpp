#ifndef ICHECK_SUPPORT_JSON_WRITER_HPP
#define ICHECK_SUPPORT_JSON_WRITER_HPP

/**
 * @file
 * The one JSON writer: every JSON line or document the project emits is
 * written through JsonWriter, and service::parseJson is the one reader.
 * No whitespace, members in the order the caller writes them, and one
 * spelling per value type, so identical inputs always produce identical
 * bytes — the service's byte-identical-report contract rests on that.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

namespace icheck
{

/**
 * Streaming writer appending to its own std::string. Commas and colons
 * are placed automatically; the caller balances begin/end calls and
 * follows every key() with exactly one value.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** An object member's key; the next call writes its value. */
    JsonWriter &
    key(std::string_view name)
    {
        string(name);
        out += ':';
        first = true;
        return *this;
    }

    JsonWriter &
    string(std::string_view text)
    {
        separate();
        appendQuoted(text);
        return *this;
    }

    JsonWriter &boolean(bool value) { return raw(value ? "true" : "false"); }
    JsonWriter &int64(std::int64_t v) { return raw(std::to_string(v)); }
    JsonWriter &uint64(std::uint64_t v) { return raw(std::to_string(v)); }

    /** A double in "%.17g": enough digits to round-trip exactly. */
    JsonWriter &number(double value) { return formatted("%.*g", 17, value); }

    /** A double in fixed point with @p digits decimals ("%.<digits>f"). */
    JsonWriter &
    fixed(double value, int digits)
    {
        return formatted("%.*f", digits, value);
    }

    /** @p value as a string of 16 lowercase hex digits. */
    JsonWriter &
    hex16(std::uint64_t value)
    {
        std::string digits(16, '0');
        for (int i = 15; i >= 0; --i, value >>= 4)
            digits[static_cast<std::size_t>(i)] = kHexDigits[value & 0xf];
        return string(digits);
    }

    /**
     * An already-rendered JSON value, copied verbatim: a number lexeme
     * from a parsed service::JsonValue, or a document another writer
     * produced.
     */
    JsonWriter &
    raw(std::string_view json)
    {
        separate();
        out += json;
        return *this;
    }

    /** The bytes written so far, moved out of the writer. */
    std::string take() { return std::move(out); }

  private:
    static constexpr const char *kHexDigits = "0123456789abcdef";

    JsonWriter &
    open(char bracket)
    {
        separate();
        out += bracket;
        first = true;
        return *this;
    }

    JsonWriter &
    close(char bracket)
    {
        out += bracket;
        first = false;
        return *this;
    }

    /** The comma owed before a value that is not its container's first. */
    void
    separate()
    {
        if (!first)
            out += ',';
        first = false;
    }

    /** Append @p text quoted: `"`, `\`, newline and tab get their short
     *  escape, other control bytes `\u00XX`; every other byte (UTF-8
     *  included) is copied unchanged. */
    void
    appendQuoted(std::string_view text)
    {
        out += '"';
        for (const char c : text) {
            const auto byte = static_cast<unsigned char>(c);
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (c == '\n') {
                out += "\\n";
            } else if (c == '\t') {
                out += "\\t";
            } else if (byte < 0x20) {
                out += "\\u00";
                out += kHexDigits[byte >> 4];
                out += kHexDigits[byte & 0xf];
            } else {
                out += c;
            }
        }
        out += '"';
    }

    /** @p format takes one `*` precision and one double; a measuring
     *  pass sizes the output, so no value is ever truncated. */
    JsonWriter &
    formatted(const char *format, int precision, double value)
    {
        const int length = std::snprintf(nullptr, 0, format, precision, value);
        std::string text(static_cast<std::size_t>(length > 0 ? length : 0),
                         '\0');
        std::snprintf(text.data(), text.size() + 1, format, precision, value);
        return raw(text);
    }

    std::string out;
    bool first = true; ///< No comma before the next value.
};

} // namespace icheck

#endif // ICHECK_SUPPORT_JSON_WRITER_HPP
