#ifndef ICHECK_SERVICE_JSON_HPP
#define ICHECK_SERVICE_JSON_HPP

/**
 * @file
 * Minimal JSON reader for the service's request codec.
 *
 * The daemon parses untrusted JSONL lines, so the parser is strict
 * rather than permissive: it rejects trailing garbage, duplicate object
 * keys, unterminated literals, and inputs nested deeper than a fixed
 * bound (a hostile 10k-bracket line must not recurse the stack away).
 * Numbers keep their raw lexeme alongside the double so 64-bit seeds
 * round-trip exactly. Members preserve source order, which lets the
 * codec reject unknown fields with a precise message.
 *
 * Writing goes through support/json_writer.hpp, the one JSON writer.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace icheck::service
{

/** One parsed JSON value (a tree; arrays/objects own their children). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;

    /** String payload, or the raw number lexeme for Kind::Number. */
    std::string text;

    std::vector<JsonValue> items;                          ///< Array.
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object.

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key, or null if absent. */
    const JsonValue *find(const std::string &key) const;

    /** The number as u64 if it is a non-negative integer lexeme. */
    std::optional<std::uint64_t> asU64() const;

    /** The number as double (0.0 if not a number). */
    double asDouble() const;
};

/**
 * Parse one complete JSON document from @p text. Returns nullopt and
 * sets @p error (if non-null) on any syntax violation, trailing bytes,
 * duplicate keys, or nesting beyond 32 levels.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace icheck::service

#endif // ICHECK_SERVICE_JSON_HPP
