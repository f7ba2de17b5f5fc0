/**
 * @file
 * JsonWriter round trips: what the writer emits, service::parseJson
 * reads back unchanged — every escapable byte in keys and values,
 * UTF-8, 64-bit extremes, "%.17g" doubles and nested punctuation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "service/json.hpp"
#include "support/json_writer.hpp"

namespace icheck
{
namespace
{

using service::JsonValue;

JsonValue
parsed(const std::string &json)
{
    std::string error;
    const auto value = service::parseJson(json, &error);
    EXPECT_TRUE(value.has_value()) << error << " in " << json;
    return value.value_or(JsonValue{});
}

/** {"<text>":"<text>"}, parsed back. */
JsonValue
keyAndValueRoundTrip(const std::string &text)
{
    return parsed(
        JsonWriter().beginObject().key(text).string(text).endObject().take());
}

TEST(JsonWriter, EveryAsciiByteRoundTripsInKeysAndValues)
{
    for (int byte = 0x01; byte <= 0x7f; ++byte) {
        const std::string text =
            std::string("a") + static_cast<char>(byte) + "z";
        const JsonValue object = keyAndValueRoundTrip(text);
        ASSERT_EQ(object.members.size(), 1u) << byte;
        EXPECT_EQ(object.members[0].first, text) << byte;
        EXPECT_EQ(object.members[0].second.text, text) << byte;
    }
}

TEST(JsonWriter, Utf8RoundTripsInKeysAndValues)
{
    const std::string text = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\x91";
    const JsonValue object = keyAndValueRoundTrip(text);
    ASSERT_EQ(object.members.size(), 1u);
    EXPECT_EQ(object.members[0].first, text);
    EXPECT_EQ(object.members[0].second.text, text);
}

TEST(JsonWriter, EscapesControlCharactersAsUnicode)
{
    EXPECT_EQ(JsonWriter().string("a\x01z").take(), "\"a\\u0001z\"");
    EXPECT_EQ(JsonWriter().string("plain").take(), "\"plain\"");
    EXPECT_EQ(JsonWriter().string("q\" b\\ n\n t\t r\r").take(),
              "\"q\\\" b\\\\ n\\n t\\t r\\u000d\"");
}

TEST(JsonWriter, SixtyFourBitExtremesRoundTrip)
{
    constexpr auto u64Max = std::numeric_limits<std::uint64_t>::max();
    constexpr auto i64Min = std::numeric_limits<std::int64_t>::min();
    const std::string json = JsonWriter()
                                 .beginArray()
                                 .uint64(u64Max)
                                 .int64(i64Min)
                                 .hex16(u64Max)
                                 .hex16(1)
                                 .endArray()
                                 .take();
    EXPECT_EQ(json, "[18446744073709551615,-9223372036854775808,"
                    "\"ffffffffffffffff\",\"0000000000000001\"]");
    const JsonValue array = parsed(json);
    ASSERT_EQ(array.items.size(), 4u);
    EXPECT_EQ(array.items[0].asU64(), u64Max);
    EXPECT_EQ(std::strtoll(array.items[1].text.c_str(), nullptr, 10),
              i64Min);
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    const double values[] = {0.0,     0.1,  1.0 / 3.0,  -2.5e-300,
                             1.5e300, 42.0, 123456789.0};
    for (const double value : values) {
        const std::string json = JsonWriter().number(value).take();
        char expected[64];
        std::snprintf(expected, sizeof expected, "%.17g", value);
        EXPECT_EQ(json, expected);
        EXPECT_EQ(parsed(json).asDouble(), value) << json;
    }
}

TEST(JsonWriter, FixedDigitsMatchPrintf)
{
    const std::string json = JsonWriter()
                                 .beginArray()
                                 .fixed(0.123456789, 2)
                                 .fixed(0.5, 3)
                                 .fixed(2.0 / 3.0, 4)
                                 .fixed(1e20, 6)
                                 .fixed(1234.5, 0)
                                 .endArray()
                                 .take();
    EXPECT_EQ(json, "[0.12,0.500,0.6667,100000000000000000000.000000,1234]");
    EXPECT_EQ(parsed(json).items.size(), 5u);
}

TEST(JsonWriter, NestedPunctuation)
{
    JsonWriter writer;
    writer.beginObject()
        .key("empty").beginObject().endObject()
        .key("none").beginArray().endArray()
        .key("list")
        .beginArray()
        .beginObject()
        .key("a").boolean(true)
        .key("b").boolean(false)
        .endObject()
        .beginArray()
        .int64(1)
        .beginArray()
        .endArray()
        .endArray()
        .string("s")
        .endArray()
        .key("raw").raw("1.50")
        .endObject();
    const std::string json = writer.take();
    EXPECT_EQ(json, "{\"empty\":{},\"none\":[],\"list\":[{\"a\":true,"
                    "\"b\":false},[1,[]],\"s\"],\"raw\":1.50}");
    const JsonValue object = parsed(json);
    ASSERT_EQ(object.members.size(), 4u);
    EXPECT_EQ(object.find("list")->items.size(), 3u);
    EXPECT_EQ(object.find("raw")->text, "1.50");
}

} // namespace
} // namespace icheck
