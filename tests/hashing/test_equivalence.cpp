/**
 * @file
 * Equivalence proofs for every hot-path hashing shortcut.
 *
 * The optimized pipeline takes these liberties with the naive definitions:
 * slicing-by-8 CRC instead of the byte-at-a-time recurrence, a hoisted
 * address-prefix CRC inside Crc64LocationHasher::hashSpan, one batched
 * hashSpan call per store instead of a per-byte virtual hashByte fold,
 * both halves of a store hashed in one hashSpanPair pass (once when they
 * round equal), and a decimal floor with a cached scale and no library
 * floor call. Every checkpoint hash in the repo flows through these
 * shortcuts, so this suite pins them against independent naive references
 * (kept alive here, not in the library) plus golden vectors frozen from
 * the canonical definition — any silent change to the hash function fails
 * loudly.
 */

#include <bit>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "hashing/crc64.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/state_hash.hpp"
#include "hashing/truncated_hash.hpp"
#include "mem/memory.hpp"
#include "support/rng.hpp"

namespace icheck::hashing
{
namespace
{

/** Tableless bitwise CRC-64/ECMA-182: the definition, one bit at a time. */
std::uint64_t
bitwiseCrc64(const std::uint8_t *data, std::size_t len,
             std::uint64_t seed = 0)
{
    std::uint64_t crc = seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= static_cast<std::uint64_t>(data[i]) << 56;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & (1ULL << 63))
                crc = (crc << 1) ^ detail::crc64Polynomial;
            else
                crc <<= 1;
        }
    }
    return crc;
}

/**
 * Naive h(a, v) for the CRC instantiation: the CRC of the 9-byte record
 * (8-byte little-endian address, then the value byte), identity for zero.
 */
ModHash
referenceCrcHashByte(Addr addr, std::uint8_t value)
{
    if (value == 0)
        return ModHash{};
    std::uint8_t record[9];
    for (int i = 0; i < 8; ++i)
        record[i] = static_cast<std::uint8_t>(addr >> (8 * i));
    record[8] = value;
    return ModHash(bitwiseCrc64(record, 9));
}

/** The per-byte fold every hashSpan override must stay bit-identical to. */
ModHash
referenceFold(const LocationHasher &hasher, Addr addr,
              const std::uint8_t *bytes, std::size_t len)
{
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i)
        sum += hasher.hashByte(addr + i, bytes[i]);
    return sum;
}

/** Deterministic test bytes with zeros sprinkled in (the skip path). */
std::vector<std::uint8_t>
patternBytes(std::size_t len, std::uint64_t seed)
{
    SplitMix64 gen(seed);
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t &byte : bytes) {
        const std::uint64_t word = gen.next();
        byte = (word % 5 == 0) ? 0 : static_cast<std::uint8_t>(word >> 32);
    }
    return bytes;
}

TEST(CrcEquivalence, SlicedComputeMatchesBitwise)
{
    SplitMix64 gen(0xc0ffee);
    for (std::size_t len = 0; len <= 64; ++len) {
        std::vector<std::uint8_t> data(len);
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(gen.next());
        const std::uint64_t seed = gen.next();
        EXPECT_EQ(Crc64::compute(data.data(), len, seed),
                  bitwiseCrc64(data.data(), len, seed))
            << "len " << len;
    }
}

TEST(CrcEquivalence, SlicedComputeKnownVector)
{
    const char *msg = "123456789";
    EXPECT_EQ(Crc64::compute(msg, std::strlen(msg)),
              0x6C40DF5F0B497347ULL);
}

TEST(CrcEquivalence, FeedWordLeMatchesEightFeeds)
{
    SplitMix64 gen(0x5eed);
    for (int round = 0; round < 256; ++round) {
        const std::uint64_t seed = gen.next();
        const std::uint64_t word = gen.next();
        std::uint64_t crc = seed;
        for (int i = 0; i < 8; ++i)
            crc = Crc64::feed(crc,
                              static_cast<std::uint8_t>(word >> (8 * i)));
        EXPECT_EQ(Crc64::feedWordLe(seed, word), crc);
    }
}

TEST(CrcEquivalence, HashByteIsNineByteRecordCrc)
{
    const Crc64LocationHasher hasher;
    const Addr addrs[] = {0x0, 0x1, 0xff, 0x100, mem::staticBase,
                          mem::heapBase - 1, mem::heapBase,
                          mem::scratchBase + 0xff,
                          0xfedcba9876543210ULL, ~Addr{0}};
    for (const Addr addr : addrs) {
        for (unsigned value = 0; value < 256; ++value) {
            EXPECT_EQ(
                hasher.hashByte(addr, static_cast<std::uint8_t>(value)),
                referenceCrcHashByte(addr,
                                     static_cast<std::uint8_t>(value)))
                << "addr " << addr << " value " << value;
        }
    }
}

TEST(CrcEquivalence, ZeroByteIsIdentityEverywhere)
{
    const Crc64LocationHasher crc;
    const Mix64LocationHasher mix;
    SplitMix64 gen(0xabcdef);
    for (int round = 0; round < 1000; ++round) {
        const Addr addr = gen.next();
        EXPECT_EQ(crc.hashByte(addr, 0), ModHash{});
        EXPECT_EQ(mix.hashByte(addr, 0), ModHash{});
    }
}

/** Exercise one hasher's hashSpan against the fold over tricky spans. */
void
checkSpans(const LocationHasher &hasher)
{
    // Every width and alignment a store can have, at benign addresses.
    for (Addr base : {Addr{0}, mem::staticBase, mem::heapBase}) {
        for (unsigned align = 0; align < 8; ++align) {
            for (std::size_t len = 1; len <= 8; ++len) {
                const Addr addr = base + align;
                const auto bytes =
                    patternBytes(len, base + align * 16 + len);
                EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), len),
                          referenceFold(hasher, addr, bytes.data(), len))
                    << hasher.name() << " addr " << addr << " len " << len;
            }
        }
    }
    // Spans that straddle the 0x100 suffix-hoisting boundary, the 4096
    // page boundary, and address-space wraparound, at every offset.
    const Addr boundaries[] = {mem::heapBase + 0x100,
                               mem::heapBase + mem::pageSize,
                               mem::scratchBase + 3 * mem::pageSize,
                               Addr{0}};
    for (const Addr boundary : boundaries) {
        for (std::size_t len : {std::size_t{2}, std::size_t{8},
                                std::size_t{64}, std::size_t{300}}) {
            for (std::size_t before = 1; before < len; ++before) {
                const Addr addr = boundary - before;
                const auto bytes = patternBytes(len, boundary + before);
                EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), len),
                          referenceFold(hasher, addr, bytes.data(), len))
                    << hasher.name() << " boundary " << boundary
                    << " before " << before << " len " << len;
            }
        }
    }
    // All-zero spans hash to the identity.
    const std::vector<std::uint8_t> zeros(512, 0);
    EXPECT_EQ(hasher.hashSpan(mem::heapBase - 7, zeros.data(),
                              zeros.size()),
              ModHash{});
}

TEST(SpanEquivalence, Crc64HashSpanMatchesByteFold)
{
    checkSpans(Crc64LocationHasher{});
}

TEST(SpanEquivalence, Mix64HashSpanMatchesByteFold)
{
    checkSpans(Mix64LocationHasher{});
}

TEST(SpanEquivalence, TruncatedHasherKeepsPerByteSemantics)
{
    // TruncatedLocationHasher masks each per-byte hash before summing; it
    // must inherit the generic fold, not a batched override that would
    // mask only the total.
    const TruncatedLocationHasher hasher(
        std::make_unique<Crc64LocationHasher>(), 16);
    const auto bytes = patternBytes(40, 0x7e57);
    const Addr addr = mem::heapBase + 0x100 - 13;
    EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), bytes.size()),
              referenceFold(hasher, addr, bytes.data(), bytes.size()));
}

TEST(ValueHashEquivalence, AllWidthsAndClassesMatchByteFold)
{
    const Crc64LocationHasher locHasher;
    SplitMix64 gen(0xfeed);
    for (const auto &mode : {FpRoundMode::none(),
                             FpRoundMode::paperDefault(),
                             FpRoundMode::mask(12)}) {
        const StateHasher pipeline(locHasher, mode);
        for (unsigned width = 1; width <= 8; ++width) {
            const Addr addr = mem::heapBase + 0x100 - width / 2;
            const std::uint64_t raw =
                width == 8 ? gen.next()
                           : gen.next() & ((1ULL << (8 * width)) - 1);
            const ModHash got =
                pipeline.valueHash(addr, raw, width, ValueClass::Integer);
            std::uint8_t bytes[8];
            for (unsigned i = 0; i < width; ++i)
                bytes[i] = static_cast<std::uint8_t>(raw >> (8 * i));
            EXPECT_EQ(got, referenceFold(locHasher, addr, bytes, width))
                << "width " << width;
        }
        // FP classes round first, then fold the rounded bytes.
        const struct
        {
            ValueClass cls;
            unsigned width;
            std::uint64_t raw;
        } fpCases[] = {
            {ValueClass::Float, 4, 0x402df854},          // 2.71828f
            {ValueClass::Float, 4, 0xc0490fdb},          // -3.14159f
            {ValueClass::Double, 8, 0x400921fb54442d18}, // pi
            {ValueClass::Double, 8, 0xbfe0000000000000}, // -0.5
        };
        for (const auto &fp : fpCases) {
            const Addr addr = mem::staticBase + 64;
            const std::uint64_t rounded =
                roundFpBits(fp.raw, fp.width, mode);
            std::uint8_t bytes[8];
            for (unsigned i = 0; i < fp.width; ++i)
                bytes[i] = static_cast<std::uint8_t>(rounded >> (8 * i));
            EXPECT_EQ(pipeline.valueHash(addr, fp.raw, fp.width, fp.cls),
                      referenceFold(locHasher, addr, bytes, fp.width));
        }
    }
}

/** Exercise one hasher's hashSpanPair against two hashSpan calls. */
void
checkSpanPairs(const LocationHasher &hasher)
{
    const auto expectPair = [&](Addr addr, const std::uint8_t *old_bytes,
                                const std::uint8_t *new_bytes,
                                std::size_t len) {
        ModHash old_hash{0x5a5a};
        ModHash new_hash{0xa5a5};
        hasher.hashSpanPair(addr, old_bytes, new_bytes, len, old_hash,
                            new_hash);
        EXPECT_EQ(old_hash, hasher.hashSpan(addr, old_bytes, len))
            << hasher.name() << " addr " << addr << " len " << len;
        EXPECT_EQ(new_hash, hasher.hashSpan(addr, new_bytes, len))
            << hasher.name() << " addr " << addr << " len " << len;
    };
    // Every store width at every alignment, around the 0x100 suffix
    // chunk boundary, with zero bytes sprinkled into both halves.
    for (const Addr boundary : {mem::heapBase + 0x100,
                                mem::staticBase + mem::pageSize,
                                mem::scratchBase + 0x200, Addr{0}}) {
        for (std::size_t len = 0; len <= 8; ++len) {
            for (std::size_t before = 0; before <= 9; ++before) {
                const Addr addr = boundary - before;
                const auto old_bytes = patternBytes(8, addr + len);
                const auto new_bytes = patternBytes(8, ~addr - len);
                expectPair(addr, old_bytes.data(), new_bytes.data(), len);
                // Equal halves, and one half all zero.
                expectPair(addr, old_bytes.data(), old_bytes.data(), len);
                const std::uint8_t zeros[8] = {};
                expectPair(addr, zeros, new_bytes.data(), len);
                expectPair(addr, old_bytes.data(), zeros, len);
            }
        }
    }
    // Long spans that cross several chunks.
    for (const std::size_t len : {std::size_t{255}, std::size_t{256},
                                  std::size_t{257}, std::size_t{700}}) {
        const Addr addr = mem::heapBase + 0x100 - 3;
        const auto old_bytes = patternBytes(len, len);
        const auto new_bytes = patternBytes(len, len + 1);
        expectPair(addr, old_bytes.data(), new_bytes.data(), len);
    }
}

TEST(PairEquivalence, Crc64HashSpanPairMatchesTwoSpans)
{
    checkSpanPairs(Crc64LocationHasher{});
}

TEST(PairEquivalence, Mix64HashSpanPairMatchesTwoSpans)
{
    checkSpanPairs(Mix64LocationHasher{});
}

TEST(PairEquivalence, TruncatedHashSpanPairMatchesTwoSpans)
{
    checkSpanPairs(TruncatedLocationHasher(
        std::make_unique<Crc64LocationHasher>(), 16));
}

/** Raw bits of FP values every rounding mode must treat identically. */
std::vector<std::uint64_t>
specialDoubles()
{
    std::vector<std::uint64_t> bits;
    for (const double value :
         {0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 0.3, -2.5e-4, 12.3456789,
          -12.3456789, 4.6e15, -4.6e15, 0x1.0p62, -0x1.0p62, 1e300,
          -1e300, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max()})
        bits.push_back(std::bit_cast<std::uint64_t>(value));
    // A signalling NaN with payload, and values whose scaled magnitude
    // sits just under and over the 2^62 guard at three digits.
    bits.push_back(0x7ff0000000000123ULL);
    bits.push_back(std::bit_cast<std::uint64_t>(0x1.0p62 / 1000.0 * 0.999));
    bits.push_back(std::bit_cast<std::uint64_t>(0x1.0p62 / 1000.0 * 1.001));
    SplitMix64 gen(0xf10a7);
    for (int i = 0; i < 64; ++i) {
        bits.push_back(gen.next());
        const double scale = static_cast<double>(1ULL << (gen.next() % 60));
        const double value =
            (static_cast<double>(gen.next() >> 11) * 0x1.0p-53 - 0.5) *
            scale;
        bits.push_back(std::bit_cast<std::uint64_t>(value));
    }
    return bits;
}

std::vector<FpRoundMode>
allRoundModes()
{
    std::vector<FpRoundMode> modes = {FpRoundMode::none(),
                                      FpRoundMode::mask(0),
                                      FpRoundMode::mask(12),
                                      FpRoundMode::mask(30),
                                      FpRoundMode::mask(52)};
    for (int digits = 0; digits <= 6; ++digits)
        modes.push_back(FpRoundMode::floorDigits(digits));
    return modes;
}

TEST(ValueHashPairEquivalence, MatchesTwoValueHashes)
{
    const Crc64LocationHasher locHasher;
    const auto doubles = specialDoubles();
    SplitMix64 gen(0x9a1);
    for (const FpRoundMode &mode : allRoundModes()) {
        const StateHasher pipeline(locHasher, mode);
        const auto expectPair = [&](Addr addr, std::uint64_t old_bits,
                                    std::uint64_t new_bits, unsigned width,
                                    ValueClass cls) {
            ModHash old_hash;
            ModHash new_hash;
            pipeline.valueHashPair(addr, old_bits, new_bits, width, cls,
                                   old_hash, new_hash);
            EXPECT_EQ(old_hash,
                      pipeline.valueHash(addr, old_bits, width, cls))
                << "old " << old_bits << " width " << width;
            EXPECT_EQ(new_hash,
                      pipeline.valueHash(addr, new_bits, width, cls))
                << "new " << new_bits << " width " << width;
        };
        for (unsigned width = 1; width <= 8; ++width) {
            const Addr addr = mem::heapBase + 0x100 - width / 2;
            for (int round = 0; round < 16; ++round) {
                // High garbage above the width is ignored by both paths.
                const std::uint64_t old_bits = gen.next();
                const std::uint64_t new_bits = gen.next();
                expectPair(addr, old_bits, new_bits, width,
                           ValueClass::Integer);
                expectPair(addr, old_bits, old_bits, width,
                           ValueClass::Integer);
                expectPair(addr, 0, new_bits, width, ValueClass::Integer);
            }
        }
        for (std::size_t i = 0; i < doubles.size(); ++i) {
            const std::uint64_t a = doubles[i];
            const std::uint64_t b = doubles[(i * 7 + 3) % doubles.size()];
            const Addr addr = mem::staticBase + 0x100 - 4 + i % 8;
            expectPair(addr, a, b, 8, ValueClass::Double);
            expectPair(addr, a, a, 8, ValueClass::Double);
            const auto fa = std::bit_cast<std::uint32_t>(
                static_cast<float>(std::bit_cast<double>(a)));
            const auto fb = std::bit_cast<std::uint32_t>(
                static_cast<float>(std::bit_cast<double>(b)));
            expectPair(addr, fa, fb, 4, ValueClass::Float);
            expectPair(addr, fa, fa, 4, ValueClass::Float);
            // Raw float bit patterns too (NaN payloads, subnormals).
            expectPair(addr, static_cast<std::uint32_t>(a),
                       static_cast<std::uint32_t>(b), 4, ValueClass::Float);
        }
        // Values that differ in the raw bits but round to the same value
        // take the hash-once path: both halves must still be exact.
        const std::uint64_t noisy_a =
            std::bit_cast<std::uint64_t>((0.1 + 0.2) + 0.3);
        const std::uint64_t noisy_b =
            std::bit_cast<std::uint64_t>(0.1 + (0.2 + 0.3));
        expectPair(mem::heapBase, noisy_a, noisy_b, 8, ValueClass::Double);
        expectPair(mem::heapBase, std::bit_cast<std::uint64_t>(-0.0), 0, 8,
                   ValueClass::Double);
    }
}

TEST(ValueHashPairEquivalence, StoreDeltaIsNewMinusOld)
{
    const Crc64LocationHasher locHasher;
    const StateHasher pipeline(locHasher, FpRoundMode::paperDefault());
    for (const std::uint64_t a : specialDoubles()) {
        const std::uint64_t b = a ^ 0x0000'0100'0000'0000ULL;
        EXPECT_EQ(pipeline.storeDelta(0x10040, a, b, 8, ValueClass::Double),
                  pipeline.valueHash(0x10040, b, 8, ValueClass::Double) -
                      pipeline.valueHash(0x10040, a, 8, ValueClass::Double));
    }
}

/**
 * The decimal floor as first defined: std::pow per value and the library
 * std::floor. FpRounder caches the scale and floors without the library
 * call; both must give the same bits for every input.
 */
double
referenceFloorToDigits(double value, int digits)
{
    if (!std::isfinite(value))
        return value;
    const double scale = std::pow(10.0, digits);
    const double scaled = value * scale;
    if (std::fabs(scaled) >= 0x1.0p62)
        return value;
    const double floored = std::floor(scaled) / scale;
    return floored == 0.0 ? 0.0 : floored;
}

TEST(FpRounderEquivalence, DecimalFloorMatchesLibraryFloor)
{
    std::vector<std::uint64_t> inputs = specialDoubles();
    SplitMix64 gen(0xd1617);
    for (int i = 0; i < 4000; ++i) {
        // Small magnitudes of both signs, many landing on exact grain
        // multiples, where floor and truncation differ most often.
        const double grain = static_cast<double>(gen.next() % 4000) / 8.0;
        inputs.push_back(std::bit_cast<std::uint64_t>(
            gen.next() % 2 == 0 ? grain : -grain));
        inputs.push_back(gen.next());
    }
    for (int digits = -3; digits <= 9; ++digits) {
        const FpRounder rounder(FpRoundMode::floorDigits(digits));
        for (const std::uint64_t raw : inputs) {
            const double value = std::bit_cast<double>(raw);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(rounder.roundDouble(value)),
                      std::bit_cast<std::uint64_t>(
                          referenceFloorToDigits(value, digits)))
                << "value " << value << " digits " << digits;
            const float narrow = static_cast<float>(value);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(rounder.roundFloat(narrow)),
                      std::bit_cast<std::uint32_t>(static_cast<float>(
                          referenceFloorToDigits(narrow, digits))))
                << "value " << narrow << " digits " << digits;
        }
    }
}

TEST(GoldenVectors, PinnedHashesNeverDrift)
{
    // Frozen outputs of the canonical hash definitions. These must never
    // change: every stored determinism report and cross-run comparison
    // depends on the exact values.
    const Crc64LocationHasher crc;
    const Mix64LocationHasher mix;

    const struct
    {
        Addr addr;
        std::uint8_t value;
        std::uint64_t crcHash;
        std::uint64_t mixHash;
    } bytes[] = {
        {0x0, 0x01, 0x42f0e1eba9ea3693ULL, 0xc9ed992411bbb661ULL},
        {0x10000, 0xff, 0x5d3076bb3bd3f60bULL, 0x52cd0ccab30d354cULL},
        {0x1ffffffdULL, 0x80, 0xd12db12d8915f255ULL,
         0x6095950d16dcb922ULL},
        {0x20000000ULL, 0x5a, 0x123e97515f83c370ULL,
         0xdb35751bdac3149dULL},
        {0x600000ffULL, 0x01, 0x5d8106f22c46155fULL,
         0x8a7d4cce1ff69f02ULL},
        {0xfedcba9876543210ULL, 0xc3, 0xf8477baa1c0b4f28ULL,
         0x091d32f8171220baULL},
    };
    for (const auto &expected : bytes) {
        EXPECT_EQ(crc.hashByte(expected.addr, expected.value).raw(),
                  expected.crcHash);
        EXPECT_EQ(mix.hashByte(expected.addr, expected.value).raw(),
                  expected.mixHash);
    }

    std::uint8_t span[40];
    for (int i = 0; i < 40; ++i) {
        span[i] = static_cast<std::uint8_t>(i % 5 == 0 ? 0 : i * 37 + 1);
    }
    // Straddles a 0x100 address boundary.
    EXPECT_EQ(crc.hashSpan(0x200000f0ULL, span, 40).raw(),
              0x647770194d2ccdbfULL);
    EXPECT_EQ(mix.hashSpan(0x200000f0ULL, span, 40).raw(),
              0x17d519a782eee055ULL);
    // Straddles a simulated page boundary.
    const Addr pageStraddle = 0x20000000ULL + mem::pageSize - 20;
    EXPECT_EQ(crc.hashSpan(pageStraddle, span, 40).raw(),
              0x660038ccdfa03ad9ULL);
    EXPECT_EQ(mix.hashSpan(pageStraddle, span, 40).raw(),
              0x61d7228168ff81dbULL);

    const StateHasher rounded(crc, FpRoundMode::paperDefault());
    EXPECT_EQ(rounded
                  .valueHash(0x10040, 0x400921fb54442d11ULL, 8,
                             ValueClass::Double)
                  .raw(),
              0xff0f1a5d76e07899ULL);
    EXPECT_EQ(rounded
                  .valueHash(0x10044, 0x402df854ULL, 4, ValueClass::Float)
                  .raw(),
              0x18ebc41522fd7d92ULL);
    EXPECT_EQ(rounded
                  .valueHash(0x10048, 0x0123456789abcdefULL, 8,
                             ValueClass::Integer)
                  .raw(),
              0xffffdffffffffffcULL);
}

} // namespace
} // namespace icheck::hashing
