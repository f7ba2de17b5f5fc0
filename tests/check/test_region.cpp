/**
 * @file
 * Typed-region hashing: the one-read traversal (read the region once,
 * round its FP scalars in place, hash one span) against the per-scalar
 * definition — one readValue and one valueHash per scalar, pads hashed
 * raw — over seeded random nested descriptors and memory images.
 */

#include <gtest/gtest.h>
#include <bit>
#include <vector>

#include "check/region.hpp"
#include "support/rng.hpp"

namespace icheck::check
{
namespace
{

using hashing::FpRoundMode;
using hashing::ModHash;

/** The per-scalar fold a typed region's hash is defined as. */
ModHash
referenceTypedHash(const hashing::StateHasher &hasher,
                   const mem::SparseMemory &image, Addr addr,
                   const mem::TypeRef &type, std::size_t len)
{
    ModHash sum;
    if (!type) {
        std::vector<std::uint8_t> bytes(len);
        image.readBytes(addr, bytes.data(), len);
        return hasher.spanHash(addr, bytes.data(), len);
    }
    type->forEachScalar([&](std::size_t offset, mem::ScalarKind kind,
                            unsigned width) {
        const Addr at = addr + offset;
        if (kind == mem::ScalarKind::Pad) {
            std::vector<std::uint8_t> bytes(width);
            image.readBytes(at, bytes.data(), width);
            sum += hasher.spanHash(at, bytes.data(), width);
            return;
        }
        sum += hasher.valueHash(at, image.readValue(at, width), width,
                                mem::scalarClass(kind));
    });
    return sum;
}

/** A seeded random descriptor: nested structs and arrays of every leaf. */
mem::TypeRef
randomType(SplitMix64 &gen, int depth)
{
    const unsigned pick =
        static_cast<unsigned>(gen.next() % (depth > 0 ? 10 : 7));
    switch (pick) {
      case 0: return mem::tDouble();
      case 1: return mem::tFloat();
      case 2: return mem::tPointer();
      case 3: return mem::tPad(1 + gen.next() % 13);
      case 4: return mem::tInt8();
      case 5: return mem::tInt32();
      case 6: return gen.next() % 2 == 0 ? mem::tInt16() : mem::tInt64();
      case 7:
      case 8: {
        std::vector<mem::TypeRef> fields;
        const std::size_t n = 1 + gen.next() % 5;
        for (std::size_t i = 0; i < n; ++i)
            fields.push_back(randomType(gen, depth - 1));
        return mem::tStruct(std::move(fields));
      }
      default:
        return mem::tArray(randomType(gen, depth - 1), gen.next() % 9);
    }
}

/**
 * An image with one mapped page of random bytes (FP fields read back as
 * every kind of double and float, NaNs and subnormals included), one of
 * well-formed doubles, and an unmapped page between them.
 */
mem::SparseMemory
randomImage(SplitMix64 &gen, Addr base)
{
    mem::SparseMemory image;
    for (std::size_t i = 0; i < mem::pageSize; i += 8)
        image.writeValue(base + i, 8, gen.next());
    const Addr nice = base + 2 * mem::pageSize;
    for (std::size_t i = 0; i < mem::pageSize; i += 8) {
        const double value =
            (static_cast<double>(gen.next() % 2000000) - 1e6) / 1024.0;
        image.writeValue(nice + i, 8, std::bit_cast<std::uint64_t>(value));
    }
    return image;
}

TEST(TypedRegion, OneReadTraversalMatchesPerScalarFold)
{
    const hashing::Crc64LocationHasher crc;
    const hashing::Mix64LocationHasher mix;
    SplitMix64 gen(0x7e9);
    const Addr base = mem::heapBase + 5 * mem::pageSize;
    int fp_types = 0;
    for (int round = 0; round < 300; ++round) {
        const mem::SparseMemory image = randomImage(gen, base);
        const mem::TypeRef type = randomType(gen, 3);
        fp_types += type->hasFp() ? 1 : 0;
        // Starts that straddle the first page end, the unmapped page and
        // the second page, at odd offsets.
        const Addr starts[] = {
            base + gen.next() % 64,
            base + mem::pageSize - 1 - gen.next() % 48,
            base + 2 * mem::pageSize - 3 - gen.next() % 16,
            base + 2 * mem::pageSize + 8 * (gen.next() % 32),
        };
        const hashing::LocationHasher &hasher =
            round % 2 == 0 ? static_cast<const hashing::LocationHasher &>(
                                 crc)
                           : mix;
        for (const FpRoundMode &mode :
             {FpRoundMode::none(), FpRoundMode::paperDefault(),
              FpRoundMode::mask(20), FpRoundMode::floorDigits(1)}) {
            const hashing::StateHasher pipeline(hasher, mode);
            for (const Addr addr : starts) {
                // len is ignored for a typed region: it always hashes
                // exactly type->size() bytes.
                const std::size_t len = type->size() + gen.next() % 3;
                EXPECT_EQ(hashTypedRegion(pipeline, image, addr, type, len),
                          referenceTypedHash(pipeline, image, addr, type,
                                             type->size()))
                    << type->describe() << " at " << addr;
                EXPECT_EQ(hashTypedRegion(pipeline, image, addr, nullptr,
                                          len),
                          referenceTypedHash(pipeline, image, addr, nullptr,
                                             len))
                    << "raw " << len << " bytes at " << addr;
            }
        }
    }
    EXPECT_GT(fp_types, 100) << "generator must mostly produce FP types";
}

TEST(TypedRegion, FpFreeSubtreesAreSkippedButStillHashed)
{
    const hashing::Crc64LocationHasher crc;
    const hashing::StateHasher pipeline(crc, FpRoundMode::paperDefault());
    SplitMix64 gen(0xbeef);
    const Addr base = mem::staticBase + 0x40;
    const mem::SparseMemory image = randomImage(gen, base);
    // A large FP-free array beside one FP field: the FP walk skips the
    // array, while the span still covers its bytes.
    const mem::TypeRef type = mem::tStruct(
        {mem::tArray(mem::tStruct({mem::tInt32(), mem::tPointer()}), 100),
         mem::tDouble(), mem::tPad(3)});
    ASSERT_TRUE(type->hasFp());
    EXPECT_EQ(hashTypedRegion(pipeline, image, base, type, type->size()),
              referenceTypedHash(pipeline, image, base, type, type->size()));
    const mem::TypeRef ints = mem::tArray(mem::tInt64(), 64);
    ASSERT_FALSE(ints->hasFp());
    EXPECT_EQ(hashTypedRegion(pipeline, image, base, ints, ints->size()),
              hashRawRegion(pipeline, image, base, ints->size()));
}

TEST(TypedRegion, EmptyRegionsHashToIdentity)
{
    const hashing::Crc64LocationHasher crc;
    const hashing::StateHasher pipeline(crc, FpRoundMode::paperDefault());
    const mem::SparseMemory image;
    EXPECT_EQ(hashTypedRegion(pipeline, image, mem::heapBase, nullptr, 0),
              ModHash{});
    EXPECT_EQ(hashTypedRegion(pipeline, image, mem::heapBase,
                              mem::tArray(mem::tDouble(), 0), 16),
              ModHash{});
}

} // namespace
} // namespace icheck::check
