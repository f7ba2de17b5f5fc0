/**
 * @file
 * Golden MHM state: the exact ClusteredMhm partial sums, per-cluster op
 * counts and statistics after a fixed store stream.
 *
 * The equivalence tests compare microarchitectures with each other; this
 * one compares the module with a frozen record, so a hashing shortcut that
 * reorders, merges or drops half-operations fails here even when every
 * design still agrees on TH.
 */

#include <gtest/gtest.h>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "hashing/location_hash.hpp"
#include "mem/memory.hpp"
#include "mhm/mhm.hpp"
#include "support/rng.hpp"

namespace icheck::mhm
{
namespace
{

using hashing::FpRoundMode;
using hashing::ValueClass;

/** An FP value from a pool of ordinary, noisy and special values. */
double
pickDouble(Xoshiro256 &rng)
{
    static const double specials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        1e300,
        -4.6e18,
        0.1 + 0.2,
        0.3,
    };
    switch (rng.below(4)) {
      case 0:
        return specials[rng.below(std::size(specials))];
      case 1:
        // Values a few ulps apart: equal after decimal rounding.
        return 12.5 + static_cast<double>(rng.below(8)) * 1e-12;
      default:
        return (static_cast<double>(rng.below(2000000)) - 1e6) / 1024.0;
    }
}

/** Drive @p mhm with the fixed stream; the same calls for every module. */
void
driveStream(Mhm &mhm)
{
    Xoshiro256 rng(0x60'1d'e2);
    mhm.startHashing();
    std::uint64_t prev = 0;
    for (int i = 0; i < 4000; ++i) {
        if (i % 700 == 350)
            mhm.stopFpRounding();
        if (i % 700 == 0)
            mhm.startFpRounding();
        // Addresses cluster around a 0x100 boundary and a page boundary.
        const Addr base = rng.below(2) == 0
                              ? mem::heapBase + 0x100
                              : mem::staticBase + mem::pageSize;
        const Addr addr = base - 32 + rng.below(64);
        const unsigned pick = static_cast<unsigned>(rng.below(10));
        ValueClass cls = ValueClass::Integer;
        unsigned width = 1 + pick % 8;
        std::uint64_t old_bits;
        std::uint64_t new_bits;
        if (pick == 8) {
            cls = ValueClass::Double;
            width = 8;
            old_bits = std::bit_cast<std::uint64_t>(pickDouble(rng));
            new_bits = std::bit_cast<std::uint64_t>(pickDouble(rng));
        } else if (pick == 9) {
            cls = ValueClass::Float;
            width = 4;
            old_bits = std::bit_cast<std::uint32_t>(
                static_cast<float>(pickDouble(rng)));
            new_bits = std::bit_cast<std::uint32_t>(
                static_cast<float>(pickDouble(rng)));
        } else {
            const std::uint64_t mask =
                width == 8 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << (8 * width)) - 1;
            old_bits = prev & mask;
            new_bits = rng.next() & mask;
        }
        if (rng.below(8) == 0)
            new_bits = old_bits; // Silent store.
        mhm.observeStore(addr, old_bits, new_bits, width, cls);
        if (i % 97 == 0)
            mhm.minusHash(addr, new_bits, width, cls);
        if (i % 89 == 0)
            mhm.plusHash(addr, old_bits, width, cls);
        prev = new_bits;
    }
}

/** The pinned fields of one module's saved state. */
struct Golden
{
    std::vector<std::uint64_t> partials;
    std::vector<std::uint64_t> opCounts;
    std::size_t nextCluster;
};

void
expectState(const MhmState &state, const Golden &golden)
{
    ASSERT_EQ(state.partials.size(), golden.partials.size());
    for (std::size_t i = 0; i < golden.partials.size(); ++i)
        EXPECT_EQ(state.partials[i].raw(), golden.partials[i])
            << "partial " << i;
    EXPECT_EQ(state.opCounts, golden.opCounts);
    EXPECT_EQ(state.nextCluster, golden.nextCluster);
    EXPECT_EQ(state.nStores, 4000u);
    EXPECT_EQ(state.nBytes, 38589u);
}

TEST(MhmGolden, ClusteredRoundRobinStateIsPinned)
{
    hashing::Crc64LocationHasher hasher;
    ClusteredMhm mhm(hasher, FpRoundMode::paperDefault(), 3,
                     DispatchPolicy::RoundRobin, 1);
    driveStream(mhm);
    expectState(mhm.saveState(),
                {{0x7526cd9c170949c5ULL, 0x1dfdb1cf329e9520ULL,
                  0x2c1b4763babb344cULL},
                 {2696, 2696, 2695},
                 2});
}

TEST(MhmGolden, ClusteredRandomStateIsPinned)
{
    hashing::Crc64LocationHasher hasher;
    ClusteredMhm mhm(hasher, FpRoundMode::mask(30), 4,
                     DispatchPolicy::Random, 0x5eed);
    driveStream(mhm);
    expectState(mhm.saveState(),
                {{0x55de165b04138557ULL, 0xf96e2c53801f86d6ULL,
                  0xf0cec3905f55a242ULL, 0xd075c1921b9318b2ULL},
                 {2055, 1970, 2027, 2035},
                 0});
}

TEST(MhmGolden, BasicMix64StateIsPinned)
{
    hashing::Mix64LocationHasher hasher;
    BasicMhm mhm(hasher, FpRoundMode::floorDigits(2));
    driveStream(mhm);
    EXPECT_EQ(mhm.th().raw(), 0x2579d68f498b16a4ULL);
    EXPECT_EQ(mhm.storesHashed(), 4000u);
}

} // namespace
} // namespace icheck::mhm
