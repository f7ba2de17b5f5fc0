/**
 * @file
 * Microbenchmarks of the hashing core: per-byte location hashing (CRC-64
 * vs Mix64), incremental store deltas, FP round-off modes, span hashing
 * and typed-region traversal — the host-side costs behind the Section 7.3
 * cost model.
 */

#include <benchmark/benchmark.h>
#include <bit>

#include "check/region.hpp"
#include "hashing/fp_round.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/state_hash.hpp"
#include "support/rng.hpp"

using namespace icheck;
using namespace icheck::hashing;

namespace
{

void
BM_LocationHashByte(benchmark::State &state, HasherKind kind)
{
    const auto hasher = makeLocationHasher(kind);
    Xoshiro256 rng(1);
    Addr addr = 0x1000;
    std::uint8_t value = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hasher->hashByte(addr, value));
        addr += 13;
        value = static_cast<std::uint8_t>(value * 31 + 7);
        if (value == 0)
            value = 1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}

/**
 * One store's delta through storeDelta, which hashes both halves in one
 * hashSpanPair pass (old and new never match here, so the equal-value
 * shortcut never fires).
 */
void
BM_StoreDelta(benchmark::State &state, HasherKind kind)
{
    const auto hasher = makeLocationHasher(kind);
    const StateHasher pipeline(*hasher, FpRoundMode::none());
    Xoshiro256 rng(2);
    std::uint64_t old_bits = 0;
    for (auto _ : state) {
        const std::uint64_t new_bits = rng.next();
        benchmark::DoNotOptimize(pipeline.storeDelta(
            0x2000, old_bits, new_bits, 8, ValueClass::Integer));
        old_bits = new_bits;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * 16));
}

/** The same delta as two independent valueHash passes, for comparison. */
void
BM_StoreDeltaTwoPasses(benchmark::State &state, HasherKind kind)
{
    const auto hasher = makeLocationHasher(kind);
    const StateHasher pipeline(*hasher, FpRoundMode::none());
    Xoshiro256 rng(2);
    std::uint64_t old_bits = 0;
    for (auto _ : state) {
        const std::uint64_t new_bits = rng.next();
        benchmark::DoNotOptimize(
            pipeline.valueHash(0x2000, new_bits, 8, ValueClass::Integer) -
            pipeline.valueHash(0x2000, old_bits, 8, ValueClass::Integer));
        old_bits = new_bits;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * 16));
}

void
BM_FpStoreDelta(benchmark::State &state, FpRoundKind kind)
{
    const Crc64LocationHasher hasher;
    FpRoundMode mode;
    mode.kind = kind;
    const StateHasher pipeline(hasher, mode);
    Xoshiro256 rng(3);
    std::uint64_t old_bits = 0;
    for (auto _ : state) {
        const std::uint64_t new_bits =
            std::bit_cast<std::uint64_t>(rng.uniform() * 100.0);
        benchmark::DoNotOptimize(pipeline.storeDelta(
            0x3000, old_bits, new_bits, 8, ValueClass::Double));
        old_bits = new_bits;
    }
}

void
BM_SpanHash(benchmark::State &state)
{
    const Crc64LocationHasher hasher;
    const StateHasher pipeline(hasher, FpRoundMode::none());
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> data(len);
    Xoshiro256 rng(4);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pipeline.spanHash(0x4000, data.data(), data.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(len)));
}

/**
 * SW-Tr's traversal of one FP-heavy block: an array of {f64, f64, f32,
 * i32, ptr} records read out of simulated memory, FP fields rounded to
 * the paper's 0.001 grain, hashed as one span.
 */
void
BM_TypedRegionHash(benchmark::State &state)
{
    const Crc64LocationHasher hasher;
    const StateHasher pipeline(hasher, FpRoundMode::paperDefault());
    const mem::TypeRef record =
        mem::tStruct({mem::tDouble(), mem::tDouble(), mem::tFloat(),
                      mem::tInt32(), mem::tPointer()});
    const mem::TypeRef type = mem::tArray(
        record, static_cast<std::size_t>(state.range(0)));
    mem::SparseMemory image;
    Xoshiro256 rng(5);
    const Addr base = mem::heapBase + 0x40;
    for (std::size_t off = 0; off < type->size(); off += 8) {
        image.writeValue(base + off, 8,
                         std::bit_cast<std::uint64_t>(rng.uniform() * 100.0));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(check::hashTypedRegion(
            pipeline, image, base, type, type->size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(type->size())));
}

} // namespace

BENCHMARK_CAPTURE(BM_LocationHashByte, crc64, HasherKind::Crc64);
BENCHMARK_CAPTURE(BM_LocationHashByte, mix64, HasherKind::Mix64);
BENCHMARK_CAPTURE(BM_StoreDelta, crc64, HasherKind::Crc64);
BENCHMARK_CAPTURE(BM_StoreDelta, mix64, HasherKind::Mix64);
BENCHMARK_CAPTURE(BM_StoreDeltaTwoPasses, crc64, HasherKind::Crc64);
BENCHMARK_CAPTURE(BM_FpStoreDelta, none, FpRoundKind::None);
BENCHMARK_CAPTURE(BM_FpStoreDelta, mantissa_mask,
                  FpRoundKind::MantissaMask);
BENCHMARK_CAPTURE(BM_FpStoreDelta, decimal_floor,
                  FpRoundKind::DecimalFloor);
BENCHMARK(BM_SpanHash)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_TypedRegionHash)->Arg(64)->Arg(4096);
