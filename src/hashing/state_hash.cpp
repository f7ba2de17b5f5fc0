#include "hashing/state_hash.hpp"

#include <bit>
#include <cstring>

namespace icheck::hashing
{

namespace
{

/** @p bits as 8 little-endian bytes; callers hash the low width. */
inline void
toLeBytes(std::uint64_t bits, std::uint8_t *out)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &bits, sizeof bits);
    } else {
        for (unsigned i = 0; i < 8; ++i)
            out[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
}

} // namespace

ModHash
StateHasher::valueHash(Addr addr, std::uint64_t rawBits, unsigned width,
                       ValueClass cls) const
{
    std::uint8_t bytes[8];
    toLeBytes(roundedBits(rawBits, width, cls), bytes);
    // One batched call per store instead of one virtual call per byte.
    return locHasher.hashSpan(addr, bytes, width);
}

void
StateHasher::valueHashPair(Addr addr, std::uint64_t oldBits,
                           std::uint64_t newBits, unsigned width,
                           ValueClass cls, ModHash &oldHash,
                           ModHash &newHash) const
{
    const std::uint64_t old_bits = roundedBits(oldBits, width, cls);
    const std::uint64_t new_bits = roundedBits(newBits, width, cls);
    std::uint8_t old_bytes[8];
    toLeBytes(old_bits, old_bytes);
    if (old_bits == new_bits) {
        // Silent stores, and FP stores whose noise the round-off unit
        // removed: both halves are the same group element.
        oldHash = locHasher.hashSpan(addr, old_bytes, width);
        newHash = oldHash;
        return;
    }
    std::uint8_t new_bytes[8];
    toLeBytes(new_bits, new_bytes);
    locHasher.hashSpanPair(addr, old_bytes, new_bytes, width, oldHash,
                           newHash);
}

ModHash
StateHasher::spanHash(Addr addr, const std::uint8_t *bytes,
                      std::size_t len) const
{
    return locHasher.hashSpan(addr, bytes, len);
}

} // namespace icheck::hashing
