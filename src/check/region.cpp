#include "check/region.hpp"

#include <bit>
#include <cstring>
#include <vector>

namespace icheck::check
{

namespace
{

/**
 * @p len bytes at @p addr read out of @p image into a per-thread buffer
 * that is reused across regions (campaign workers traverse concurrently).
 */
std::uint8_t *
readRegion(const mem::SparseMemory &image, Addr addr, std::size_t len)
{
    thread_local std::vector<std::uint8_t> buffer;
    if (buffer.size() < len)
        buffer.resize(len);
    image.readBytes(addr, buffer.data(), len);
    return buffer.data();
}

/** Round the little-endian FP scalar of @p Width bytes at @p at in place. */
template <unsigned Width>
void
roundInPlace(const hashing::FpRounder &rounder, std::uint8_t *at)
{
    std::uint64_t bits = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&bits, at, Width);
        bits = rounder.roundBits(bits, Width);
        std::memcpy(at, &bits, Width);
    } else {
        for (unsigned i = 0; i < Width; ++i)
            bits |= static_cast<std::uint64_t>(at[i]) << (8 * i);
        bits = rounder.roundBits(bits, Width);
        for (unsigned i = 0; i < Width; ++i)
            at[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
}

} // namespace

hashing::ModHash
hashRawRegion(const hashing::StateHasher &hasher,
              const mem::SparseMemory &image, Addr addr, std::size_t len)
{
    return hasher.spanHash(addr, readRegion(image, addr, len), len);
}

hashing::ModHash
hashTypedRegion(const hashing::StateHasher &hasher,
                const mem::SparseMemory &image, Addr addr,
                const mem::TypeRef &type, std::size_t len)
{
    if (!type)
        return hashRawRegion(hasher, image, addr, len);

    // Integer, pointer and pad scalars hash as their raw little-endian
    // bytes, so the whole region is one span once its FP scalars have
    // been rounded in place.
    const std::size_t size = type->size();
    std::uint8_t *bytes = readRegion(image, addr, size);
    const hashing::FpRounder &rounder = hasher.roundOff();
    if (type->hasFp() && rounder.mode().kind != hashing::FpRoundKind::None) {
        type->forEachFpScalar([&](std::size_t offset, mem::ScalarKind kind,
                                  unsigned) {
            if (kind == mem::ScalarKind::Double)
                roundInPlace<8>(rounder, bytes + offset);
            else
                roundInPlace<4>(rounder, bytes + offset);
        });
    }
    return hasher.spanHash(addr, bytes, size);
}

} // namespace icheck::check
