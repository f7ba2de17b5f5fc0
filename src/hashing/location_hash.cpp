#include "hashing/location_hash.hpp"

#include "hashing/crc64.hpp"
#include "support/logging.hpp"

namespace icheck::hashing
{

namespace
{

/**
 * CRC of the seven high address bytes of a 9-byte (address, value) record.
 * crcOfAddr(a) == T7[a & 0xff] ^ addrSuffixCrc(a >> 8); the suffix is
 * constant across a run of addresses that share everything above the low
 * byte, which is what lets hashSpan hoist it out of its inner loop.
 */
inline std::uint64_t
addrSuffixCrc(std::uint64_t hi)
{
    const auto &t = detail::crc64Tables.t;
    return t[6][hi & 0xff] ^ t[5][(hi >> 8) & 0xff] ^
           t[4][(hi >> 16) & 0xff] ^ t[3][(hi >> 24) & 0xff] ^
           t[2][(hi >> 32) & 0xff] ^ t[1][(hi >> 40) & 0xff] ^
           t[0][(hi >> 48) & 0xff];
}

/** SplitMix64-style finalizer over the packed (address, value) word. */
inline std::uint64_t
mix64Pair(Addr addr, std::uint8_t value)
{
    std::uint64_t z = addr ^ (static_cast<std::uint64_t>(value) << 56)
                           ^ 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

ModHash
LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                         std::size_t len) const
{
    // Generic fold; concrete hashers override with batched versions that
    // must stay bit-identical to this definition.
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i)
        sum += hashByte(addr + i, bytes[i]);
    return sum;
}

void
LocationHasher::hashSpanPair(Addr addr, const std::uint8_t *oldBytes,
                             const std::uint8_t *newBytes, std::size_t len,
                             ModHash &oldHash, ModHash &newHash) const
{
    oldHash = hashSpan(addr, oldBytes, len);
    newHash = hashSpan(addr, newBytes, len);
}

ModHash
Crc64LocationHasher::hashByte(Addr addr, std::uint8_t value) const
{
    if (value == 0)
        return ModHash{};
    // CRC-64 of the 9-byte record (8-byte little-endian address, then the
    // value byte): one slicing step for the address, one feed for the
    // value.
    const std::uint64_t addr_crc = Crc64::feedWordLe(0, addr);
    return ModHash(Crc64::feed(addr_crc, value));
}

ModHash
Crc64LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                              std::size_t len) const
{
    const auto &t = detail::crc64Tables.t;
    ModHash sum;
    std::size_t i = 0;
    while (i < len) {
        // All addresses in [base, base + chunk) share the bytes above the
        // low one, so the CRC of those seven record bytes is loop
        // invariant.
        const Addr base = addr + i;
        const std::uint64_t suffix = addrSuffixCrc(base >> 8);
        const std::size_t low = base & 0xff;
        std::size_t chunk = 0x100 - low;
        if (chunk > len - i)
            chunk = len - i;
        for (std::size_t k = 0; k < chunk; ++k) {
            const std::uint8_t value = bytes[i + k];
            if (value == 0)
                continue;
            const std::uint64_t addr_crc = t[7][low + k] ^ suffix;
            sum += ModHash((addr_crc << 8) ^
                           t[0][((addr_crc >> 56) ^ value) & 0xff]);
        }
        i += chunk;
    }
    return sum;
}

void
Crc64LocationHasher::hashSpanPair(Addr addr, const std::uint8_t *oldBytes,
                                  const std::uint8_t *newBytes,
                                  std::size_t len, ModHash &oldHash,
                                  ModHash &newHash) const
{
    // hashSpan's loop over both spans at once: the address suffix and the
    // per-byte address CRC are shared by the two halves of a store.
    const auto &t = detail::crc64Tables.t;
    ModHash old_sum;
    ModHash new_sum;
    std::size_t i = 0;
    while (i < len) {
        const Addr base = addr + i;
        const std::uint64_t suffix = addrSuffixCrc(base >> 8);
        const std::size_t low = base & 0xff;
        std::size_t chunk = 0x100 - low;
        if (chunk > len - i)
            chunk = len - i;
        for (std::size_t k = 0; k < chunk; ++k) {
            const std::uint8_t old_value = oldBytes[i + k];
            const std::uint8_t new_value = newBytes[i + k];
            if ((old_value | new_value) == 0)
                continue;
            const std::uint64_t addr_crc = t[7][low + k] ^ suffix;
            const std::uint64_t shifted = addr_crc << 8;
            const std::uint64_t top = addr_crc >> 56;
            if (old_value != 0)
                old_sum += ModHash(shifted ^ t[0][(top ^ old_value) & 0xff]);
            if (new_value != 0)
                new_sum += ModHash(shifted ^ t[0][(top ^ new_value) & 0xff]);
        }
        i += chunk;
    }
    oldHash = old_sum;
    newHash = new_sum;
}

ModHash
Mix64LocationHasher::hashByte(Addr addr, std::uint8_t value) const
{
    if (value == 0)
        return ModHash{};
    // The value byte is rotated into the high bits so that adjacent
    // addresses with adjacent values do not collide structurally.
    return ModHash(mix64Pair(addr, value));
}

ModHash
Mix64LocationHasher::hashSpan(Addr addr, const std::uint8_t *bytes,
                              std::size_t len) const
{
    // Same per-byte math, minus the per-byte virtual dispatch.
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i) {
        if (bytes[i] != 0)
            sum += ModHash(mix64Pair(addr + i, bytes[i]));
    }
    return sum;
}

std::unique_ptr<LocationHasher>
makeLocationHasher(HasherKind kind)
{
    switch (kind) {
      case HasherKind::Crc64:
        return std::make_unique<Crc64LocationHasher>();
      case HasherKind::Mix64:
        return std::make_unique<Mix64LocationHasher>();
    }
    ICHECK_PANIC("unknown HasherKind");
}

} // namespace icheck::hashing
