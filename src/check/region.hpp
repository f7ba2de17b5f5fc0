#ifndef ICHECK_CHECK_REGION_HPP
#define ICHECK_CHECK_REGION_HPP

/**
 * @file
 * Type-aware hashing of memory regions out of a (possibly snapshotted)
 * memory image. Shared by the traversal checker, the ignore-deletion
 * machinery, and the initial-state hashing.
 */

#include "hashing/state_hash.hpp"
#include "mem/memory.hpp"
#include "mem/type_desc.hpp"
#include "support/types.hpp"

namespace icheck::check
{

/**
 * Hash @p len raw bytes at @p addr from @p image (no FP rounding).
 */
hashing::ModHash hashRawRegion(const hashing::StateHasher &hasher,
                               const mem::SparseMemory &image, Addr addr,
                               std::size_t len);

/**
 * Hash a region of shape @p type at @p addr from @p image: float/double
 * scalars pass through the hasher's round-off unit, everything else is
 * hashed bit-by-bit. A typed region covers exactly type->size() bytes
 * (@p len is ignored); a null @p type falls back to raw hashing of @p len
 * bytes.
 *
 * The result equals the per-scalar fold (one valueHash per scalar, pads
 * hashed raw), computed in one pass: one read of the region, its FP
 * scalars rounded in place, one span hash.
 */
hashing::ModHash hashTypedRegion(const hashing::StateHasher &hasher,
                                 const mem::SparseMemory &image, Addr addr,
                                 const mem::TypeRef &type, std::size_t len);

} // namespace icheck::check

#endif // ICHECK_CHECK_REGION_HPP
