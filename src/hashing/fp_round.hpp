#ifndef ICHECK_HASHING_FP_ROUND_HPP
#define ICHECK_HASHING_FP_ROUND_HPP

/**
 * @file
 * The FP round-off unit of Section 3.1 / Section 5.
 *
 * Parallel code that reassociates floating-point additions produces tiny
 * run-to-run differences. InstantCheck optionally rounds FP values before
 * hashing so such runs still compare equal. Two rounding alternatives are
 * offered, matching the paper:
 *
 *  - MantissaMask: zero out the least-significant M mantissa bits
 *    (discards small *relative* differences; a simple AND in hardware);
 *  - DecimalFloor: floor to N decimal digits (discards small *absolute*
 *    differences; default N = 3, i.e. round to the closest 0.001, as used
 *    in systematic testing).
 */

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/logging.hpp"

namespace icheck::hashing
{

/** Which rounding alternative the round-off unit applies. */
enum class FpRoundKind
{
    None,         ///< Bit-by-bit comparison; no rounding.
    MantissaMask, ///< Zero the least-significant M mantissa bits.
    DecimalFloor, ///< Floor to N decimal digits.
};

/**
 * Configuration of the FP round-off unit (the CNTR inputs of Fig 3a).
 */
struct FpRoundMode
{
    FpRoundKind kind = FpRoundKind::None;

    /** M: mantissa bits to zero (MantissaMask). */
    int mantissaBits = 20;

    /** N: decimal digits kept (DecimalFloor). */
    int decimalDigits = 3;

    /** The paper's default: floor to the closest 0.001. */
    static FpRoundMode
    paperDefault()
    {
        return {FpRoundKind::DecimalFloor, 20, 3};
    }

    /** Bit-by-bit mode. */
    static FpRoundMode
    none()
    {
        return {};
    }

    /** Mask @p m low mantissa bits. */
    static FpRoundMode
    mask(int m)
    {
        return {FpRoundKind::MantissaMask, m, 3};
    }

    /** Floor to @p n decimal digits. */
    static FpRoundMode
    floorDigits(int n)
    {
        return {FpRoundKind::DecimalFloor, 20, n};
    }

    bool operator==(const FpRoundMode &) const = default;
};

/**
 * The round-off unit configured once: a rounding mode plus the constant it
 * derives per mode, the DecimalFloor scale 10^N. Hot paths (every FP store
 * the MHM drains, every FP scalar a traversal visits) hold one of these
 * instead of recomputing the scale for every value they round, and the
 * rounding itself is inline. The free functions below build a temporary
 * one per call and round bit-identically.
 */
class FpRounder
{
  public:
    explicit FpRounder(const FpRoundMode &mode)
        : roundMode(mode), decimalScale(std::pow(10.0, mode.decimalDigits))
    {
        ICHECK_ASSERT(mode.kind != FpRoundKind::DecimalFloor ||
                          std::isnormal(decimalScale),
                      "decimal digits out of range: ", mode.decimalDigits);
    }

    /** The rounding mode in effect. */
    const FpRoundMode &mode() const { return roundMode; }

    /** Round one double. */
    double
    roundDouble(double value) const
    {
        switch (roundMode.kind) {
          case FpRoundKind::None:
            return value;
          case FpRoundKind::MantissaMask:
            return maskDouble(value);
          case FpRoundKind::DecimalFloor:
            return floorDecimal(value);
        }
        ICHECK_PANIC("unknown FpRoundKind");
    }

    /** Round one float. */
    float
    roundFloat(float value) const
    {
        switch (roundMode.kind) {
          case FpRoundKind::None:
            return value;
          case FpRoundKind::MantissaMask:
            return maskFloat(value);
          case FpRoundKind::DecimalFloor:
            return static_cast<float>(
                floorDecimal(static_cast<double>(value)));
        }
        ICHECK_PANIC("unknown FpRoundKind");
    }

    /** Round raw IEEE-754 bits of width 4 (float) or 8 (double). */
    std::uint64_t
    roundBits(std::uint64_t bits, unsigned width) const
    {
        if (roundMode.kind == FpRoundKind::None)
            return bits;
        if (width == 8)
            return std::bit_cast<std::uint64_t>(
                roundDouble(std::bit_cast<double>(bits)));
        if (width == 4)
            return std::bit_cast<std::uint32_t>(roundFloat(
                std::bit_cast<float>(static_cast<std::uint32_t>(bits))));
        ICHECK_PANIC("FP width must be 4 or 8, got ", width);
    }

  private:
    /** Floor @p value to the mode's decimal digits, stable around zero. */
    double
    floorDecimal(double value) const
    {
        if (!std::isfinite(value))
            return value;
        const double scaled = value * decimalScale;
        // Guard against overflow of the scaled value: leave huge
        // magnitudes untouched, their absolute differences dwarf the
        // rounding grain anyway.
        if (std::fabs(scaled) >= 0x1.0p62)
            return value;
        // std::floor without the library call or a data-dependent
        // branch (the sign of FP data is unpredictable): below 2^62 the
        // truncating conversion is exact, and stepping negative
        // non-integers down by one completes the floor. Every zero this
        // yields is +0.0, which also normalizes -0.0 so that runs
        // differing only in signed zero compare equal.
        std::int64_t whole = static_cast<std::int64_t>(scaled);
        whole -= static_cast<double>(whole) > scaled;
        return static_cast<double>(whole) / decimalScale;
    }

    /** Zero the mode's M low mantissa bits of a double. */
    double
    maskDouble(double value) const
    {
        const int m = roundMode.mantissaBits;
        ICHECK_ASSERT(m >= 0 && m <= 52, "double mantissa mask out of range");
        const std::uint64_t keep =
            m == 0 ? ~std::uint64_t{0} : ~((std::uint64_t{1} << m) - 1);
        const double out =
            std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) & keep);
        return out == 0.0 ? 0.0 : out;
    }

    /** The float counterpart of maskDouble. */
    float
    maskFloat(float value) const
    {
        // Scale the mask to the float mantissa: masking M bits of a double
        // corresponds to M - 29 bits of a float's 23-bit mantissa.
        int bits_to_mask = roundMode.mantissaBits - 29;
        if (bits_to_mask < 0)
            bits_to_mask = roundMode.mantissaBits > 0 ? 1 : 0;
        if (bits_to_mask > 23)
            bits_to_mask = 23;
        const std::uint32_t keep =
            bits_to_mask == 0 ? ~std::uint32_t{0}
                              : ~((std::uint32_t{1} << bits_to_mask) - 1);
        const float out =
            std::bit_cast<float>(std::bit_cast<std::uint32_t>(value) & keep);
        return out == 0.0f ? 0.0f : out;
    }

    FpRoundMode roundMode;
    double decimalScale;
};

/** Round one double per @p mode. */
double roundDouble(double value, const FpRoundMode &mode);

/** Round one float per @p mode. */
float roundFloat(float value, const FpRoundMode &mode);

/**
 * Round the raw bit pattern of a float/double value per @p mode.
 *
 * @param bits   Raw IEEE-754 bits (low @p width bytes significant).
 * @param width  4 for float, 8 for double.
 * @param mode   Rounding mode.
 * @return Raw bits of the rounded value.
 */
std::uint64_t roundFpBits(std::uint64_t bits, unsigned width,
                          const FpRoundMode &mode);

} // namespace icheck::hashing

#endif // ICHECK_HASHING_FP_ROUND_HPP
