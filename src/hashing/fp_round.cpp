#include "hashing/fp_round.hpp"

namespace icheck::hashing
{

double
roundDouble(double value, const FpRoundMode &mode)
{
    return FpRounder(mode).roundDouble(value);
}

float
roundFloat(float value, const FpRoundMode &mode)
{
    return FpRounder(mode).roundFloat(value);
}

std::uint64_t
roundFpBits(std::uint64_t bits, unsigned width, const FpRoundMode &mode)
{
    return FpRounder(mode).roundBits(bits, width);
}

} // namespace icheck::hashing
