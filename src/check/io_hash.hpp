#ifndef ICHECK_CHECK_IO_HASH_HPP
#define ICHECK_CHECK_IO_HASH_HPP

/**
 * @file
 * Output-stream determinism hashing (Section 4.3).
 *
 * InstantCheck hashes the bytes passed to write() before the call returns,
 * which fully captures the behaviour of properly-synchronized outputs.
 * OutputHasher subscribes to the machine's output events and keeps a
 * running CRC of the stream in write order.
 */

#include <cstdint>

#include "sim/listener.hpp"
#include "support/types.hpp"

namespace icheck::check
{

/**
 * Running hash over the program's output stream.
 */
class OutputHasher : public sim::AccessListener
{
  public:
    sim::ListenerInterest
    interest() const override
    {
        return sim::noAccessInterest;
    }

    void onOutput(ThreadId tid, const std::uint8_t *data,
                  std::size_t len) override;

    /** Hash of everything written so far. */
    HashWord value() const { return crc; }

    /** Total bytes written. */
    std::uint64_t bytes() const { return total; }

  private:
    HashWord crc = 0;
    std::uint64_t total = 0;
};

} // namespace icheck::check

#endif // ICHECK_CHECK_IO_HASH_HPP
