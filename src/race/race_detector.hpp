#ifndef ICHECK_RACE_RACE_DETECTOR_HPP
#define ICHECK_RACE_RACE_DETECTOR_HPP

/**
 * @file
 * A happens-before dynamic data-race detector (the detection half of
 * Section 6.1). FastTrack-flavored: per-thread vector clocks, per-sync-
 * object clocks, per-location last-write epochs and read clocks.
 *
 * Granularity is the 8-byte granule: two accesses race if they touch the
 * same granule, at least one writes, and neither happens-before the other
 * under the lock/barrier/condvar-induced order.
 */

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <string>

#include "race/vector_clock.hpp"
#include "sim/listener.hpp"
#include "sim/machine.hpp"
#include "support/types.hpp"

namespace icheck::race
{

/** Kind of racing access pair. */
enum class RaceKind : std::uint8_t
{
    WriteWrite,
    ReadWrite, ///< Earlier read, later write.
    WriteRead, ///< Earlier write, later read.
};

/** One detected race (deduplicated per granule and kind). */
struct RaceRecord
{
    Addr granule = 0;
    ThreadId first = 0;
    ThreadId second = 0;
    RaceKind kind = RaceKind::WriteWrite;

    auto operator<=>(const RaceRecord &) const = default;
};

/** Printable race kind. */
std::string raceKindName(RaceKind kind);

/**
 * Symbolize the races found by a detector against a machine's allocation
 * table and static segment: "WriteWrite on global:counter+0x8 between t1
 * and t3". Using the owner names is what turns raw racy addresses into
 * actionable reports (the same attribution the Section 2.3 localization
 * tool performs).
 */
std::vector<std::string> describeRaces(const std::set<RaceRecord> &races,
                                       const sim::Machine &machine);

/**
 * Symbolize one address against the machine's allocation table and
 * static segment: "site:<alloc site>+0xOFF", "global:<name>+0xOFF", or
 * "addr:0xHEX" when the address belongs to neither.
 */
std::string symbolizeAddress(Addr addr, const sim::Machine &machine);

/**
 * The detector. Attach to a Machine as a listener before run().
 */
class RaceDetector : public sim::AccessListener
{
  public:
    RaceDetector() = default;

    sim::ListenerInterest
    interest() const override
    {
        return sim::addressInterest;
    }

    void onStore(const sim::StoreEvent &event) override;
    void onLoad(const sim::LoadEvent &event) override;
    void onSync(const sim::SyncEvent &event) override;

    /** Distinct races found, ordered by granule. */
    const std::set<RaceRecord> &races() const { return found; }

    /** Granules with at least one race. */
    std::set<Addr> racyGranules() const;

    /** Number of accesses analyzed. */
    std::uint64_t accessesChecked() const { return nAccesses; }

  private:
    struct LocationState
    {
        Epoch lastWrite;
        /** Per-thread read clocks since the last ordered write. */
        std::map<ThreadId, std::uint64_t> reads;
    };

    VectorClock &threadClock(ThreadId tid);
    void checkWrite(ThreadId tid, Addr granule);
    void checkRead(ThreadId tid, Addr granule);

    static Addr granuleOf(Addr addr) { return addr & ~Addr{7}; }

    std::vector<VectorClock> threads;
    std::map<std::uint32_t, VectorClock> mutexClocks;
    std::map<std::pair<std::uint32_t, std::uint64_t>, VectorClock>
        barrierGather;
    std::map<std::uint32_t, VectorClock> condClocks;
    std::map<Addr, LocationState> locations;
    std::set<RaceRecord> found;
    std::uint64_t nAccesses = 0;
};

} // namespace icheck::race

#endif // ICHECK_RACE_RACE_DETECTOR_HPP
