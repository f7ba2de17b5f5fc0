#ifndef ICHECK_RACE_RACE_LOG_HPP
#define ICHECK_RACE_RACE_LOG_HPP

/**
 * @file
 * Attributed race export — the dynamic half of the lint cross-check.
 *
 * The RaceDetector reports races as (granule, tid pair, kind); this
 * module attaches *source attribution*: the C++ file:line of each racing
 * access, captured via the machine's access-site tracking (ThreadCtx
 * records the std::source_location of every typed load/store when the
 * tracking is armed). The attributed pairs are serialized as JSONL — one
 * race per line — which `icheck-lint --race-log` consumes to cross-check
 * its static lockset findings: a static finding on a dynamically racing
 * line is promoted to error severity, and a dynamic race on a line the
 * static pass believed guarded exposes a lockset blind spot.
 */

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/driver.hpp"
#include "race/race_detector.hpp"
#include "sim/listener.hpp"
#include "sim/machine.hpp"
#include "support/types.hpp"

namespace icheck::race
{

/** One attributed access endpoint of a race. */
struct AccessSite
{
    std::string file; ///< Source file of the ctx.load/store call ("" if unknown).
    int line = 0;     ///< 1-based source line (0 if unknown).
    ThreadId tid = 0;
};

/** One race with both endpoints attributed. */
struct AttributedRace
{
    RaceRecord record;
    std::string symbol; ///< "global:name+0xOFF" / "site:..." / "addr:...".
    AccessSite first;   ///< The earlier access of the pair.
    AccessSite second;  ///< The later access.
};

/**
 * Listener that remembers, per (thread, granule), the source site of the
 * thread's most recent read and write. Attach alongside a RaceDetector
 * and arm the machine's access-site tracking; after the run,
 * attributeRaces() joins the detector's races against these tables.
 */
class AccessAttributor : public sim::AccessListener
{
  public:
    explicit AccessAttributor(const sim::Machine &machine)
        : machine(machine)
    {}

    sim::ListenerInterest
    interest() const override
    {
        return sim::addressInterest;
    }

    void onStore(const sim::StoreEvent &event) override;
    void onLoad(const sim::LoadEvent &event) override;

    /** Site of @p tid's last write to @p granule (empty if none seen). */
    AccessSite lastWrite(ThreadId tid, Addr granule) const;

    /** Site of @p tid's last read of @p granule (empty if none seen). */
    AccessSite lastRead(ThreadId tid, Addr granule) const;

  private:
    void note(std::map<std::pair<ThreadId, Addr>, AccessSite> &table,
              ThreadId tid, Addr addr, unsigned width);

    const sim::Machine &machine;
    std::map<std::pair<ThreadId, Addr>, AccessSite> writes;
    std::map<std::pair<ThreadId, Addr>, AccessSite> reads;
};

/**
 * Join @p detector's races against @p attributor's site tables and the
 * machine's symbol tables. Ordered by (granule, tids, kind) — the
 * detector's own deterministic order.
 */
std::vector<AttributedRace> attributeRaces(
    const RaceDetector &detector, const AccessAttributor &attributor,
    const sim::Machine &machine);

/**
 * Serialize attributed races as JSONL, one object per line:
 *
 *   {"app":"waterSP","kind":"write-write","symbol":"global:kinetic+0x0",
 *    "first":{"tid":0,"file":"src/apps/apps_fp.cpp","line":278},
 *    "second":{"tid":3,"file":"src/apps/apps_fp.cpp","line":275}}
 */
void writeRaceLogJsonl(std::ostream &out, const std::string &app,
                       const std::vector<AttributedRace> &races);

/**
 * Convenience driver for `icheck --race-log`: run @p runs schedules of
 * @p factory's program (seeds base, base+1, ...) with a RaceDetector and
 * an AccessAttributor attached, union the attributed races across runs
 * (deduplicated on the full record + both sites), and append them to
 * @p out. Returns the number of distinct attributed races written.
 */
int exportRaceLog(const check::ProgramFactory &factory,
                  const sim::MachineConfig &config, int runs,
                  std::uint64_t base_seed, const std::string &app,
                  std::ostream &out);

} // namespace icheck::race

#endif // ICHECK_RACE_RACE_LOG_HPP
