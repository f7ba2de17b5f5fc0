#ifndef ICHECK_EXPLORE_HB_SIGNATURE_HPP
#define ICHECK_EXPLORE_HB_SIGNATURE_HPP

/**
 * @file
 * Happens-before trace signatures for search-space pruning.
 *
 * HbTracker listens to a Machine's events and maintains an
 * order-independent fingerprint of the run's happens-before trace — the
 * approximation systematic testers like CHESS prune with, and the foil for
 * the paper's state-hash pruning (Figure 1: equal states can arise from
 * inequivalent traces).
 *
 * The tracker is a plain value: copyable and assignable, so the
 * prefix-sharing explorer can checkpoint its state alongside a machine
 * snapshot and rewind both together.
 */

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "race/vector_clock.hpp"
#include "sim/listener.hpp"
#include "support/types.hpp"

namespace icheck::explore
{

/** Mix one word into a running signature (splitmix-style avalanche). */
inline std::uint64_t
mixSignature(std::uint64_t acc, std::uint64_t word)
{
    std::uint64_t z = acc ^ (word + 0x9e3779b97f4a7c15ULL +
                             (acc << 6) + (acc >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 31);
}

/**
 * Order-independent happens-before signature: modular sum of per-event
 * hashes, each covering (kind, object, tid, vector timestamp). Events
 * include synchronization operations *and* memory accesses with their
 * conflict order (every access to a granule joins the granule's clock),
 * so two interleavings get the same signature exactly when they are
 * trace-equivalent.
 */
class HbTracker : public sim::AccessListener
{
  public:
    sim::ListenerInterest
    interest() const override
    {
        return sim::addressInterest;
    }

    void
    onStore(const sim::StoreEvent &event) override
    {
        if (event.domain != sim::CostDomain::Native)
            return;
        recordAccess(event.tid, event.addr & ~Addr{7}, /*is_write=*/true);
    }

    void
    onLoad(const sim::LoadEvent &event) override
    {
        recordAccess(event.tid, event.addr & ~Addr{7},
                     /*is_write=*/false);
    }

    void
    onSync(const sim::SyncEvent &event) override
    {
        // Maintain the same clock algebra as the race detector.
        race::VectorClock &now = clock(event.tid);
        switch (event.kind) {
          case sim::SyncKind::LockAcquire:
            now.join(mutexClocks[event.object]);
            break;
          case sim::SyncKind::LockRelease:
            mutexClocks[event.object].join(now);
            now.tick(event.tid);
            break;
          case sim::SyncKind::BarrierArrive:
            barrierGather[{event.object, event.epoch}].join(now);
            break;
          case sim::SyncKind::BarrierLeave:
            now.join(barrierGather[{event.object, event.epoch}]);
            now.tick(event.tid);
            break;
          case sim::SyncKind::CondSignal:
            condClocks[event.object].join(now);
            now.tick(event.tid);
            break;
          case sim::SyncKind::CondWait:
            now.join(condClocks[event.object]);
            break;
          case sim::SyncKind::ThreadStart:
          case sim::SyncKind::ThreadFinish:
            break;
        }
        std::uint64_t event_hash = 0x51ULL;
        event_hash = mixSignature(event_hash, static_cast<std::uint64_t>(
                                                  event.kind));
        event_hash = mixSignature(event_hash, event.object);
        event_hash = mixSignature(event_hash, event.tid);
        for (ThreadId t = 0; t < clocks.size(); ++t)
            event_hash = mixSignature(event_hash, now.get(t));
        signature += event_hash; // order-independent accumulation
    }

    std::uint64_t value() const { return signature; }

  private:
    race::VectorClock &
    clock(ThreadId tid)
    {
        if (tid >= clocks.size())
            clocks.resize(tid + 1);
        return clocks[tid];
    }

    void
    recordAccess(ThreadId tid, Addr granule, bool is_write)
    {
        // Conservative conflict order: every access to a granule is
        // ordered after all earlier accesses to it (read-read ordering is
        // stronger than necessary — it only costs pruning power, never
        // soundness).
        race::VectorClock &now = clock(tid);
        race::VectorClock &loc = granuleClocks[granule];
        now.join(loc);
        now.tick(tid);
        loc.join(now);
        std::uint64_t event_hash = is_write ? 0x77ULL : 0x72ULL;
        event_hash = mixSignature(event_hash, granule);
        event_hash = mixSignature(event_hash, tid);
        for (ThreadId t = 0; t < clocks.size(); ++t)
            event_hash = mixSignature(event_hash, now.get(t));
        signature += event_hash;
    }

    std::vector<race::VectorClock> clocks;
    std::map<Addr, race::VectorClock> granuleClocks;
    std::map<std::uint32_t, race::VectorClock> mutexClocks;
    std::map<std::pair<std::uint32_t, std::uint64_t>, race::VectorClock>
        barrierGather;
    std::map<std::uint32_t, race::VectorClock> condClocks;
    std::uint64_t signature = 0;
};

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_HB_SIGNATURE_HPP
