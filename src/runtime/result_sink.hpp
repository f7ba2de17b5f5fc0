#ifndef ICHECK_RUNTIME_RESULT_SINK_HPP
#define ICHECK_RUNTIME_RESULT_SINK_HPP

/**
 * @file
 * Streaming results sink for campaign execution.
 *
 * Runs complete out of order under the parallel executor, so the sink
 * receives each run record the moment it finishes (tagged with its seed
 * index) and appends one JSONL line per run plus a final campaign line
 * with the aggregate counters: runs per second, worker utilization,
 * steal count, and peak queue depth. The JSONL stream is what
 * `icheck check --jsonl FILE` appends; the counters alone (null stream)
 * make the sink a cheap in-memory probe for tests and benches.
 */

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "check/driver.hpp"

namespace icheck::runtime
{

/** Aggregate counters of one finished campaign. */
struct CampaignCounters
{
    std::string app;
    std::string scheme;
    int runs = 0;
    int jobs = 1;
    double wallSeconds = 0.0;
    double runsPerSec = 0.0;

    /** Busy time across workers / (wall time * workers); 0..1. */
    double workerUtilization = 0.0;

    std::uint64_t tasksStolen = 0;
    std::uint64_t maxQueueDepth = 0;
};

/**
 * Thread-safe sink. All callbacks may be invoked concurrently from pool
 * workers; output lines are written atomically under an internal lock.
 */
class ResultSink
{
  public:
    /** @param jsonl Optional JSONL stream (not owned; may be null). */
    explicit ResultSink(std::ostream *jsonl = nullptr) : out(jsonl) {}

    /** One run finished (in any order). @p seconds is its wall time. */
    void onRun(const std::string &app, const std::string &scheme, int run,
               const check::RunRecord &record, double seconds);

    /** The campaign finished; emits the aggregate line. */
    void onCampaignEnd(const CampaignCounters &counters);

    /// @name Introspection for tests and benches.
    /// @{
    int runsRecorded() const;
    CampaignCounters lastCampaign() const;
    /// @}

  private:
    mutable std::mutex mu;
    std::ostream *out;
    int runCount = 0;
    CampaignCounters last;
};

} // namespace icheck::runtime

#endif // ICHECK_RUNTIME_RESULT_SINK_HPP
