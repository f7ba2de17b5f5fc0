#ifndef ICHECK_SIM_CHROME_TRACE_HPP
#define ICHECK_SIM_CHROME_TRACE_HPP

/**
 * @file
 * Chrome trace-event-format export of a simulated run.
 *
 * ChromeTraceBuilder is an ordinary AccessListener that turns schedule
 * slices, lock hold spans,
 * barrier epochs, preemptions, and determinism checkpoints into
 * trace-event records. renderChromeTrace() serializes one or more runs
 * into the JSON object format that chrome://tracing and Perfetto load
 * directly: each run becomes a pid, each simulated thread a tid.
 *
 * Timestamps are the builder's own event-count clock (one tick per
 * observed event), which makes traces deterministic — wall time on the
 * simulated machine is meaningless anyway.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/listener.hpp"
#include "support/types.hpp"

namespace icheck::sim
{

/** One trace-event entry, pre-baked for JSON serialization. */
struct TraceEvent
{
    std::string name;
    char ph = 'I';         ///< 'X' duration, 'I' instant, 'M' metadata.
    std::uint64_t ts = 0;  ///< Event-count ticks (rendered as us).
    std::uint64_t dur = 0; ///< 'X' events only.
    std::uint32_t tid = 0; ///< Simulated thread (or numCores for machine).
    std::string args;      ///< Pre-rendered JSON object, may be empty.
};

/** A determinism checkpoint observed during the run, with its trace
 *  time — the anchor for cross-run hash-divergence markers. */
struct CheckpointMark
{
    std::uint64_t index = 0;
    std::uint64_t ts = 0;
    ThreadId tid = invalidThreadId;
    CheckpointKind kind = CheckpointKind::Manual;
};

/** Listener that accumulates trace events for one run. */
class ChromeTraceBuilder : public AccessListener
{
  public:
    /** @p run_label names the process row in the viewer. */
    explicit ChromeTraceBuilder(std::string run_label = "run");

    /** The tick clock counts accesses but never needs store values. */
    ListenerInterest
    interest() const override
    {
        return addressInterest;
    }

    void onStore(const StoreEvent &) override { ++ticks; }
    void onLoad(const LoadEvent &) override { ++ticks; }
    void onSync(const SyncEvent &event) override;
    void onSlice(const SliceEvent &event) override;
    void onCheckpoint(const CheckpointInfo &info) override;

    /** Drop an instant divergence marker at the trace time of checkpoint
     *  @p checkpoint_index (called after cross-run hash comparison). */
    void markDivergence(std::uint64_t checkpoint_index,
                        const std::string &detail);

    const std::string &label() const { return runLabel; }
    const std::vector<TraceEvent> &events() const { return out; }
    const std::vector<CheckpointMark> &checkpoints() const
    {
        return marks;
    }

  private:
    std::uint64_t tick() { return ++ticks; }
    void noteThread(ThreadId tid);

    std::string runLabel;
    std::uint64_t ticks = 0;
    std::vector<TraceEvent> out;
    std::vector<CheckpointMark> marks;

    std::map<ThreadId, std::uint64_t> sliceStart;
    std::map<std::pair<ThreadId, std::uint32_t>, std::uint64_t> lockStart;
    std::map<ThreadId, std::uint64_t> barrierStart;
    std::map<ThreadId, bool> seenThread;
};

/** Serialize @p runs (one pid each, in order) to trace-event JSON. */
std::string
renderChromeTrace(const std::vector<const ChromeTraceBuilder *> &runs);

/** Render and write to @p path; false (with errno intact) on I/O error. */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<const ChromeTraceBuilder *> &runs);

} // namespace icheck::sim

#endif // ICHECK_SIM_CHROME_TRACE_HPP
