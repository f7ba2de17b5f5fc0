#include "runtime/result_sink.hpp"

#include <ostream>

#include "support/json_writer.hpp"

namespace icheck::runtime
{

void
ResultSink::onRun(const std::string &app, const std::string &scheme,
                  int run, const check::RunRecord &record, double seconds)
{
    std::lock_guard<std::mutex> lock(mu);
    ++runCount;
    if (out == nullptr)
        return;
    const HashWord final_hash = record.checkpointHashes.empty()
                                    ? HashWord{0}
                                    : record.checkpointHashes.back();
    JsonWriter json;
    json.beginObject()
        .key("type").string("run")
        .key("app").string(app)
        .key("scheme").string(scheme)
        .key("run").int64(run)
        .key("checkpoints").uint64(record.checkpointHashes.size())
        .key("finalHash").hex16(final_hash)
        .key("outputHash").hex16(record.outputHash)
        .key("outputBytes").uint64(record.outputBytes)
        .key("nativeInstrs").uint64(record.result.nativeInstrs)
        .key("overheadInstrs")
        .uint64(record.result.overheadInstrs +
                record.checkerOverheadInstrs)
        .key("seconds").fixed(seconds, 6)
        .endObject();
    *out << json.take() << '\n';
}

void
ResultSink::onCampaignEnd(const CampaignCounters &counters)
{
    std::lock_guard<std::mutex> lock(mu);
    last = counters;
    if (out == nullptr)
        return;
    JsonWriter json;
    json.beginObject()
        .key("type").string("campaign")
        .key("app").string(counters.app)
        .key("scheme").string(counters.scheme)
        .key("runs").int64(counters.runs)
        .key("jobs").int64(counters.jobs)
        .key("wallSeconds").fixed(counters.wallSeconds, 6)
        .key("runsPerSec").fixed(counters.runsPerSec, 2)
        .key("workerUtilization").fixed(counters.workerUtilization, 4)
        .key("tasksStolen").uint64(counters.tasksStolen)
        .key("maxQueueDepth").uint64(counters.maxQueueDepth)
        .endObject();
    *out << json.take() << '\n';
    out->flush();
}

int
ResultSink::runsRecorded() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runCount;
}

CampaignCounters
ResultSink::lastCampaign() const
{
    std::lock_guard<std::mutex> lock(mu);
    return last;
}

} // namespace icheck::runtime
