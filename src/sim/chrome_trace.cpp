#include "sim/chrome_trace.hpp"

#include <fstream>

#include "support/json_writer.hpp"

namespace icheck::sim
{

namespace
{

const char *
sliceEndName(SliceEnd reason)
{
    switch (reason) {
      case SliceEnd::Running:
        return "running";
      case SliceEnd::Preempted:
        return "preempted";
      case SliceEnd::Yielded:
        return "yielded";
      case SliceEnd::Blocked:
        return "blocked";
      case SliceEnd::Finished:
        return "finished";
    }
    return "unknown";
}

const char *
checkpointKindName(CheckpointKind kind)
{
    switch (kind) {
      case CheckpointKind::Barrier:
        return "barrier";
      case CheckpointKind::Manual:
        return "manual";
      case CheckpointKind::ProgramEnd:
        return "program-end";
    }
    return "unknown";
}

} // namespace

ChromeTraceBuilder::ChromeTraceBuilder(std::string run_label)
    : runLabel(std::move(run_label))
{
}

void
ChromeTraceBuilder::noteThread(ThreadId tid)
{
    if (tid == invalidThreadId || seenThread[tid])
        return;
    seenThread[tid] = true;
    TraceEvent meta;
    meta.name = "thread_name";
    meta.ph = 'M';
    meta.tid = tid;
    meta.args = JsonWriter()
                    .beginObject()
                    .key("name").string("sim thread " + std::to_string(tid))
                    .endObject().take();
    out.push_back(std::move(meta));
}

void
ChromeTraceBuilder::onSync(const SyncEvent &event)
{
    const std::uint64_t now = tick();
    noteThread(event.tid);
    switch (event.kind) {
      case SyncKind::LockAcquire:
        lockStart[{event.tid, event.object}] = now;
        break;
      case SyncKind::LockRelease: {
        const auto it = lockStart.find({event.tid, event.object});
        if (it == lockStart.end())
            break;
        TraceEvent ev;
        ev.name = "lock " + std::to_string(event.object);
        ev.ph = 'X';
        ev.ts = it->second;
        ev.dur = now - it->second;
        ev.tid = event.tid;
        ev.args = JsonWriter()
                      .beginObject()
                      .key("object").uint64(event.object)
                      .endObject().take();
        out.push_back(std::move(ev));
        lockStart.erase(it);
        break;
      }
      case SyncKind::BarrierArrive:
        barrierStart[event.tid] = now;
        break;
      case SyncKind::BarrierLeave: {
        const auto it = barrierStart.find(event.tid);
        if (it == barrierStart.end())
            break;
        TraceEvent ev;
        ev.name = "barrier " + std::to_string(event.object) + " epoch " +
                  std::to_string(event.epoch);
        ev.ph = 'X';
        ev.ts = it->second;
        ev.dur = now - it->second;
        ev.tid = event.tid;
        ev.args = JsonWriter()
                      .beginObject()
                      .key("object").uint64(event.object)
                      .key("epoch").uint64(event.epoch)
                      .endObject().take();
        out.push_back(std::move(ev));
        barrierStart.erase(it);
        break;
      }
      case SyncKind::CondWait:
      case SyncKind::CondSignal:
      case SyncKind::ThreadStart:
      case SyncKind::ThreadFinish: {
        TraceEvent ev;
        ev.name = event.kind == SyncKind::CondWait     ? "cond wait"
                  : event.kind == SyncKind::CondSignal ? "cond signal"
                  : event.kind == SyncKind::ThreadStart
                      ? "thread start"
                      : "thread finish";
        ev.ph = 'I';
        ev.ts = now;
        ev.tid = event.tid;
        out.push_back(std::move(ev));
        break;
      }
    }
}

void
ChromeTraceBuilder::onSlice(const SliceEvent &event)
{
    const std::uint64_t now = tick();
    noteThread(event.tid);
    if (event.begin) {
        sliceStart[event.tid] = now;
        return;
    }
    const auto it = sliceStart.find(event.tid);
    const std::uint64_t start = it != sliceStart.end() ? it->second : now;
    TraceEvent ev;
    ev.name = "slice core " + std::to_string(event.core);
    ev.ph = 'X';
    ev.ts = start;
    ev.dur = now > start ? now - start : 1;
    ev.tid = event.tid;
    ev.args = JsonWriter()
                  .beginObject()
                  .key("core").uint64(event.core)
                  .key("end").string(sliceEndName(event.reason))
                  .endObject().take();
    out.push_back(std::move(ev));
    if (it != sliceStart.end())
        sliceStart.erase(it);
    if (event.reason == SliceEnd::Preempted) {
        TraceEvent mark;
        mark.name = "preempt";
        mark.ph = 'I';
        mark.ts = now;
        mark.tid = event.tid;
        out.push_back(std::move(mark));
    }
}

void
ChromeTraceBuilder::onCheckpoint(const CheckpointInfo &info)
{
    const std::uint64_t now = tick();
    const ThreadId tid = info.tid != invalidThreadId ? info.tid : 0;
    noteThread(tid);
    TraceEvent ev;
    ev.name = "checkpoint " + std::to_string(info.index);
    ev.ph = 'I';
    ev.ts = now;
    ev.tid = tid;
    ev.args = JsonWriter()
                  .beginObject()
                  .key("kind").string(checkpointKindName(info.kind))
                  .key("index").uint64(info.index)
                  .endObject().take();
    out.push_back(std::move(ev));
    marks.push_back(CheckpointMark{info.index, now, info.tid, info.kind});
}

void
ChromeTraceBuilder::markDivergence(std::uint64_t checkpoint_index,
                                   const std::string &detail)
{
    std::uint64_t ts = ticks + 1;
    for (const CheckpointMark &mark : marks) {
        if (mark.index == checkpoint_index) {
            ts = mark.ts;
            break;
        }
    }
    TraceEvent ev;
    ev.name = "HASH DIVERGENCE @ checkpoint " +
              std::to_string(checkpoint_index);
    ev.ph = 'I';
    ev.ts = ts;
    ev.tid = 0;
    ev.args = JsonWriter()
                  .beginObject()
                  .key("detail").string(detail)
                  .endObject().take();
    out.push_back(std::move(ev));
}

std::string
renderChromeTrace(const std::vector<const ChromeTraceBuilder *> &runs)
{
    JsonWriter json;
    json.beginObject()
        .key("displayTimeUnit").string("ms")
        .key("traceEvents").beginArray();
    std::uint32_t pid = 0;
    for (const ChromeTraceBuilder *run : runs) {
        if (run == nullptr)
            continue;
        json.beginObject()
            .key("name").string("process_name")
            .key("ph").string("M")
            .key("pid").uint64(pid)
            .key("tid").uint64(0)
            .key("args")
            .beginObject()
            .key("name").string(run->label())
            .endObject()
            .endObject();
        for (const TraceEvent &ev : run->events()) {
            json.beginObject()
                .key("name").string(ev.name)
                .key("ph").string(std::string_view(&ev.ph, 1))
                .key("pid").uint64(pid)
                .key("tid").uint64(ev.tid);
            if (ev.ph != 'M')
                json.key("ts").uint64(ev.ts);
            if (ev.ph == 'X')
                json.key("dur").uint64(ev.dur > 0 ? ev.dur : 1);
            if (ev.ph == 'I')
                json.key("s").string("t");
            if (!ev.args.empty())
                json.key("args").raw(ev.args);
            json.endObject();
        }
        ++pid;
    }
    return json.endArray().endObject().take();
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<const ChromeTraceBuilder *> &runs)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return false;
    file << renderChromeTrace(runs);
    return static_cast<bool>(file);
}

} // namespace icheck::sim
