#include "service/daemon.hpp"

#include <vector>

#include "check/report_json.hpp"
#include "service/frame.hpp"
#include "runtime/parallel_driver.hpp"

namespace icheck::service
{

double
ServiceSnapshot::dedupHitRate() const
{
    const double touched =
        static_cast<double>(unitsExecuted + unitsReused);
    if (touched <= 0.0)
        return 0.0;
    return static_cast<double>(unitsReused) / touched;
}

Service::Service(ServiceConfig config)
    : cfg(std::move(config)),
      store(cfg.storePath.empty()
                ? std::make_unique<ResultStore>()
                : std::make_unique<ResultStore>(cfg.storePath)),
      startTime(std::chrono::steady_clock::now())
{
    const int jobs = runtime::resolveJobs(cfg.jobs);
    if (jobs > 1)
        pool = std::make_unique<runtime::ThreadPool>(
            static_cast<unsigned>(jobs));
    executor = std::make_unique<CampaignExecutor>(*store, pool.get());
}

std::string
Service::handleLine(const std::string &line)
{
    ParsedLine parsed = parseRequestLine(line, cfg.maxLineBytes);
    if (!parsed.ok()) {
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        requestsCompleted.fetch_add(1, std::memory_order_relaxed);
        return renderErrorResponse(parsed.id, parsed.error);
    }

    const Request &request = *parsed.request;
    std::string response;
    switch (request.op) {
      case RequestOp::Check:
        // Once a drain was accepted, new campaigns are refused — only
        // work that was already in flight when it arrived completes.
        if (drainRequested()) {
            drainRejected.fetch_add(1, std::memory_order_relaxed);
            requestsCompleted.fetch_add(1, std::memory_order_relaxed);
            return renderDrainingResponse(request.id);
        }
        response = handleCheck(request);
        break;
      case RequestOp::Stats:
        response = renderStatsResponse(request.id);
        break;
      case RequestOp::Ping:
        response = renderPongResponse(request.id);
        break;
      case RequestOp::Drain:
        drainFlag.store(true, std::memory_order_release);
        response = beginResponse(request.id, "ok")
                       .key("draining").boolean(true)
                       .endObject().take();
        break;
      case RequestOp::Pull:
        // Read-only: a draining backend keeps serving its log so the
        // router's replica can catch up before the process exits.
        response = handlePull(request);
        break;
      case RequestOp::Install:
        // Installs write to the store; once draining, refuse them just
        // like new campaigns (the backend is about to disappear).
        if (drainRequested()) {
            drainRejected.fetch_add(1, std::memory_order_relaxed);
            requestsCompleted.fetch_add(1, std::memory_order_relaxed);
            return renderDrainingResponse(request.id);
        }
        response = handleInstall(request);
        break;
    }
    requestsCompleted.fetch_add(1, std::memory_order_relaxed);
    return response;
}

std::string
Service::handleCheck(const Request &request)
{
    const ExecutionOutcome outcome = executor->execute(request);
    if (outcome.ok) {
        checksCompleted.fetch_add(1, std::memory_order_relaxed);
        if (outcome.cachedResponse)
            responsesCached.fetch_add(1, std::memory_order_relaxed);
        unitsExecuted.fetch_add(
            static_cast<std::uint64_t>(outcome.unitsExecuted),
            std::memory_order_relaxed);
        unitsReused.fetch_add(
            static_cast<std::uint64_t>(outcome.unitsReused),
            std::memory_order_relaxed);
    } else {
        checkErrors.fetch_add(1, std::memory_order_relaxed);
    }
    return outcome.response;
}

std::string
Service::handlePull(const Request &request)
{
    try {
        std::uint64_t next = 0;
        bool eof = false;
        const std::string frames = store->readLog(
            request.pull.from, request.pull.maxBytes, next, eof);
        return renderPullResponse(request.id, request.pull.from, next,
                                  eof, hexEncode(frames));
    } catch (const StoreError &error) {
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        return renderErrorResponse(request.id, error.what());
    }
}

std::string
Service::handleInstall(const Request &request)
{
    std::vector<Frame> frames;
    bool corrupt = false;
    const std::size_t consumed =
        decodeFrames(request.install.frames, frames, &corrupt);
    if (corrupt || consumed != request.install.frames.size()) {
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        return renderErrorResponse(
            request.id, corrupt ? "corrupt frame in 'frames'"
                                : "torn frame in 'frames' (whole frames "
                                  "only)");
    }
    std::uint64_t installed = 0;
    std::uint64_t duplicates = 0;
    for (const Frame &frame : frames) {
        if (store->put(frame.key, frame.payload)) {
            ++installed;
        } else {
            ++duplicates;
        }
    }
    framesInstalled.fetch_add(installed, std::memory_order_relaxed);
    return renderInstallResponse(request.id, installed, duplicates);
}

void
Service::noteBusyRejected()
{
    busyRejected.fetch_add(1, std::memory_order_relaxed);
}

void
Service::noteDrainRejected()
{
    drainRejected.fetch_add(1, std::memory_order_relaxed);
}

void
Service::setQueueProbe(
    std::function<std::pair<std::size_t, std::size_t>()> probe)
{
    std::lock_guard<std::mutex> lock(probeMu);
    queueProbe = std::move(probe);
}

ServiceSnapshot
Service::snapshot() const
{
    ServiceSnapshot snap;
    snap.requestsCompleted =
        requestsCompleted.load(std::memory_order_relaxed);
    snap.checksCompleted =
        checksCompleted.load(std::memory_order_relaxed);
    snap.protocolErrors = protocolErrors.load(std::memory_order_relaxed);
    snap.checkErrors = checkErrors.load(std::memory_order_relaxed);
    snap.busyRejected = busyRejected.load(std::memory_order_relaxed);
    snap.drainRejected = drainRejected.load(std::memory_order_relaxed);
    snap.responsesCached =
        responsesCached.load(std::memory_order_relaxed);
    snap.unitsExecuted = unitsExecuted.load(std::memory_order_relaxed);
    snap.unitsReused = unitsReused.load(std::memory_order_relaxed);
    {
        // Held across the call: the probe points into a ServeLoop that
        // uninstalls itself on destruction, and the uninstall must not
        // win while the probe is mid-flight.
        std::lock_guard<std::mutex> lock(probeMu);
        if (queueProbe) {
            const auto [queued, in_flight] = queueProbe();
            snap.queueDepth = queued;
            snap.inFlight = in_flight;
        }
    }
    snap.uptimeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime)
            .count();
    snap.requestsPerSec =
        snap.uptimeSeconds > 0.0
            ? static_cast<double>(snap.requestsCompleted) /
                  snap.uptimeSeconds
            : 0.0;
    snap.storeKeys = store->keyCount();
    snap.storeBytes = store->logBytes();
    snap.framesInstalled =
        framesInstalled.load(std::memory_order_relaxed);
    snap.store = store->stats();
    return snap;
}

std::string
Service::renderStatsResponse(const std::string &id) const
{
    const ServiceSnapshot snap = snapshot();
    return beginResponse(id, "ok")
        .key("stats")
        .beginObject()
        .key("requestsCompleted").uint64(snap.requestsCompleted)
        .key("checksCompleted").uint64(snap.checksCompleted)
        .key("protocolErrors").uint64(snap.protocolErrors)
        .key("checkErrors").uint64(snap.checkErrors)
        .key("busyRejected").uint64(snap.busyRejected)
        .key("drainRejected").uint64(snap.drainRejected)
        .key("responsesCached").uint64(snap.responsesCached)
        .key("unitsExecuted").uint64(snap.unitsExecuted)
        .key("unitsReused").uint64(snap.unitsReused)
        .key("dedupHitRate").fixed(snap.dedupHitRate(), 4)
        .key("queueDepth").uint64(snap.queueDepth)
        .key("inFlight").uint64(snap.inFlight)
        .key("uptimeSeconds").fixed(snap.uptimeSeconds, 3)
        .key("requestsPerSec").fixed(snap.requestsPerSec, 2)
        .key("storeKeys").uint64(snap.storeKeys)
        .key("storeBytes").uint64(snap.storeBytes)
        .key("framesAppended").uint64(snap.store.puts)
        .key("framesInstalled").uint64(snap.framesInstalled)
        .key("storeFramesLoaded").uint64(snap.store.framesLoaded)
        .key("storeBytesDropped").uint64(snap.store.bytesDropped)
        .endObject()
        .endObject().take();
}

} // namespace icheck::service
