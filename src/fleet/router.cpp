#include "fleet/router.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/exit_codes.hpp"
#include "support/logging.hpp"

namespace icheck::fleet
{

namespace
{

/** Client ids with this prefix are reserved for router traffic. */
constexpr const char *reservedIdPrefix = "__fleet";
constexpr const char *pullId = "__fleet:pull";
constexpr const char *installId = "__fleet:install";

/** Client request lines are bounded like a single daemon's. */
constexpr std::size_t clientMaxLineBytes = 64 * 1024;

/**
 * Id of a response line. Every service response renders the id first
 * (`{"id":"..."`), and valid ids contain no quotes or backslashes, so
 * a prefix scan recovers it without parsing the (possibly large) rest.
 */
std::string
extractResponseId(const std::string &line)
{
    constexpr const char *prefix = "{\"id\":\"";
    constexpr std::size_t prefixLen = 7;
    if (line.compare(0, prefixLen, prefix) != 0)
        return {};
    const std::size_t end = line.find('"', prefixLen);
    if (end == std::string::npos)
        return {};
    return line.substr(prefixLen, end - prefixLen);
}

/**
 * Routing key of a replicated frame: store keys are either
 * `<canonical>#<suffix>` (unit / log frames) or `resp#<id>` whose
 * payload leads with the canonical key — both route by canonical, so
 * a campaign's units, log, and cached responses always travel to the
 * same owner.
 */
std::string
routingKeyOf(const service::Frame &frame)
{
    if (frame.key.compare(0, 5, "resp#") == 0) {
        const std::size_t sep = frame.payload.find('\n');
        return sep == std::string::npos ? frame.payload
                                        : frame.payload.substr(0, sep);
    }
    const std::size_t sep = frame.key.find('#');
    return sep == std::string::npos ? frame.key
                                    : frame.key.substr(0, sep);
}

std::string
renderPullRequest(std::uint64_t from, std::uint32_t max_bytes)
{
    return JsonWriter()
        .beginObject()
        .key("id").string(pullId)
        .key("op").string("pull")
        .key("from").uint64(from)
        .key("max").uint64(max_bytes)
        .endObject().take();
}

std::string
renderInstallRequest(const std::string &frames)
{
    return JsonWriter()
        .beginObject()
        .key("id").string(installId)
        .key("op").string("install")
        .key("frames").string(service::hexEncode(frames))
        .endObject().take();
}

} // namespace

Router::Router(FleetTopology topo, std::string listen_socket)
    : topology(std::move(topo)), listenSocket(std::move(listen_socket)),
      ring(topology.vnodes)
{
    for (const BackendAddress &address : topology.backends) {
        auto backend = std::make_unique<Backend>();
        backend->name = address.name;
        backend->socketPath = address.socket;
        backends.push_back(std::move(backend));
    }
}

Router::~Router() { stop(); }

Router::Backend *
Router::backendByName(const std::string &name)
{
    for (const auto &backend : backends)
        if (backend->name == name)
            return backend.get();
    return nullptr;
}

bool
Router::connectBackend(Backend &backend)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("route: socket() failed: ", std::strerror(errno));
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (backend.socketPath.size() >= sizeof addr.sun_path) {
        warn("route: backend socket path too long: ",
             backend.socketPath);
        ::close(fd);
        return false;
    }
    std::strncpy(addr.sun_path, backend.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        warn("route: cannot connect backend '", backend.name, "' at '",
             backend.socketPath, "': ", std::strerror(errno));
        ::close(fd);
        return false;
    }
    backend.fd = fd;
    backend.alive.store(true, std::memory_order_release);
    return true;
}

bool
Router::start()
{
    for (const auto &backend : backends) {
        if (!connectBackend(*backend)) {
            // `started` never flips on this path, so stop() would not
            // close the peers that did connect — close them here.
            for (const auto &connected : backends) {
                if (connected->fd < 0)
                    continue;
                ::close(connected->fd);
                connected->fd = -1;
                connected->alive.store(false,
                                       std::memory_order_release);
            }
            return false;
        }
        {
            std::lock_guard<std::mutex> lock(ringMu);
            ring.add(backend->name);
        }
    }
    for (const auto &backend : backends) {
        Backend *raw = backend.get();
        backend->reader =
            std::thread([this, raw] { backendReaderLoop(*raw); });
    }
    shipper = std::thread([this] { shipperLoop(); });
    started.store(true, std::memory_order_release);
    return true;
}

bool
Router::sendLine(Backend &backend, const std::string &line)
{
    if (!backend.alive.load(std::memory_order_acquire))
        return false;
    std::string framed = line;
    framed += '\n';
    std::lock_guard<std::mutex> lock(backend.writeMu);
    std::size_t written = 0;
    while (written < framed.size()) {
        // MSG_NOSIGNAL: a peer that vanished mid-write must surface as
        // EPIPE (handled by the failover path), not a fatal SIGPIPE.
        const ssize_t n = ::send(backend.fd, framed.data() + written,
                                 framed.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

void
Router::handleClientLine(const std::string &line, Respond respond)
{
    const service::ParsedLine parsed =
        service::parseRequestLine(line, clientMaxLineBytes);
    if (!parsed.ok()) {
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        respond(service::renderErrorResponse(parsed.id, parsed.error));
        return;
    }
    const service::Request &request = *parsed.request;
    if (request.id.compare(0, std::strlen(reservedIdPrefix),
                           reservedIdPrefix) == 0) {
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        respond(service::renderErrorResponse(
            request.id, "ids with prefix '__fleet' are reserved for "
                        "router traffic"));
        return;
    }

    switch (request.op) {
      case service::RequestOp::Ping:
        respond(service::renderPongResponse(request.id));
        return;
      case service::RequestOp::Pull:
      case service::RequestOp::Install:
        protocolErrors.fetch_add(1, std::memory_order_relaxed);
        respond(service::renderErrorResponse(
            request.id, "op is backend-internal; the router does not "
                        "serve it"));
        return;
      case service::RequestOp::Check: {
        if (draining.load(std::memory_order_acquire)) {
            respond(service::renderDrainingResponse(request.id));
            return;
        }
        Waiter waiter;
        waiter.id = request.id;
        waiter.line = line;
        waiter.canonical = service::canonicalKey(request.check);
        waiter.respond = std::move(respond);
        waiter.isCheck = true;
        dispatchCheck(std::move(waiter));
        return;
      }
      case service::RequestOp::Stats:
        handleStats(request.id, line, respond);
        return;
      case service::RequestOp::Drain:
        handleDrain(request.id, line, respond);
        return;
    }
}

void
Router::dispatchCheck(Waiter waiter)
{
    Backend *backend = nullptr;
    {
        std::lock_guard<std::mutex> lock(ringMu);
        const std::string *owner = ring.ownerOf(waiter.canonical);
        if (owner != nullptr)
            backend = backendByName(*owner);
        if (backend != nullptr &&
            !backend->alive.load(std::memory_order_acquire)) {
            // The owner died but its reader has not run failover() yet.
            // failover() takes it off the ring under ringMu before it
            // drains pending, so parking the waiter there while we
            // still hold ringMu hands it to that drain, which
            // re-dispatches it to the key's next owner.
            std::lock_guard<std::mutex> pending_lock(backend->pendingMu);
            backend->pending[waiter.id].push_back(std::move(waiter));
            return;
        }
    }
    if (backend == nullptr) {
        waiter.respond(service::renderErrorResponse(
            waiter.id, "no live backend for this key"));
        return;
    }
    if (waiter.attempts >= static_cast<int>(backends.size()) + 1) {
        waiter.respond(service::renderErrorResponse(
            waiter.id, "request kept landing on dying backends"));
        return;
    }
    ++waiter.attempts;
    requestsRouted.fetch_add(1, std::memory_order_relaxed);

    const std::string line = waiter.line;
    const std::string id = waiter.id;
    {
        std::lock_guard<std::mutex> lock(backend->pendingMu);
        backend->pending[id].push_back(std::move(waiter));
    }
    if (!sendLine(*backend, line))
        markDead(*backend); // Failover re-dispatches the waiter.
    // The reader thread may have run failover() — and drained pending —
    // between the alive check above and our push; such a waiter would
    // never be answered. If the backend died, reclaim it ourselves.
    if (!backend->alive.load(std::memory_order_acquire))
        reclaimStranded(*backend, id);
}

void
Router::reclaimStranded(Backend &backend, const std::string &id)
{
    // If failover()'s drain ran before the caller's push, the waiter
    // is still in pending (and pendingMu ordering made the caller's
    // alive load observe false, which is why it reached us). If the
    // drain runs after the push, it finds and handles the waiter and
    // this extraction comes up empty. Either way: exactly once.
    Waiter stranded;
    bool reclaimed = false;
    {
        std::lock_guard<std::mutex> lock(backend.pendingMu);
        const auto it = backend.pending.find(id);
        if (it != backend.pending.end() && !it->second.empty()) {
            stranded = std::move(it->second.back());
            it->second.pop_back();
            if (it->second.empty())
                backend.pending.erase(it);
            reclaimed = true;
        }
    }
    if (!reclaimed)
        return;
    if (stranded.isCheck) {
        requestsRetried.fetch_add(1, std::memory_order_relaxed);
        dispatchCheck(std::move(stranded));
    } else {
        stranded.respond(service::renderErrorResponse(
            stranded.id,
            "backend '" + backend.name + "' died mid-request"));
    }
}

void
Router::backendReaderLoop(Backend &backend)
{
    std::string buffer;
    char chunk[16 * 1024];
    while (true) {
        const ssize_t n = ::read(backend.fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t i = start; i < buffer.size(); ++i) {
            if (buffer[i] != '\n')
                continue;
            std::string line = buffer.substr(start, i - start);
            start = i + 1;
            if (line.empty())
                continue;
            const std::string id = extractResponseId(line);
            if (id == pullId)
                handlePullResponse(backend, line);
            else if (id == installId)
                ; // Idempotent install acks carry no actionable state.
            else
                completeResponse(backend, id, line);
        }
        buffer.erase(0, start);
    }
    markDead(backend);
    failover(backend);
}

void
Router::completeResponse(Backend &backend, const std::string &id,
                         const std::string &line)
{
    Waiter waiter;
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(backend.pendingMu);
        const auto it = backend.pending.find(id);
        if (it != backend.pending.end() && !it->second.empty()) {
            waiter = std::move(it->second.front());
            it->second.erase(it->second.begin());
            if (it->second.empty())
                backend.pending.erase(it);
            found = true;
        }
    }
    if (!found) {
        warn("route: backend '", backend.name,
             "' sent a response for unknown id '", id, "'");
        return;
    }
    if (waiter.isCheck && topology.syncShip) {
        // Sync replication: hold the response until this backend's log
        // has been pulled past the frames this campaign appended, so a
        // crash after the client sees "ok" can never lose its units.
        // Only a pull sent from here on can stand witness — the backend
        // appended the frames before it sent this response — so record
        // the next generation; a pull already in flight may have been
        // sent before the frames existed, and startPullLocked() queues
        // a fresh one behind it.
        std::lock_guard<std::mutex> lock(backend.shipMu);
        backend.held.push_back(HeldResponse{std::move(waiter.respond),
                                            line,
                                            backend.pullsSent + 1});
        startPullLocked(backend);
        return;
    }
    waiter.respond(line);
}

void
Router::startPullLocked(Backend &backend)
{
    if (!backend.alive.load(std::memory_order_acquire))
        return;
    if (backend.pullInFlight) {
        backend.pullQueued = true;
        return;
    }
    backend.pullInFlight = true;
    // An actual send satisfies every queued request: queuers only need
    // *some* pull sent after their request time, and this is one.
    backend.pullQueued = false;
    ++backend.pullsSent;
    if (!sendLine(backend, renderPullRequest(backend.cursor,
                                             topology.pullMaxBytes))) {
        // A failed write means the peer is gone; its reader observes
        // EOF and runs the death path — calling markDead() here would
        // re-enter shipMu, which every caller of this method holds.
        // Count the generation as landed so waiters unblock; failover
        // flushes the held responses.
        backend.pullInFlight = false;
        backend.lastEofGen = backend.pullsSent;
        backend.shipCv.notify_all();
    }
}

void
Router::handlePullResponse(Backend &backend, const std::string &line)
{
    std::string frames_raw;
    std::uint64_t next = backend.cursor;
    bool eof = true;
    bool usable = false;

    std::string json_error;
    const auto root = service::parseJson(line, &json_error);
    if (root.has_value() && root->isObject()) {
        const service::JsonValue *status = root->find("status");
        const service::JsonValue *next_field = root->find("next");
        const service::JsonValue *eof_field = root->find("eof");
        const service::JsonValue *frames = root->find("frames");
        if (status != nullptr && status->isString() &&
            status->text == "ok" && next_field != nullptr &&
            eof_field != nullptr && eof_field->isBool() &&
            frames != nullptr && frames->isString()) {
            const auto next_value = next_field->asU64();
            auto decoded = service::hexDecode(frames->text);
            if (next_value.has_value() && decoded.has_value()) {
                next = *next_value;
                eof = eof_field->boolean;
                frames_raw = std::move(*decoded);
                usable = true;
            }
        }
    }
    if (!usable)
        warn("route: unusable pull response from backend '",
             backend.name, "'");

    if (!frames_raw.empty()) {
        std::vector<service::Frame> frames;
        bool corrupt = false;
        service::decodeFrames(frames_raw, frames, &corrupt);
        if (corrupt)
            warn("route: CRC-corrupt frame pulled from backend '",
                 backend.name, "' — dropping the bad tail");
        for (const service::Frame &frame : frames) {
            if (backend.replica.put(frame.key, frame.payload))
                backend.framesReplicated.fetch_add(
                    1, std::memory_order_relaxed);
        }
    }

    std::vector<HeldResponse> flush;
    {
        std::lock_guard<std::mutex> lock(backend.shipMu);
        backend.cursor = next;
        const std::uint64_t gen = backend.pullsSent;
        backend.pullInFlight = false;
        if (usable && !eof) {
            startPullLocked(backend); // Keep draining the log tail.
        } else {
            backend.lastEofGen = gen;
            // Flush only responses whose witness pull has landed.
            // requiredGen rises monotonically down `held` (it snapshots
            // the monotone pullsSent), so the flushable ones are a
            // prefix; younger holds wait for the fresh pull below.
            std::size_t count = 0;
            while (count < backend.held.size() &&
                   backend.held[count].requiredGen <= gen)
                ++count;
            flush.assign(
                std::make_move_iterator(backend.held.begin()),
                std::make_move_iterator(backend.held.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            count)));
            backend.held.erase(backend.held.begin(),
                               backend.held.begin() +
                                   static_cast<std::ptrdiff_t>(count));
            if (!backend.held.empty() || backend.pullQueued)
                startPullLocked(backend);
            backend.shipCv.notify_all();
        }
    }
    for (HeldResponse &held : flush)
        held.respond(held.response);
}

void
Router::shipToEof(Backend &backend)
{
    std::unique_lock<std::mutex> lock(backend.shipMu);
    // "Fully replicated" means a pull sent after this point hit eof;
    // an in-flight pull's eof may predate log bytes already written.
    const std::uint64_t required = backend.pullsSent + 1;
    startPullLocked(backend);
    backend.shipCv.wait(lock, [&backend, required] {
        return backend.lastEofGen >= required ||
               !backend.alive.load(std::memory_order_acquire);
    });
}

void
Router::shipperLoop()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(shipperMu);
            shipperCv.wait_for(
                lock,
                std::chrono::milliseconds(topology.pullIntervalMs),
                [this] { return stopShipper; });
            if (stopShipper)
                return;
        }
        for (const auto &backend : backends) {
            if (!backend->alive.load(std::memory_order_acquire))
                continue;
            std::lock_guard<std::mutex> lock(backend->shipMu);
            startPullLocked(*backend);
        }
    }
}

void
Router::markDead(Backend &backend)
{
    if (!backend.alive.exchange(false, std::memory_order_acq_rel))
        return;
    // Unblock the backend's reader; it runs failover() exactly once.
    ::shutdown(backend.fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(backend.shipMu);
    backend.pullInFlight = false;
    backend.shipCv.notify_all();
}

void
Router::failover(Backend &backend)
{
    {
        std::lock_guard<std::mutex> lock(ringMu);
        if (!ring.contains(backend.name))
            return; // Already failed over (or never joined).
        ring.remove(backend.name);
    }
    failovers.fetch_add(1, std::memory_order_relaxed);

    // Deliver responses the backend completed but sync-ship was still
    // holding: the work finished and the bytes are genuine; only the
    // not-yet-pulled log tail is lost.
    std::vector<HeldResponse> flush;
    {
        std::lock_guard<std::mutex> lock(backend.shipMu);
        flush.swap(backend.held);
        backend.shipCv.notify_all();
    }
    for (HeldResponse &held : flush)
        held.respond(held.response);

    const bool fleet_alive = std::any_of(
        backends.begin(), backends.end(), [](const auto &b) {
            return b->alive.load(std::memory_order_acquire);
        });
    if (fleet_alive && !draining.load(std::memory_order_acquire))
        reinstallReplica(backend);

    // Re-dispatch everything that was in flight on the dead backend:
    // checks ride the ring again (their completed units now live on
    // the new owner), control ops answer with an error.
    std::vector<Waiter> orphans;
    {
        std::lock_guard<std::mutex> lock(backend.pendingMu);
        for (auto &[id, waiters] : backend.pending)
            for (Waiter &waiter : waiters)
                orphans.push_back(std::move(waiter));
        backend.pending.clear();
    }
    std::uint64_t retried = 0;
    for (Waiter &waiter : orphans) {
        if (waiter.isCheck && fleet_alive) {
            ++retried;
            dispatchCheck(std::move(waiter));
        } else {
            waiter.respond(service::renderErrorResponse(
                waiter.id,
                "backend '" + backend.name + "' died mid-request"));
        }
    }
    requestsRetried.fetch_add(retried, std::memory_order_relaxed);
    inform("route: backend '", backend.name, "' died; re-dispatched ",
           retried, " in-flight requests");
}

void
Router::reinstallReplica(Backend &dead)
{
    // Ship every replicated frame of the dead backend to its key's new
    // owner. Grouping whole frames per owner keeps each install line a
    // bounded, self-verifying unit; installs are idempotent puts, so
    // re-sending after a second failure is harmless.
    std::unordered_map<Backend *, std::string> batches;
    const auto flushBatch = [this](Backend *owner, std::string &batch) {
        if (batch.empty())
            return;
        if (!sendLine(*owner, renderInstallRequest(batch)))
            markDead(*owner);
        batch.clear();
    };

    std::uint64_t cursor = 0;
    std::uint64_t shipped = 0;
    bool eof = false;
    while (!eof) {
        std::string raw;
        try {
            raw = dead.replica.readLog(cursor, topology.pullMaxBytes,
                                       cursor, eof);
        } catch (const service::StoreError &error) {
            warn("route: replica walk of '", dead.name,
                 "' failed: ", error.what());
            break;
        }
        if (raw.empty())
            break;
        std::vector<service::Frame> frames;
        service::decodeFrames(raw, frames);
        for (const service::Frame &frame : frames) {
            Backend *owner = nullptr;
            {
                std::lock_guard<std::mutex> lock(ringMu);
                const std::string *name =
                    ring.ownerOf(routingKeyOf(frame));
                if (name != nullptr)
                    owner = backendByName(*name);
            }
            if (owner == nullptr ||
                !owner->alive.load(std::memory_order_acquire))
                continue;
            std::string &batch = batches[owner];
            const std::string encoded =
                service::encodeFrame(frame.key, frame.payload);
            if (!batch.empty() &&
                batch.size() + encoded.size() > topology.pullMaxBytes)
                flushBatch(owner, batch);
            batch += encoded;
            ++shipped;
        }
    }
    // icheck-lint: allow(D1): each batch ships to a distinct backend's
    // idempotent store; inter-backend send order cannot reach any output
    for (auto &[owner, batch] : batches)
        flushBatch(owner, batch);
    framesReinstalled.fetch_add(shipped, std::memory_order_relaxed);
    inform("route: reinstalled ", shipped,
           " replicated frames from dead backend '", dead.name, "'");
}

std::string
Router::forwardAndWait(Backend &backend, const std::string &id,
                       const std::string &line)
{
    struct SyncSlot
    {
        std::mutex mu;
        std::condition_variable cv;
        std::string response;
        bool done = false;
    };
    auto slot = std::make_shared<SyncSlot>();

    Waiter waiter;
    waiter.id = id;
    waiter.line = line;
    waiter.respond = [slot](const std::string &response) {
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->response = response;
        slot->done = true;
        slot->cv.notify_all();
    };
    {
        std::lock_guard<std::mutex> lock(backend.pendingMu);
        backend.pending[id].push_back(std::move(waiter));
    }
    if (!sendLine(backend, line))
        markDead(backend); // Failover answers the waiter with an error.
    // Same race as dispatchCheck: a failover that drained pending
    // before our push would leave this wait blocked forever.
    if (!backend.alive.load(std::memory_order_acquire))
        reclaimStranded(backend, id);

    std::unique_lock<std::mutex> lock(slot->mu);
    slot->cv.wait(lock, [&slot] { return slot->done; });
    return slot->response;
}

void
Router::handleStats(const std::string &id, const std::string &line,
                    const Respond &respond)
{
    const RouterStats router_stats = stats();

    struct PerBackend
    {
        std::string name;
        bool alive = false;
        std::uint64_t replicaFrames = 0;
        std::uint64_t replicaBytes = 0;
        /** The backend's flat, all-numeric `stats` object, if any. */
        std::optional<service::JsonValue> stats;
    };
    std::vector<PerBackend> rows;

    struct Aggregate
    {
        std::uint64_t requestsCompleted = 0;
        std::uint64_t checksCompleted = 0;
        std::uint64_t unitsExecuted = 0;
        std::uint64_t unitsReused = 0;
        std::uint64_t framesAppended = 0;
        std::uint64_t framesInstalled = 0;
        std::uint64_t storeBytes = 0;
        std::uint64_t storeKeys = 0;
    };
    Aggregate total;
    std::size_t alive_count = 0;

    for (const auto &backend : backends) {
        PerBackend row;
        row.name = backend->name;
        row.alive = backend->alive.load(std::memory_order_acquire);
        row.replicaFrames =
            backend->framesReplicated.load(std::memory_order_relaxed);
        row.replicaBytes = backend->replica.logBytes();
        if (row.alive) {
            auto response =
                service::parseJson(forwardAndWait(*backend, id, line));
            const service::JsonValue *stats =
                response.has_value() ? response->find("stats") : nullptr;
            if (stats != nullptr && stats->isObject())
                row.stats = *stats;
            row.alive = backend->alive.load(std::memory_order_acquire);
        }
        if (row.alive && row.stats.has_value()) {
            ++alive_count;
            const auto add = [&row](const char *key, std::uint64_t &into) {
                const service::JsonValue *field = row.stats->find(key);
                if (field == nullptr)
                    return;
                const auto value = field->asU64();
                if (value.has_value())
                    into += *value;
            };
            add("requestsCompleted", total.requestsCompleted);
            add("checksCompleted", total.checksCompleted);
            add("unitsExecuted", total.unitsExecuted);
            add("unitsReused", total.unitsReused);
            add("framesAppended", total.framesAppended);
            add("framesInstalled", total.framesInstalled);
            add("storeBytes", total.storeBytes);
            add("storeKeys", total.storeKeys);
        }
        rows.push_back(std::move(row));
    }

    const double touched = static_cast<double>(total.unitsExecuted +
                                               total.unitsReused);
    const double dedup =
        touched > 0.0 ? static_cast<double>(total.unitsReused) / touched
                      : 0.0;

    JsonWriter json = service::beginResponse(id, "ok");
    json.key("fleet")
        .beginObject()
        .key("backends").uint64(backends.size())
        .key("aliveBackends").uint64(alive_count)
        .key("router")
        .beginObject()
        .key("requestsRouted").uint64(router_stats.requestsRouted)
        .key("protocolErrors").uint64(router_stats.protocolErrors)
        .key("framesReplicated").uint64(router_stats.framesReplicated)
        .key("framesReinstalled").uint64(router_stats.framesReinstalled)
        .key("requestsRetried").uint64(router_stats.requestsRetried)
        .key("failovers").uint64(router_stats.failovers)
        .key("syncShip").boolean(topology.syncShip)
        .endObject()
        .key("aggregate")
        .beginObject()
        .key("requestsCompleted").uint64(total.requestsCompleted)
        .key("checksCompleted").uint64(total.checksCompleted)
        .key("unitsExecuted").uint64(total.unitsExecuted)
        .key("unitsReused").uint64(total.unitsReused)
        .key("dedupHitRate").fixed(dedup, 4)
        .key("framesAppended").uint64(total.framesAppended)
        .key("framesInstalled").uint64(total.framesInstalled)
        .key("storeBytes").uint64(total.storeBytes)
        .key("storeKeys").uint64(total.storeKeys)
        .endObject()
        .key("perBackend")
        .beginArray();
    for (const PerBackend &row : rows) {
        json.beginObject()
            .key("name").string(row.name)
            .key("alive").boolean(row.alive)
            .key("replicaFrames").uint64(row.replicaFrames)
            .key("replicaBytes").uint64(row.replicaBytes);
        if (row.stats.has_value()) {
            // A daemon's stats object is flat and all-numeric;
            // re-emitting each number's own lexeme reproduces the
            // backend's bytes exactly.
            json.key("stats").beginObject();
            for (const auto &[name, value] : row.stats->members)
                if (value.isNumber())
                    json.key(name).raw(value.text);
            json.endObject();
        }
        json.endObject();
    }
    respond(json.endArray().endObject().endObject().take());
}

void
Router::handleDrain(const std::string &id, const std::string &line,
                    const Respond &respond)
{
    draining.store(true, std::memory_order_release);
    for (const auto &backend : backends) {
        if (!backend->alive.load(std::memory_order_acquire))
            continue;
        // Ship the log tail first: a drained backend exits, and its
        // final frames should survive in the replica.
        shipToEof(*backend);
        if (!backend->alive.load(std::memory_order_acquire))
            continue;
        forwardAndWait(*backend, id, line);
    }
    respond(service::beginResponse(id, "ok")
                .key("draining").boolean(true)
                .endObject().take());
    drainComplete.store(true, std::memory_order_release);
}

RouterStats
Router::stats() const
{
    RouterStats out;
    out.requestsRouted = requestsRouted.load(std::memory_order_relaxed);
    out.protocolErrors = protocolErrors.load(std::memory_order_relaxed);
    for (const auto &backend : backends)
        out.framesReplicated +=
            backend->framesReplicated.load(std::memory_order_relaxed);
    out.framesReinstalled =
        framesReinstalled.load(std::memory_order_relaxed);
    out.requestsRetried =
        requestsRetried.load(std::memory_order_relaxed);
    out.failovers = failovers.load(std::memory_order_relaxed);
    return out;
}

namespace
{

/**
 * Per-connection state of one router client. Shared-owned: check
 * responses arrive asynchronously from backend reader threads, so the
 * respond closures handed to the router hold a shared_ptr and the
 * connection (and its fd) outlives its reaped reader thread until the
 * last response is written or dropped.
 */
struct ClientConnection
    : public std::enable_shared_from_this<ClientConnection>
{
    int fd = -1;
    std::thread reader;
    std::mutex writeMu;
    std::atomic<bool> done{false}; ///< Reader exited; safe to reap.

    ~ClientConnection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

void
writeClientResponse(ClientConnection &connection,
                    const std::string &response)
{
    std::string framed = response;
    framed += '\n';
    std::lock_guard<std::mutex> lock(connection.writeMu);
    std::size_t written = 0;
    while (written < framed.size()) {
        // MSG_NOSIGNAL: a client that disconnected mid-response must
        // not SIGPIPE the router out from under every other client.
        const ssize_t n =
            ::send(connection.fd, framed.data() + written,
                   framed.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // Peer went away; its responses are undeliverable.
        }
        written += static_cast<std::size_t>(n);
    }
}

void
clientReader(ClientConnection &connection, Router &router)
{
    const Router::Respond respond =
        [self = connection.shared_from_this()](
            const std::string &response) {
            writeClientResponse(*self, response);
        };
    std::string buffer;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::read(connection.fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (n == 0)
            return;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t i = start; i < buffer.size(); ++i) {
            if (buffer[i] != '\n')
                continue;
            std::string line = buffer.substr(start, i - start);
            start = i + 1;
            if (!line.empty())
                router.handleClientLine(line, respond);
        }
        buffer.erase(0, start);
        if (buffer.size() > 2 * clientMaxLineBytes) {
            respond(service::renderErrorResponse(
                {}, "oversized request line; closing connection"));
            return;
        }
    }
}

} // namespace

int
Router::serve(const volatile std::sig_atomic_t *shutdown_flag)
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        warn("route: socket() failed: ", std::strerror(errno));
        return ExitInternal;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (listenSocket.size() >= sizeof addr.sun_path) {
        warn("route: socket path too long: ", listenSocket);
        ::close(listener);
        return ExitUsage;
    }
    std::strncpy(addr.sun_path, listenSocket.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(listenSocket.c_str());
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 64) != 0) {
        warn("route: cannot bind/listen on '", listenSocket,
             "': ", std::strerror(errno));
        ::close(listener);
        return ExitInternal;
    }
    inform("routing ", backends.size(), " backends on unix socket ",
           listenSocket);

    std::vector<std::shared_ptr<ClientConnection>> connections;
    // Reap disconnected clients as we go — a long-lived router must not
    // accumulate one dead thread + socket per client that came and went.
    const auto reapFinished = [&connections] {
        for (auto it = connections.begin(); it != connections.end();) {
            if ((*it)->done.load(std::memory_order_acquire)) {
                (*it)->reader.join();
                it = connections.erase(it);
            } else {
                ++it;
            }
        }
    };
    while (!(shutdown_flag != nullptr && *shutdown_flag != 0) &&
           !drainComplete.load(std::memory_order_acquire)) {
        reapFinished();
        pollfd pfd{listener, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("route: poll failed: ", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("route: accept failed: ", std::strerror(errno));
            break;
        }
        auto connection = std::make_shared<ClientConnection>();
        connection->fd = fd;
        ClientConnection *raw = connection.get();
        connection->reader = std::thread([raw, this] {
            clientReader(*raw, *this);
            raw->done.store(true, std::memory_order_release);
        });
        connections.push_back(std::move(connection));
    }

    ::close(listener);
    for (auto &connection : connections)
        ::shutdown(connection->fd, SHUT_RDWR);
    for (auto &connection : connections)
        connection->reader.join();
    // Dropping the vector closes each fd once its last outstanding
    // respond closure (if any) has run; stop() below drains those.
    connections.clear();
    ::unlink(listenSocket.c_str());
    stop();
    return ExitOk;
}

void
Router::stop()
{
    if (!started.exchange(false, std::memory_order_acq_rel))
        return;
    {
        std::lock_guard<std::mutex> lock(shipperMu);
        stopShipper = true;
        shipperCv.notify_all();
    }
    if (shipper.joinable())
        shipper.join();
    // Drop links; each reader observes EOF and runs its failover path,
    // which only answers outstanding waiters (the ring is already being
    // torn down, so re-dispatch lands on an error quickly if at all).
    draining.store(true, std::memory_order_release);
    for (const auto &backend : backends)
        markDead(*backend);
    for (const auto &backend : backends) {
        if (backend->reader.joinable())
            backend->reader.join();
        if (backend->fd >= 0) {
            ::close(backend->fd);
            backend->fd = -1;
        }
    }
}

} // namespace icheck::fleet
