/**
 * @file
 * Router behavior against scripted fake backends: the sync-ship
 * hold/witness protocol (a pull already in flight when a response is
 * held predates its frames and must not flush it), the death paths a
 * SIGKILLed backend exercises (writes surface as EPIPE, never a
 * process-fatal SIGPIPE; a check routed to a dead owner before its
 * failover is re-dispatched, not refused), and fd hygiene when start()
 * fails partway.
 * The fake backend owns the wire verbatim, so each interleaving is
 * forced rather than raced.
 */

#include <chrono>
#include <cstring>
#include <future>
#include <string>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fleet/fleet_config.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/router.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace fleet = icheck::fleet;

namespace
{

/**
 * A hand-driven `icheck serve` stand-in: listens on a Unix socket,
 * accepts the router's single connection, and lets the test read and
 * write protocol lines in an exact order.
 */
class FakeBackend
{
  public:
    explicit FakeBackend(std::string socket_path)
        : path(std::move(socket_path))
    {
    }

    ~FakeBackend()
    {
        closeConn();
        if (listener >= 0)
            ::close(listener);
        ::unlink(path.c_str());
    }

    bool
    listen()
    {
        listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listener < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return false;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(path.c_str());
        return ::bind(listener,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0 &&
               ::listen(listener, 4) == 0;
    }

    bool
    acceptOne()
    {
        conn = ::accept(listener, nullptr, nullptr);
        return conn >= 0;
    }

    /** Next '\n'-terminated line, or "" after @p timeout_ms idle. */
    std::string
    readLine(int timeout_ms = 5000)
    {
        while (true) {
            const std::size_t newline = buffer.find('\n');
            if (newline != std::string::npos) {
                std::string line = buffer.substr(0, newline);
                buffer.erase(0, newline + 1);
                return line;
            }
            pollfd pfd{conn, POLLIN, 0};
            if (::poll(&pfd, 1, timeout_ms) <= 0)
                return {};
            char chunk[4096];
            const ssize_t n = ::read(conn, chunk, sizeof chunk);
            if (n <= 0)
                return {};
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

    bool
    sendLine(const std::string &line)
    {
        std::string framed = line;
        framed += '\n';
        std::size_t written = 0;
        while (written < framed.size()) {
            const ssize_t n =
                ::send(conn, framed.data() + written,
                       framed.size() - written, MSG_NOSIGNAL);
            if (n < 0)
                return false;
            written += static_cast<std::size_t>(n);
        }
        return true;
    }

    void
    closeConn()
    {
        if (conn >= 0)
            ::close(conn);
        conn = -1;
    }

  private:
    std::string path;
    int listener = -1;
    int conn = -1;
    std::string buffer;
};

std::string
socketPath(const char *tag)
{
    return "/tmp/icheck_rs_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

fleet::FleetTopology
oneBackendTopology(const std::string &socket, bool sync_ship)
{
    fleet::FleetTopology topology;
    topology.backends.push_back(fleet::BackendAddress{"b0", socket});
    topology.syncShip = sync_ship;
    return topology;
}

std::size_t
countOpenFds()
{
    std::size_t count = 0;
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return 0;
    while (::readdir(dir) != nullptr)
        ++count;
    ::closedir(dir);
    return count;
}

constexpr const char *checkLine =
    "{\"id\":\"c1\",\"op\":\"check\",\"app\":\"radix\",\"runs\":4}";

/** The next forwarded check line, skipping the shipper's pulls. */
std::string
readCheckLine(FakeBackend &backend)
{
    while (true) {
        std::string line = backend.readLine();
        if (line.empty() || line.find("\"op\":\"check\"") !=
                                std::string::npos)
            return line;
    }
}

std::string
pullEofResponse(std::uint64_t next)
{
    return "{\"id\":\"__fleet:pull\",\"status\":\"ok\",\"next\":" +
           std::to_string(next) + ",\"eof\":true,\"frames\":\"\"}";
}

} // namespace

TEST(RouterShip, StaleMidflightPullCannotFlushASyncShipHold)
{
    const std::string path = socketPath("stale");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::Router router(oneBackendTopology(path, /*sync_ship=*/true),
                         "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(backend.acceptOne());

    // The shipper's first pull goes out before any check exists — from
    // the backend's point of view, before any frames were appended.
    const std::string stale_pull = backend.readLine();
    ASSERT_NE(stale_pull.find("\"op\":\"pull\""), std::string::npos);

    std::promise<std::string> answered;
    std::future<std::string> response = answered.get_future();
    router.handleClientLine(checkLine,
                            [&answered](const std::string &line) {
                                answered.set_value(line);
                            });
    const std::string forwarded = backend.readLine();
    ASSERT_NE(forwarded.find("\"op\":\"check\""), std::string::npos);

    // Answer the check first (the hold registers while the stale pull
    // is still in flight), then let the stale pull report eof. The
    // router's reader consumes both lines in this order.
    const std::string check_response =
        "{\"id\":\"c1\",\"status\":\"ok\",\"fake\":true}";
    ASSERT_TRUE(backend.sendLine(check_response));
    ASSERT_TRUE(backend.sendLine(pullEofResponse(0)));

    // The stale pull was sent before the check's frames existed, so its
    // eof proves nothing about them: the hold must survive it and a
    // fresh witness pull must go out instead.
    const std::string witness_pull = backend.readLine();
    ASSERT_NE(witness_pull.find("\"op\":\"pull\""), std::string::npos);
    EXPECT_EQ(response.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout)
        << "sync-ship hold flushed on a pull that predates its frames";

    // Only the witness pull's eof releases the response, verbatim.
    ASSERT_TRUE(backend.sendLine(pullEofResponse(0)));
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_EQ(response.get(), check_response);
}

TEST(RouterShip, DeadBackendAnswersWithAnErrorNotASignal)
{
    const std::string path = socketPath("dead");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::Router router(oneBackendTopology(path, /*sync_ship=*/false),
                         "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(backend.acceptOne());
    // Simulate a SIGKILLed backend. The forwarding write then fails
    // with EPIPE — before MSG_NOSIGNAL it raised SIGPIPE and killed
    // the whole process (this test binary included).
    backend.closeConn();

    std::promise<std::string> answered;
    std::future<std::string> response = answered.get_future();
    router.handleClientLine(checkLine,
                            [&answered](const std::string &line) {
                                answered.set_value(line);
                            });
    // Whichever of the dispatcher or the reader's failover observes the
    // death first must answer — an error, never a hang or a crash.
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_NE(response.get().find("\"status\":\"error\""),
              std::string::npos);
}

TEST(RouterShip, CheckRoutedToADeadOwnerBeforeFailoverIsReDispatched)
{
    const std::string paths[2] = {socketPath("win0"), socketPath("win1")};
    FakeBackend fakes[2] = {FakeBackend(paths[0]), FakeBackend(paths[1])};
    fleet::FleetTopology topology;
    for (int b = 0; b < 2; ++b) {
        ASSERT_TRUE(fakes[b].listen());
        topology.backends.push_back(fleet::BackendAddress{
            "b" + std::to_string(b), paths[b]});
    }

    // Both checks carry the same work, so they share a ring owner.
    const std::string first_line = checkLine;
    const std::string second_line =
        "{\"id\":\"c2\",\"op\":\"check\",\"app\":\"radix\",\"runs\":4}";
    fleet::HashRing ring;
    ring.add("b0");
    ring.add("b1");
    const icheck::service::ParsedLine parsed =
        icheck::service::parseRequestLine(first_line);
    ASSERT_TRUE(parsed.ok());
    const std::string *owner_name =
        ring.ownerOf(icheck::service::canonicalKey(parsed.request->check));
    ASSERT_NE(owner_name, nullptr);
    const int owner = *owner_name == "b0" ? 0 : 1;
    FakeBackend &dying = fakes[owner];
    FakeBackend &heir = fakes[1 - owner];

    fleet::Router router(std::move(topology), "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(fakes[0].acceptOne());
    ASSERT_TRUE(fakes[1].acceptOne());

    // Park the dying owner's reader thread inside c1's response
    // callback: until it returns, the reader cannot see the owner's
    // death, so failover() cannot run and the owner stays on the ring.
    std::promise<void> in_callback;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    router.handleClientLine(first_line,
                            [&in_callback, released](const std::string &) {
                                in_callback.set_value();
                                released.wait();
                            });
    ASSERT_NE(readCheckLine(dying).find("\"id\":\"c1\""),
              std::string::npos);
    ASSERT_TRUE(dying.sendLine("{\"id\":\"c1\",\"status\":\"ok\"}"));
    in_callback.get_future().wait();

    // The owner dies. c2's forward fails, the router marks the owner
    // dead, and the owner is still on the ring: the window in which the
    // router used to answer "no live backend for this key".
    dying.closeConn();
    std::promise<std::string> answered;
    std::future<std::string> response = answered.get_future();
    router.handleClientLine(second_line,
                            [&answered](const std::string &line) {
                                answered.set_value(line);
                            });
    const bool answered_in_window =
        response.wait_for(std::chrono::milliseconds(0)) ==
        std::future_status::ready;
    release.set_value(); // Lets the reader run failover().
    ASSERT_FALSE(answered_in_window) << response.get();

    // failover() re-dispatches c2 to the key's next owner.
    const std::string forwarded = readCheckLine(heir);
    ASSERT_NE(forwarded.find("\"id\":\"c2\""), std::string::npos);
    const std::string heir_response =
        "{\"id\":\"c2\",\"status\":\"ok\",\"fake\":true}";
    ASSERT_TRUE(heir.sendLine(heir_response));
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_EQ(response.get(), heir_response);
    EXPECT_EQ(router.stats().failovers, 1u);
}

TEST(RouterShip, StatsCarryEachBackendStatsObjectByteForByte)
{
    const std::string path = socketPath("stats");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::Router router(oneBackendTopology(path, /*sync_ship=*/false),
                         "/nonexistent/router.sock");
    ASSERT_TRUE(router.start());
    ASSERT_TRUE(backend.acceptOne());

    // handleClientLine answers stats on the calling thread once every
    // backend has replied, so the client runs on its own thread.
    std::future<std::string> response =
        std::async(std::launch::async, [&router] {
            std::string answer;
            router.handleClientLine(
                "{\"id\":\"s1\",\"op\":\"stats\"}",
                [&answer](const std::string &line) { answer = line; });
            return answer;
        });
    std::string forwarded;
    do {
        forwarded = backend.readLine();
    } while (!forwarded.empty() &&
             forwarded.find("\"op\":\"stats\"") == std::string::npos);
    ASSERT_NE(forwarded.find("\"id\":\"s1\""), std::string::npos);

    // Number lexemes a parse-and-re-render would respell (trailing
    // zeros, fixed digits) must come back exactly as sent.
    const std::string stats =
        "{\"requestsCompleted\":7,\"checksCompleted\":3,"
        "\"unitsExecuted\":12,\"unitsReused\":4,"
        "\"dedupHitRate\":0.2500,\"uptimeSeconds\":10.000,"
        "\"requestsPerSec\":0.70,\"storeKeys\":18,"
        "\"storeBytes\":4096,\"framesAppended\":19}";
    ASSERT_TRUE(backend.sendLine("{\"id\":\"s1\",\"status\":\"ok\","
                                 "\"stats\":" +
                                 stats + "}"));
    ASSERT_EQ(response.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    const std::string text = response.get();
    const auto parsed = icheck::service::parseJson(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const icheck::service::JsonValue *fleet_object = parsed->find("fleet");
    ASSERT_NE(fleet_object, nullptr);
    const icheck::service::JsonValue *rows =
        fleet_object->find("perBackend");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), 1u);
    const icheck::service::JsonValue *row_stats =
        rows->items[0].find("stats");
    ASSERT_NE(row_stats, nullptr);
    EXPECT_EQ(row_stats->members.size(), 10u);
    EXPECT_NE(text.find(",\"stats\":" + stats + "}"), std::string::npos)
        << text;
    EXPECT_EQ(*fleet_object->find("aggregate")
                   ->find("unitsExecuted")
                   ->asU64(),
              12u);
}

TEST(RouterShip, FailedStartClosesTheBackendsThatDidConnect)
{
    const std::string path = socketPath("leak");
    FakeBackend backend(path);
    ASSERT_TRUE(backend.listen());

    fleet::FleetTopology topology =
        oneBackendTopology(path, /*sync_ship=*/false);
    topology.backends.push_back(
        fleet::BackendAddress{"b1", "/nonexistent/b1.sock"});

    const std::size_t fds_before = countOpenFds();
    fleet::Router router(std::move(topology),
                         "/nonexistent/router.sock");
    EXPECT_FALSE(router.start());
    // b0's connected socket must not outlive the failed start: stop()
    // never runs on this path (started stays false).
    EXPECT_EQ(countOpenFds(), fds_before);
}
