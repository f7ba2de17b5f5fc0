/**
 * @file
 * Correctness driver for the `icheck serve` daemon and the `icheck
 * route` fleet: replay a fixed mix of check requests from concurrent
 * clients and fail unless every response is ok and embeds report bytes
 * identical to the one-shot campaign path.
 *
 * Usage: loadgen [--connect SOCKET | --spawn ICHECK_BIN [--kill-one]]
 *                [--store FILE]
 *
 * Targets:
 *   (default)   an in-process Service, called directly;
 *   --connect   a daemon or router already listening on a Unix socket;
 *   --spawn     a fresh `ICHECK_BIN serve` (with --store FILE if given),
 *               drained and reaped at the end;
 *   --kill-one  with --spawn: 3 `serve` backends behind one
 *               `route --ship sync` router instead. The busiest backend
 *               is SIGKILLed halfway through the burst, without pausing
 *               the other client, and the router must also have failed
 *               over and reinstalled the dead backend's replicated
 *               frames.
 *
 * The mix is 18 requests from 2 clients cycling apps radix,fft,lu x
 * seeds 1000,1001 at 6 runs of the dev input, so requests 6..17 repeat
 * the first six configurations. Daemons run at their defaults (`--jobs
 * 0 --dispatchers 2`).
 *
 * Output is one line: requests answered ok, configurations verified,
 * and the target's own unitsExecuted (`stats.unitsExecuted`, or
 * `fleet.aggregate.unitsExecuted` behind a router) — 36 for a fresh
 * target, 0 for a spawned daemon resuming from a complete --store.
 * Exit codes: 0 every check held, 1 a check failed, 2 usage, 3 set-up
 * failed. Timing belongs to `python3 perfbench/run.py --workload
 * serve|fleet`.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "support/json_writer.hpp"

using namespace icheck;

namespace
{

constexpr int kRequests = 18;
constexpr int kClients = 2;
constexpr int kRuns = 6;
constexpr int kSeeds = 2;
constexpr int kBackends = 3; ///< Fleet size under --kill-one.
const std::vector<std::string> kApps = {"radix", "fft", "lu"};
const std::size_t kCombos = kApps.size() * kSeeds;

/** One request of the mix. */
struct MixEntry
{
    std::string line;      ///< The JSONL request.
    std::string app;       ///< For the verify pass.
    std::uint64_t seed = 0;
    std::size_t combo = 0; ///< Index into the distinct app x seed set.
};

/** A synchronous request/response channel to the target. */
using Roundtrip = std::function<std::string(const std::string &line)>;

/** Request i repeats the configuration of request i % kCombos. */
std::vector<MixEntry>
buildMix()
{
    std::vector<MixEntry> mix;
    for (int i = 0; i < kRequests; ++i) {
        MixEntry entry;
        entry.combo = static_cast<std::size_t>(i) % kCombos;
        entry.app = kApps[entry.combo % kApps.size()];
        entry.seed = 1000 + entry.combo / kApps.size();
        entry.line = JsonWriter()
                         .beginObject()
                         .key("id").string("lg-" + std::to_string(i))
                         .key("op").string("check")
                         .key("app").string(entry.app)
                         .key("runs").int64(kRuns)
                         .key("seed").uint64(entry.seed)
                         .key("input").string("dev")
                         .endObject().take();
        mix.push_back(std::move(entry));
    }
    return mix;
}

/** A request line that carries only an id and an op. */
std::string
bareRequest(const char *id, const char *op)
{
    return JsonWriter()
        .beginObject()
        .key("id").string(id)
        .key("op").string(op)
        .endObject().take();
}

/** True when @p response carries "status":"ok". */
bool
statusOk(const service::JsonValue &response)
{
    const service::JsonValue *status = response.find("status");
    return status != nullptr && status->text == "ok";
}

/** Connect to a Unix stream socket; -1 on failure. */
int
connectSocket(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Write @p line + '\n', then read one '\n'-terminated response. */
std::string
socketRoundtrip(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
        // MSG_NOSIGNAL: a daemon/router we deliberately SIGKILL must
        // surface as EPIPE here, not SIGPIPE the load generator.
        const ssize_t n = ::send(fd, framed.data() + written,
                                 framed.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return {};
        }
        written += static_cast<std::size_t>(n);
    }
    std::string response;
    char byte = 0;
    while (true) {
        const ssize_t n = ::read(fd, &byte, 1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return {};
        }
        if (n == 0 || byte == '\n')
            return response;
        response.push_back(byte);
    }
}

/** One-off request/response on a fresh connection to @p socket. */
std::string
oneShotRequest(const std::string &socket, const std::string &line)
{
    const int fd = connectSocket(socket);
    if (fd < 0)
        return {};
    std::string response = socketRoundtrip(fd, line);
    ::close(fd);
    return response;
}

/**
 * Run the campaign of @p entry through the one-shot path and return the
 * canonical report line — the bytes the target must have embedded.
 */
std::string
oneShotReport(const MixEntry &entry)
{
    const apps::AppInfo *app = apps::tryFindApp(entry.app);
    if (app == nullptr)
        return {};
    check::DriverConfig cfg;
    cfg.runs = kRuns;
    cfg.baseSchedSeed = entry.seed;
    cfg.ignores = app->ignores;
    runtime::CampaignOptions options;
    options.jobs = 1;
    const check::DriverReport report = runtime::runCampaign(
        cfg, apps::scaledFactory(app->name, apps::InputScale::Dev),
        options);
    return check::renderReportJson(report);
}

/**
 * Extract the embedded "report":{...} object from an ok response. It is
 * sliced from the raw bytes rather than parsed: the check is byte
 * identity, which a parse and re-render could not see.
 */
std::string
embeddedReport(const std::string &response)
{
    const std::string needle = "\"report\":";
    const std::size_t pos = response.find(needle);
    if (pos == std::string::npos || response.empty() ||
        response.back() != '}')
        return {};
    // The report is the final member, so it ends one byte before the
    // response's closing brace.
    return response.substr(pos + needle.size(),
                           response.size() - 1 - (pos + needle.size()));
}

/** The number at @p path in @p root; 0 when absent. */
std::uint64_t
jsonPathU64(const service::JsonValue &root,
            const std::vector<std::string> &path)
{
    const service::JsonValue *node = &root;
    for (const std::string &key : path) {
        node = node->find(key);
        if (node == nullptr)
            return 0;
    }
    return node->asU64().value_or(0);
}

/** Fork-exec @p args (argv[0] is the binary); -1 on fork failure. */
pid_t
spawnProcess(const std::vector<std::string> &args)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::vector<std::string> copy = args;
    std::vector<char *> exec_argv;
    for (std::string &arg : copy)
        exec_argv.push_back(arg.data());
    exec_argv.push_back(nullptr);
    ::execv(copy[0].c_str(), exec_argv.data());
    std::fprintf(stderr, "cannot exec %s\n", copy[0].c_str());
    std::_Exit(3);
}

/** Poll-connect until @p path accepts (about five seconds). */
bool
awaitSocket(const std::string &path)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        const int fd = connectSocket(path);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

/** The system under test and what loadgen started for it. */
struct Target
{
    std::unique_ptr<service::Service> local; ///< In-process, else socket.
    std::string socket;                      ///< Daemon or router socket.
    /** Spawned processes; in a fleet, backend b is pids[b]. */
    std::vector<pid_t> pids;
    std::vector<std::string> sockets; ///< Created by spawned processes.
};

/** Spawn @p args, which listen on @p socket, and wait until it accepts. */
bool
launch(Target &target, const std::vector<std::string> &args,
       const std::string &socket)
{
    const pid_t pid = spawnProcess(args);
    if (pid < 0)
        return false;
    target.pids.push_back(pid);
    target.sockets.push_back(socket);
    if (awaitSocket(socket))
        return true;
    std::fprintf(stderr, "%s %s never came up\n", args[0].c_str(),
                 args[1].c_str());
    return false;
}

/**
 * Reap every spawned process and unlink its socket. With @p abandon
 * (set-up failed) everything is SIGKILLed first; otherwise the target
 * was drained, and any process outside @p killed must exit 0.
 */
bool
reap(const Target &target, bool abandon, const std::vector<pid_t> &killed)
{
    if (abandon)
        for (const pid_t pid : target.pids)
            ::kill(pid, SIGKILL);
    bool clean = true;
    for (const pid_t pid : target.pids) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        const bool expected =
            abandon || std::find(killed.begin(), killed.end(), pid) !=
                           killed.end();
        if (!expected && (!WIFEXITED(status) || WEXITSTATUS(status) != 0))
            clean = false;
    }
    for (const std::string &socket : target.sockets)
        ::unlink(socket.c_str());
    if (!clean)
        std::fprintf(stderr, "a spawned process exited abnormally\n");
    return clean;
}

/** Bring up kBackends `serve` backends behind a sync-ship router. */
bool
spawnFleet(Target &target, const std::string &bin)
{
    const std::string prefix = "loadgen-" + std::to_string(::getpid());
    target.socket = prefix + "-router.sock";
    std::vector<std::string> route_args = {
        bin, "route", "--socket", target.socket, "--ship", "sync"};
    for (int b = 0; b < kBackends; ++b) {
        const std::string name = "b" + std::to_string(b);
        const std::string socket = prefix + "-" + name + ".sock";
        if (!launch(target, {bin, "serve", "--socket", socket}, socket))
            return false;
        route_args.push_back("--backend");
        route_args.push_back(name + "=" + socket);
    }
    return launch(target, route_args, target.socket);
}

/**
 * SIGKILL the fleet's busiest live backend — the one guaranteed to hold
 * completed, replicated units, so failover has real work to resume —
 * and reap it, so its sockets are closed before the next request goes
 * out. Nothing waits for the router's failover: checks sent from here
 * on may reach the router before it has taken the dead owner off its
 * ring.
 */
pid_t
killBusiestBackend(const Target &target)
{
    std::size_t victim = 0;
    std::uint64_t busiest = 0;
    const service::JsonValue before =
        service::parseJson(
            oneShotRequest(target.socket, bareRequest("lg-kill", "stats")))
            .value_or(service::JsonValue{});
    const service::JsonValue *fleet = before.find("fleet");
    const service::JsonValue *rows =
        fleet != nullptr ? fleet->find("perBackend") : nullptr;
    for (std::size_t i = 0; rows != nullptr && i < rows->items.size();
         ++i) {
        const service::JsonValue *alive = rows->items[i].find("alive");
        const std::uint64_t checks =
            jsonPathU64(rows->items[i], {"stats", "checksCompleted"});
        if (alive != nullptr && alive->boolean && checks > busiest) {
            busiest = checks;
            victim = i;
        }
    }
    const pid_t pid = target.pids[victim];
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return pid;
}

/**
 * Replay @p mix through @p channels from one worker thread per channel
 * and return the responses in mix order. The burst runs in two waves:
 * each configuration's first request, then every repeat. No repeat can
 * overlap the request that executes its configuration, so a fresh
 * target executes each (app, seed, run) unit exactly once. @p on_half
 * (if set) fires once, on the worker that claims the burst's middle
 * request and before it sends it; the other clients keep sending.
 */
std::vector<std::string>
runBurst(const std::vector<MixEntry> &mix,
         const std::vector<Roundtrip> &channels,
         const std::function<void()> &on_half)
{
    std::vector<std::string> responses(mix.size());
    std::size_t begin = 0;
    for (const std::size_t end : {kCombos, mix.size()}) {
        std::atomic<std::size_t> next{begin};
        std::vector<std::thread> workers;
        for (const Roundtrip &channel : channels) {
            workers.emplace_back([&] {
                while (true) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= end)
                        return;
                    if (i == mix.size() / 2 && on_half)
                        on_half();
                    responses[i] = channel(mix[i].line);
                }
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        begin = end;
    }
    return responses;
}

/**
 * Compare every response's embedded report with the one-shot campaign
 * path's bytes for its configuration; returns how many configurations
 * matched on all of their responses.
 */
std::size_t
verifyReports(const std::vector<MixEntry> &mix,
              const std::vector<std::string> &responses)
{
    // mix[c] is configuration c's first request.
    std::vector<std::string> expected;
    for (std::size_t c = 0; c < kCombos; ++c)
        expected.push_back(oneShotReport(mix[c]));
    std::vector<bool> mismatched(kCombos);
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const std::string &want = expected[mix[i].combo];
        const std::string got = embeddedReport(responses[i]);
        if (!want.empty() && got == want)
            continue;
        mismatched[mix[i].combo] = true;
        std::fprintf(stderr,
                     "report mismatch for request %zu (%s seed %llu)\n"
                     "  one-shot report: %s\n  response: %s\n",
                     i, mix[i].app.c_str(),
                     static_cast<unsigned long long>(mix[i].seed),
                     want.c_str(), responses[i].c_str());
    }
    return static_cast<std::size_t>(
        std::count(mismatched.begin(), mismatched.end(), false));
}

int
usage(const char *problem)
{
    std::fprintf(stderr,
                 "loadgen: %s\n"
                 "usage: loadgen [--connect SOCKET | --spawn ICHECK_BIN "
                 "[--kill-one]] [--store FILE]\n",
                 problem);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string connect_path;
    std::string spawn_bin;
    std::string store_path;
    bool kill_one = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--kill-one") {
            kill_one = true;
        } else if (arg == "--connect" && has_value) {
            connect_path = argv[++i];
        } else if (arg == "--spawn" && has_value) {
            spawn_bin = argv[++i];
        } else if (arg == "--store" && has_value) {
            store_path = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!connect_path.empty() && !spawn_bin.empty())
        return usage("--connect and --spawn are mutually exclusive");
    if (!connect_path.empty() && !store_path.empty())
        return usage("--store needs the in-process target or --spawn");
    if (kill_one && (spawn_bin.empty() || !store_path.empty()))
        return usage("--kill-one needs --spawn and takes no --store");

    // --- Set up the target. -------------------------------------------
    Target target;
    if (kill_one) {
        if (!spawnFleet(target, spawn_bin)) {
            reap(target, true, {});
            return 3;
        }
    } else if (!spawn_bin.empty()) {
        target.socket = "loadgen-" + std::to_string(::getpid()) + ".sock";
        std::vector<std::string> args = {spawn_bin, "serve", "--socket",
                                         target.socket};
        if (!store_path.empty()) {
            args.push_back("--store");
            args.push_back(store_path);
        }
        if (!launch(target, args, target.socket)) {
            reap(target, true, {});
            return 3;
        }
    } else if (!connect_path.empty()) {
        target.socket = connect_path;
    } else {
        service::ServiceConfig cfg;
        cfg.storePath = store_path;
        target.local = std::make_unique<service::Service>(cfg);
    }

    // In-process clients call the service; socket clients each own one
    // connection.
    std::vector<int> fds;
    std::vector<Roundtrip> channels;
    for (int c = 0; c < kClients; ++c) {
        if (target.local != nullptr) {
            channels.emplace_back([&target](const std::string &line) {
                return target.local->handleLine(line);
            });
            continue;
        }
        const int fd = connectSocket(target.socket);
        if (fd < 0) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         target.socket.c_str());
            for (const int open_fd : fds)
                ::close(open_fd);
            reap(target, true, {});
            return 3;
        }
        fds.push_back(fd);
        channels.emplace_back([fd](const std::string &line) {
            return socketRoundtrip(fd, line);
        });
    }

    // --- Burst, stats, verify. ----------------------------------------
    const std::vector<MixEntry> mix = buildMix();
    std::vector<pid_t> killed;
    std::function<void()> kill_hook;
    if (kill_one)
        kill_hook = [&] { killed.push_back(killBusiestBackend(target)); };
    const std::vector<std::string> responses =
        runBurst(mix, channels, kill_hook);
    const auto answered_ok = static_cast<std::size_t>(std::count_if(
        responses.begin(), responses.end(), [](const std::string &r) {
            return statusOk(
                service::parseJson(r).value_or(service::JsonValue{}));
        }));
    bool ok = answered_ok == mix.size();

    // A reply that does not parse reads as null: every count below is 0.
    const service::JsonValue stats =
        service::parseJson(
            channels[0](bareRequest("lg-stats", "stats")))
            .value_or(service::JsonValue{});
    const bool routed = stats.find("fleet") != nullptr;
    const std::uint64_t units_executed =
        routed ? jsonPathU64(stats, {"fleet", "aggregate", "unitsExecuted"})
               : jsonPathU64(stats, {"stats", "unitsExecuted"});
    if (!statusOk(stats)) {
        std::fprintf(stderr, "the target's stats request failed\n");
        ok = false;
    }

    const std::size_t verified = verifyReports(mix, responses);
    ok = ok && verified == kCombos;

    std::string kill_summary;
    if (kill_one) {
        const std::uint64_t failovers =
            jsonPathU64(stats, {"fleet", "router", "failovers"});
        const std::uint64_t reinstalled =
            jsonPathU64(stats, {"fleet", "router", "framesReinstalled"});
        if (failovers < 1 || reinstalled < 1) {
            std::fprintf(stderr, "kill-one: expected a failover with "
                                 "reinstalled frames\n");
            ok = false;
        }
        kill_summary = ", failovers " + std::to_string(failovers) +
                       ", framesReinstalled " + std::to_string(reinstalled);
    }

    // --- Drain and reap what loadgen spawned. -------------------------
    if (!target.pids.empty())
        channels[0](bareRequest("lg-drain", "drain"));
    for (const int fd : fds)
        ::close(fd);
    if (!reap(target, false, killed))
        ok = false;

    std::printf("%zu/%zu requests ok, %zu/%zu configurations verified, "
                "unitsExecuted %llu%s\n",
                answered_ok, mix.size(), verified, kCombos,
                static_cast<unsigned long long>(units_executed),
                kill_summary.c_str());
    return ok ? 0 : 1;
}
