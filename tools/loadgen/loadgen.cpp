/**
 * @file
 * Load generator for the `icheck serve` campaign daemon: replay a
 * deterministic mix of check requests across several apps and seeds,
 * measure sustained throughput and latency, and emit one
 * machine-readable result file (default BENCH_service.json).
 *
 * Usage: loadgen [out.json] [--quick]
 *                [--requests N] [--clients C] [--runs N]
 *                [--apps a,b,c] [--seeds K] [--input dev|medium|large]
 *                [--jobs N] [--dispatchers N] [--store FILE]
 *                [--connect SOCKET | --spawn ICHECK_BIN]
 *                [--fleet N] [--ship sync|async] [--kill-one]
 *                [--verify]
 *
 * Three transports:
 *   (default)   in-process — drive a Service directly from C client
 *               threads; the service-layer number, no transport noise;
 *   --connect   attach to a daemon already listening on a Unix socket;
 *   --spawn     fork `ICHECK_BIN serve --socket <tmp>`, run the traffic
 *               against it, drain it, and reap it.
 *
 * --fleet N (requires --spawn) benchmarks the scale-out path instead:
 * it measures a direct single backend, then sweeps router-fronted
 * fleets over backend counts {1,2,4} up to N, reporting aggregate
 * throughput/latency, the router's p50 overhead vs direct, and the
 * per-backend request balance, into BENCH_fleet.json. --kill-one
 * SIGKILLs one backend halfway through the headline burst and requires
 * every response to still arrive ok (the router's replica + failover
 * path). --ship picks the fleet's replication mode.
 *
 * The mix cycles apps x seeds, so once every combination has run, later
 * requests repeat earlier work and the daemon's seen-state set answers
 * from cache — the reported dedup hit rate measures exactly that.
 *
 * --verify re-runs every distinct request through the one-shot campaign
 * path in-process and fails (exit 1) unless the daemon's report bytes
 * are identical — the acceptance gate for the serve path.
 *
 * --quick shrinks the mix for CI smoke runs. Numbers are host-specific;
 * same-host comparisons across commits belong to
 * `python3 perfbench/run.py --workload serve|fleet`.
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
#include <optional>
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
#include "service/protocol.hpp"

using namespace icheck;

namespace
{

using Clock = std::chrono::steady_clock;

/** The metric keys, in emission order. */
const std::vector<std::string> kKeys = {
    "requestsPerSec",
    "p50LatencyMs",
    "p99LatencyMs",
    "dedupHitRate",
};

struct Metrics
{
    double values[4] = {};

    double &operator[](std::size_t i) { return values[i]; }
    double operator[](std::size_t i) const { return values[i]; }
};

/** One request of the generated mix. */
struct MixEntry
{
    std::string line;      ///< The JSONL request.
    std::string app;       ///< For the verify pass.
    std::uint64_t seed = 0;
    std::size_t combo = 0; ///< Index into the distinct app x seed set.
};

/** A synchronous request/response channel to the daemon under test. */
using Roundtrip = std::function<std::string(const std::string &line)>;

std::string
renderCheckLine(const std::string &id, const std::string &app, int runs,
                std::uint64_t seed, const std::string &input)
{
    return "{\"id\":\"" + id + "\",\"op\":\"check\",\"app\":\"" + app +
           "\",\"runs\":" + std::to_string(runs) +
           ",\"seed\":" + std::to_string(seed) + ",\"input\":\"" + input +
           "\"}";
}

/**
 * Build the request mix: requests cycle through apps x seeds, so entry
 * i >= apps*seeds repeats the work of entry i % (apps*seeds).
 */
std::vector<MixEntry>
buildMix(const std::vector<std::string> &apps, int requests, int runs,
         int seeds, const std::string &input)
{
    std::vector<MixEntry> mix;
    mix.reserve(static_cast<std::size_t>(requests));
    const std::size_t combos = apps.size() * static_cast<std::size_t>(seeds);
    for (int i = 0; i < requests; ++i) {
        const std::size_t combo = static_cast<std::size_t>(i) % combos;
        MixEntry entry;
        entry.app = apps[combo % apps.size()];
        entry.seed = 1000 + combo / apps.size();
        entry.combo = combo;
        entry.line = renderCheckLine("lg-" + std::to_string(i), entry.app,
                                     runs, entry.seed, input);
        mix.push_back(std::move(entry));
    }
    return mix;
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

apps::InputScale
scaleOf(const std::string &input)
{
    if (input == "dev")
        return apps::InputScale::Dev;
    if (input == "large")
        return apps::InputScale::Large;
    return apps::InputScale::Medium;
}

/**
 * Run the campaign of @p entry through the one-shot path and return the
 * canonical report line — the bytes the daemon must have embedded.
 */
std::string
oneShotReport(const MixEntry &entry, int runs, const std::string &input)
{
    const apps::AppInfo *app = apps::tryFindApp(entry.app);
    if (app == nullptr)
        return {};
    check::DriverConfig cfg;
    cfg.runs = runs;
    cfg.baseSchedSeed = entry.seed;
    cfg.ignores = app->ignores;
    runtime::CampaignOptions options;
    options.jobs = 1;
    const check::DriverReport report = runtime::runCampaign(
        cfg, apps::scaledFactory(app->name, scaleOf(input)), options);
    return check::renderReportJson(report);
}

/** Extract the embedded "report":{...} object from an ok response. */
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

void
emitBlock(std::FILE *out, const char *name, const Metrics &m)
{
    std::fprintf(out, "  \"%s\": {", name);
    for (std::size_t i = 0; i < kKeys.size(); ++i)
        std::fprintf(out, "%s\n    \"%s\": %.4f", i == 0 ? "" : ",",
                     kKeys[i].c_str(), m[i]);
    std::fprintf(out, "\n  }");
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            parts.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

double
percentile(std::vector<double> sorted, double fraction)
{
    if (sorted.empty())
        return 0.0;
    const auto index = static_cast<std::size_t>(
        fraction * static_cast<double>(sorted.size() - 1));
    return sorted[index];
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

/** One-off request/response against a Unix socket daemon. */
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

/** A spawned router-fronted fleet under test. */
struct Fleet
{
    std::vector<pid_t> backendPids;
    std::vector<std::string> backendSockets;
    pid_t routerPid = -1;
    std::string routerSocket;
};

void
killFleet(const Fleet &fleet)
{
    for (const pid_t pid : fleet.backendPids)
        if (pid > 0)
            ::kill(pid, SIGKILL);
    if (fleet.routerPid > 0)
        ::kill(fleet.routerPid, SIGKILL);
    for (const pid_t pid : fleet.backendPids) {
        int status = 0;
        if (pid > 0)
            ::waitpid(pid, &status, 0);
    }
    if (fleet.routerPid > 0) {
        int status = 0;
        ::waitpid(fleet.routerPid, &status, 0);
    }
    for (const std::string &socket : fleet.backendSockets)
        ::unlink(socket.c_str());
    ::unlink(fleet.routerSocket.c_str());
}

std::optional<Fleet>
spawnFleet(const std::string &bin, int backends, int jobs,
           int dispatchers, const std::string &ship, const char *tag)
{
    Fleet fleet;
    const std::string prefix =
        "loadgen-" + std::to_string(::getpid()) + "-" + tag;
    fleet.routerSocket = prefix + "-router.sock";
    std::vector<std::string> route_args = {
        bin, "route", "--socket", fleet.routerSocket, "--ship", ship};
    for (int b = 0; b < backends; ++b) {
        const std::string socket =
            prefix + "-b" + std::to_string(b) + ".sock";
        const pid_t pid = spawnProcess(
            {bin, "serve", "--socket", socket, "--jobs",
             std::to_string(jobs), "--dispatchers",
             std::to_string(dispatchers)});
        if (pid < 0) {
            killFleet(fleet);
            return std::nullopt;
        }
        fleet.backendPids.push_back(pid);
        fleet.backendSockets.push_back(socket);
        route_args.push_back("--backend");
        route_args.push_back("b" + std::to_string(b) + "=" + socket);
    }
    for (const std::string &socket : fleet.backendSockets) {
        if (!awaitSocket(socket)) {
            std::fprintf(stderr, "fleet backend never came up\n");
            killFleet(fleet);
            return std::nullopt;
        }
    }
    fleet.routerPid = spawnProcess(route_args);
    if (fleet.routerPid < 0 || !awaitSocket(fleet.routerSocket)) {
        std::fprintf(stderr, "fleet router never came up\n");
        killFleet(fleet);
        return std::nullopt;
    }
    return fleet;
}

/**
 * Drain the fleet through the router (which ships every backend's log
 * tail first) and reap all processes. Pids in @p killed_pids were
 * SIGKILLed deliberately and may exit abnormally.
 */
bool
drainFleet(const Fleet &fleet, const std::vector<pid_t> &killed_pids)
{
    oneShotRequest(fleet.routerSocket,
                   "{\"id\":\"lg-drain\",\"op\":\"drain\"}");
    bool clean = true;
    const auto reap = [&](pid_t pid) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        const bool was_killed =
            std::find(killed_pids.begin(), killed_pids.end(), pid) !=
            killed_pids.end();
        if (!was_killed &&
            (!WIFEXITED(status) || WEXITSTATUS(status) != 0))
            clean = false;
    };
    reap(fleet.routerPid);
    for (const pid_t pid : fleet.backendPids)
        reap(pid);
    for (const std::string &socket : fleet.backendSockets)
        ::unlink(socket.c_str());
    ::unlink(fleet.routerSocket.c_str());
    if (!clean)
        std::fprintf(stderr, "fleet member exited abnormally\n");
    return clean;
}

struct BurstResult
{
    double wall = 0.0;
    std::vector<double> latencies; ///< Sorted, all clients merged.
    std::vector<std::string> responses;
    int failures = 0;
};

/**
 * Replay @p mix through @p channels from one worker thread per
 * channel. @p on_half (if set) fires exactly once, as the burst
 * passes its halfway point — the kill-one hook.
 */
BurstResult
runBurst(const std::vector<MixEntry> &mix,
         std::vector<Roundtrip> &channels,
         const std::function<void()> &on_half = {})
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> half_fired{false};
    std::vector<std::vector<double>> latencies(channels.size());
    BurstResult result;
    result.responses.resize(mix.size());
    std::atomic<int> failures{0};

    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < channels.size(); ++c) {
        workers.emplace_back([&, c] {
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= mix.size())
                    return;
                if (on_half && i >= mix.size() / 2 &&
                    !half_fired.exchange(true))
                    on_half();
                const auto sent = Clock::now();
                std::string response = channels[c](mix[i].line);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - sent)
                        .count();
                latencies[c].push_back(ms);
                if (response.find("\"status\":\"ok\"") ==
                    std::string::npos)
                    failures.fetch_add(1, std::memory_order_relaxed);
                result.responses[i] = std::move(response);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    result.wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.failures = failures.load();
    for (const auto &client_latencies : latencies)
        result.latencies.insert(result.latencies.end(),
                                client_latencies.begin(),
                                client_latencies.end());
    std::sort(result.latencies.begin(), result.latencies.end());
    return result;
}

Metrics
burstMetrics(const BurstResult &burst, double dedup_rate)
{
    Metrics m;
    m[0] = burst.wall > 0.0
               ? static_cast<double>(burst.responses.size()) / burst.wall
               : 0.0;
    m[1] = percentile(burst.latencies, 0.50);
    m[2] = percentile(burst.latencies, 0.99);
    m[3] = dedup_rate;
    return m;
}

/**
 * Interleaved fresh-check latency probe: fifteen never-seen
 * configurations asked one at a time, each put to the direct daemon
 * and to the single-backend fleet back-to-back (alternating which
 * side goes first), after both have finished their bursts. The
 * checks are uncontended and execution-dominated (runs is fixed at
 * 12 so each carries tens of milliseconds of real work), and because
 * a config's two measurements land microseconds apart they see the
 * same machine conditions — so the per-config router/direct ratio
 * isolates the forwarding hop, and its median cancels per-config
 * work and lone noise spikes. Two separate probe windows do not
 * work on this host: background load drifts by milliseconds between
 * them, which swamps the hop. The mixed-burst p50 is no better —
 * it sits on sub-millisecond cache hits, where scheduler jitter on
 * one contended core dominates.
 */
void
interleavedFreshProbe(const std::vector<std::string> &apps,
                      const std::string &input, Roundtrip &direct_ch,
                      Roundtrip &router_ch,
                      std::vector<double> &direct_lat,
                      std::vector<double> &router_lat)
{
    constexpr int kProbeRuns = 12;
    const auto timeOne = [&input](Roundtrip &channel, const char *side,
                                  int i, const std::string &app,
                                  std::uint64_t seed) {
        const std::string line = renderCheckLine(
            std::string("probe-") + side + "-" + std::to_string(i), app,
            kProbeRuns, seed, input);
        const auto sent = Clock::now();
        channel(line);
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         sent)
            .count();
    };
    int i = 0;
    // Seeds 9000+ never collide with the mix (seeds start at 1000).
    for (std::uint64_t seed = 9000; seed < 9005; ++seed)
        for (const std::string &app : apps) {
            if (i % 2 == 0) {
                direct_lat.push_back(
                    timeOne(direct_ch, "d", i, app, seed));
                router_lat.push_back(
                    timeOne(router_ch, "r", i, app, seed));
            } else {
                router_lat.push_back(
                    timeOne(router_ch, "r", i, app, seed));
                direct_lat.push_back(
                    timeOne(direct_ch, "d", i, app, seed));
            }
            ++i;
        }
}

/** Median of paired router/direct latency ratios; 0 when unmeasured. */
double
pairedOverhead(const std::vector<double> &router,
               const std::vector<double> &direct)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < router.size() && i < direct.size(); ++i)
        if (direct[i] > 0.0)
            ratios.push_back(router[i] / direct[i]);
    std::sort(ratios.begin(), ratios.end());
    return percentile(ratios, 0.50);
}

/** Per-client socket channels to @p socket; empty on connect failure. */
std::vector<Roundtrip>
socketChannels(const std::string &socket, int clients,
               std::vector<int> &fds)
{
    std::vector<Roundtrip> channels;
    for (int c = 0; c < clients; ++c) {
        const int fd = connectSocket(socket);
        if (fd < 0) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         socket.c_str());
            return {};
        }
        fds.push_back(fd);
        channels.emplace_back([fd](const std::string &line) {
            return socketRoundtrip(fd, line);
        });
    }
    return channels;
}

double
jsonPathDouble(const service::JsonValue &root,
               const std::vector<std::string> &path)
{
    const service::JsonValue *node = &root;
    for (const std::string &key : path) {
        node = node->find(key);
        if (node == nullptr)
            return 0.0;
    }
    return node->asDouble();
}

/** All the knobs of one `--fleet N` benchmark run. */
struct FleetBenchConfig
{
    std::string outPath;
    std::string appsCsv;
    std::string input;
    std::string spawnBin;
    std::string ship;
    int backends = 0;
    int requests = 0;
    int clients = 0;
    int runs = 0;
    int seeds = 0;
    int jobs = 0;
    int dispatchers = 0;
    bool quick = false;
    bool verify = false;
    bool killOne = false;
};

/** One sweep point: the burst metrics at a given backend count. */
struct SweepPoint
{
    int backends = 0;
    Metrics metrics;
};

/**
 * The scale-out benchmark: measure a direct single backend, then
 * router-fronted fleets at backend counts {1,2,4} up to N (the
 * N-backend run is the headline). Emits BENCH_fleet.json.
 */
int
runFleetBench(const FleetBenchConfig &cfg)
{
    const std::vector<std::string> app_names = splitCsv(cfg.appsCsv);
    const std::vector<MixEntry> mix = buildMix(
        app_names, cfg.requests, cfg.runs, cfg.seeds, cfg.input);
    bool ok = true;

    // --- Direct phase: one backend, no router in the path. -----------
    const std::string direct_socket =
        "loadgen-" + std::to_string(::getpid()) + "-direct.sock";
    const pid_t direct_pid = spawnProcess(
        {cfg.spawnBin, "serve", "--socket", direct_socket, "--jobs",
         std::to_string(cfg.jobs), "--dispatchers",
         std::to_string(cfg.dispatchers)});
    if (direct_pid < 0 || !awaitSocket(direct_socket)) {
        std::fprintf(stderr, "direct daemon never came up\n");
        return 3;
    }
    Metrics direct;
    std::vector<double> direct_fresh;
    std::vector<double> router_fresh;
    // The direct daemon stays up (idle) until the single-backend fleet
    // has run its burst, so the overhead probe can interleave the two
    // sides inside one time window; shut down after the probe.
    std::vector<int> direct_fds;
    std::vector<Roundtrip> direct_channels =
        socketChannels(direct_socket, cfg.clients, direct_fds);
    if (direct_channels.empty())
        return 3;
    bool direct_up = true;
    const auto shutdownDirect = [&] {
        if (!direct_up)
            return;
        direct_up = false;
        direct_channels[0]("{\"id\":\"lg-drain\",\"op\":\"drain\"}");
        for (const int fd : direct_fds)
            ::close(fd);
        int status = 0;
        ::waitpid(direct_pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "direct daemon exited abnormally\n");
            ok = false;
        }
        ::unlink(direct_socket.c_str());
    };
    {
        const BurstResult burst = runBurst(mix, direct_channels);
        if (burst.failures != 0) {
            std::fprintf(stderr, "direct: %d request(s) not ok\n",
                         burst.failures);
            ok = false;
        }
        double dedup = 0.0;
        if (const auto parsed = service::parseJson(direct_channels[0](
                "{\"id\":\"lg-stats\",\"op\":\"stats\"}")))
            dedup = jsonPathDouble(*parsed, {"stats", "dedupHitRate"});
        direct = burstMetrics(burst, dedup);
    }

    // --- Fleet sweep. ------------------------------------------------
    std::vector<int> counts;
    for (const int b : {1, 2, 4})
        if (b <= cfg.backends)
            counts.push_back(b);
    if (std::find(counts.begin(), counts.end(), cfg.backends) ==
        counts.end())
        counts.push_back(cfg.backends);

    std::vector<SweepPoint> sweep;
    Metrics headline;
    std::vector<std::string> headline_responses;
    std::string headline_stats;
    double router_p50_one = 0.0;
    std::uint64_t kill_failovers = 0;
    std::uint64_t kill_reinstalled = 0;
    bool kill_all_ok = true;

    for (const int count : counts) {
        const std::string tag = "f" + std::to_string(count);
        const std::optional<Fleet> fleet =
            spawnFleet(cfg.spawnBin, count, cfg.jobs, cfg.dispatchers,
                       cfg.ship, tag.c_str());
        if (!fleet.has_value()) {
            shutdownDirect();
            return 3;
        }
        std::vector<int> fds;
        std::vector<Roundtrip> channels =
            socketChannels(fleet->routerSocket, cfg.clients, fds);
        if (channels.empty()) {
            killFleet(*fleet);
            shutdownDirect();
            return 3;
        }

        const bool is_headline = count == cfg.backends;
        std::vector<pid_t> killed;
        std::function<void()> on_half;
        if (is_headline && cfg.killOne) {
            // SIGKILL the busiest backend at the burst's halfway point
            // — the backend guaranteed to hold completed, replicated
            // units, so failover has real work to resume.
            on_half = [&fleet, &killed] {
                std::size_t victim = 0;
                double busiest = -1.0;
                const auto parsed = service::parseJson(oneShotRequest(
                    fleet->routerSocket,
                    "{\"id\":\"lg-prekill\",\"op\":\"stats\"}"));
                const service::JsonValue *per =
                    parsed.has_value() && parsed->find("fleet")
                        ? parsed->find("fleet")->find("perBackend")
                        : nullptr;
                if (per != nullptr) {
                    for (std::size_t i = 0; i < per->items.size(); ++i) {
                        const service::JsonValue *alive =
                            per->items[i].find("alive");
                        const double checks = jsonPathDouble(
                            per->items[i], {"stats", "checksCompleted"});
                        if (alive != nullptr && alive->boolean &&
                            checks > busiest) {
                            busiest = checks;
                            victim = i;
                        }
                    }
                }
                killed.push_back(fleet->backendPids[victim]);
                ::kill(fleet->backendPids[victim], SIGKILL);
            };
        }

        const BurstResult burst = runBurst(mix, channels, on_half);
        if (burst.failures != 0) {
            std::fprintf(stderr, "fleet %d: %d request(s) not ok\n",
                         count, burst.failures);
            ok = false;
            if (is_headline)
                kill_all_ok = false;
        }

        const std::string stats_line = oneShotRequest(
            fleet->routerSocket, "{\"id\":\"lg-stats\",\"op\":\"stats\"}");
        double dedup = 0.0;
        if (const auto parsed = service::parseJson(stats_line)) {
            dedup = jsonPathDouble(
                *parsed, {"fleet", "aggregate", "dedupHitRate"});
            if (is_headline && !killed.empty()) {
                kill_failovers = static_cast<std::uint64_t>(
                    jsonPathDouble(*parsed,
                                   {"fleet", "router", "failovers"}));
                kill_reinstalled = static_cast<std::uint64_t>(
                    jsonPathDouble(
                        *parsed,
                        {"fleet", "router", "framesReinstalled"}));
            }
        }
        const Metrics metrics = burstMetrics(burst, dedup);
        sweep.push_back(SweepPoint{count, metrics});
        if (count == 1) {
            router_p50_one = metrics[1];
            interleavedFreshProbe(app_names, cfg.input,
                                  direct_channels[0], channels[0],
                                  direct_fresh, router_fresh);
            shutdownDirect();
        }
        if (is_headline) {
            headline = metrics;
            headline_responses = burst.responses;
            headline_stats = stats_line;
        }

        for (const int fd : fds)
            ::close(fd);
        if (!drainFleet(*fleet, killed))
            ok = false;
    }
    shutdownDirect();

    if (cfg.killOne) {
        if (kill_failovers < 1 || kill_reinstalled < 1) {
            std::fprintf(stderr,
                         "kill-one: expected a failover with reinstalled "
                         "frames (failovers=%llu reinstalled=%llu)\n",
                         static_cast<unsigned long long>(kill_failovers),
                         static_cast<unsigned long long>(
                             kill_reinstalled));
            kill_all_ok = false;
        }
        if (!kill_all_ok)
            ok = false;
    }

    // --- Verify: router bytes vs the one-shot campaign path. ---------
    bool verified = true;
    if (cfg.verify) {
        std::vector<bool> checked(app_names.size() *
                                  static_cast<std::size_t>(cfg.seeds));
        for (std::size_t i = 0; i < mix.size(); ++i) {
            if (checked[mix[i].combo])
                continue;
            checked[mix[i].combo] = true;
            const std::string expected =
                oneShotReport(mix[i], cfg.runs, cfg.input);
            const std::string got =
                embeddedReport(headline_responses[i]);
            if (expected.empty() || got != expected) {
                std::fprintf(
                    stderr,
                    "fleet report mismatch for %s seed %llu\n"
                    "  one-shot: %s\n  router:   %s\n",
                    mix[i].app.c_str(),
                    static_cast<unsigned long long>(mix[i].seed),
                    expected.c_str(), got.c_str());
                verified = false;
            }
        }
        if (!verified)
            ok = false;
    }

    // --- Per-backend balance from the headline fleet stats. ----------
    std::string balance_json = "[]";
    if (const auto parsed = service::parseJson(headline_stats)) {
        const service::JsonValue *per =
            parsed->find("fleet") != nullptr
                ? parsed->find("fleet")->find("perBackend")
                : nullptr;
        if (per != nullptr) {
            balance_json = "[";
            for (std::size_t i = 0; i < per->items.size(); ++i) {
                const service::JsonValue &row = per->items[i];
                const service::JsonValue *name = row.find("name");
                const service::JsonValue *alive = row.find("alive");
                balance_json += i == 0 ? "" : ",";
                balance_json +=
                    "{\"name\":\"" +
                    (name != nullptr ? name->text : std::string{}) +
                    "\",\"alive\":" +
                    (alive != nullptr && alive->boolean ? "true"
                                                        : "false") +
                    ",\"checksCompleted\":" +
                    std::to_string(static_cast<std::uint64_t>(
                        jsonPathDouble(row,
                                       {"stats", "checksCompleted"}))) +
                    ",\"replicaFrames\":" +
                    std::to_string(static_cast<std::uint64_t>(
                        jsonPathDouble(row, {"replicaFrames"}))) +
                    "}";
            }
            balance_json += "]";
        }
    }

    std::FILE *out = std::fopen(cfg.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", cfg.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"loadgen-fleet\",\n");
    std::fprintf(out, "  \"quick\": %s,\n", cfg.quick ? "true" : "false");
    std::fprintf(out, "  \"mode\": \"fleet\",\n");
    std::fprintf(out, "  \"backends\": %d,\n", cfg.backends);
    std::fprintf(out, "  \"ship\": \"%s\",\n", cfg.ship.c_str());
    std::fprintf(out, "  \"requests\": %d,\n", cfg.requests);
    std::fprintf(out, "  \"clients\": %d,\n", cfg.clients);
    std::fprintf(out, "  \"runsPerRequest\": %d,\n", cfg.runs);
    std::fprintf(out, "  \"apps\": \"%s\",\n", cfg.appsCsv.c_str());
    std::fprintf(out, "  \"seedsPerApp\": %d,\n", cfg.seeds);
    std::fprintf(out, "  \"input\": \"%s\",\n", cfg.input.c_str());
    std::fprintf(out, "  \"verified\": %s,\n",
                 cfg.verify ? (verified ? "true" : "false") : "null");
    if (cfg.killOne)
        std::fprintf(out,
                     "  \"killOne\": {\"failovers\": %llu, "
                     "\"framesReinstalled\": %llu, \"allOk\": %s},\n",
                     static_cast<unsigned long long>(kill_failovers),
                     static_cast<unsigned long long>(kill_reinstalled),
                     kill_all_ok ? "true" : "false");
    else
        std::fprintf(out, "  \"killOne\": null,\n");
    // The headline overhead is the median of per-config paired ratios
    // over executed checks (see freshProbeLatencies); the mixed-burst
    // ratio rides along for context but sits on cache-hit latencies
    // too small to measure stably on a contended single-core host.
    const double fresh_overhead = pairedOverhead(router_fresh,
                                                 direct_fresh);
    std::vector<double> direct_sorted = direct_fresh;
    std::sort(direct_sorted.begin(), direct_sorted.end());
    std::vector<double> router_sorted = router_fresh;
    std::sort(router_sorted.begin(), router_sorted.end());
    std::fprintf(out, "  \"routerOverheadP50\": %.4f,\n", fresh_overhead);
    std::fprintf(out, "  \"routerOverheadP50Mixed\": %.4f,\n",
                 direct[1] > 0.0 ? router_p50_one / direct[1] : 0.0);
    std::fprintf(out, "  \"directFreshCheckP50Ms\": %.4f,\n",
                 percentile(direct_sorted, 0.50));
    std::fprintf(out, "  \"routerFreshCheckP50Ms\": %.4f,\n",
                 percentile(router_sorted, 0.50));
    std::fprintf(out, "  \"backendSweep\": [");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::fprintf(out,
                     "%s\n    {\"backends\": %d, \"requestsPerSec\": "
                     "%.4f, \"p50LatencyMs\": %.4f, \"p99LatencyMs\": "
                     "%.4f, \"dedupHitRate\": %.4f}",
                     i == 0 ? "" : ",", sweep[i].backends,
                     sweep[i].metrics[0], sweep[i].metrics[1],
                     sweep[i].metrics[2], sweep[i].metrics[3]);
    }
    std::fprintf(out, "\n  ],\n");
    std::fprintf(out, "  \"balance\": %s,\n", balance_json.c_str());
    std::fprintf(out, "  \"hardwareConcurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    emitBlock(out, "direct", direct);
    std::fprintf(out, ",\n");
    emitBlock(out, "current", headline);
    std::fprintf(out, "\n}\n");
    std::fclose(out);

    std::printf("fleet %d: %.1f req/s, p50 %.2fms, p99 %.2fms, dedup "
                "%.2f; direct %.1f req/s, p50 %.2fms; router overhead "
                "p50 %.2fx%s%s\n",
                cfg.backends, headline[0], headline[1], headline[2],
                headline[3], direct[0], direct[1], fresh_overhead,
                cfg.verify ? (verified ? ", verified" : ", VERIFY FAILED")
                           : "",
                cfg.killOne ? (kill_all_ok ? ", kill-one ok"
                                           : ", KILL-ONE FAILED")
                            : "");
    std::printf("wrote %s\n", cfg.outPath.c_str());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string apps_csv = "radix,fft,lu";
    std::string input = "dev";
    std::string connect_path;
    std::string spawn_bin;
    std::string store_path;
    std::string ship = "async";
    int requests = 96;
    int clients = 4;
    int runs = 6;
    int seeds = 2;
    int jobs = 0;
    int dispatchers = 2;
    int fleet_backends = 0;
    bool quick = false;
    bool verify = false;
    bool kill_one = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--kill-one") {
            kill_one = true;
        } else if (arg == "--fleet" && i + 1 < argc) {
            fleet_backends = std::atoi(argv[++i]);
        } else if (arg == "--ship" && i + 1 < argc) {
            ship = argv[++i];
        } else if (arg == "--requests" && i + 1 < argc) {
            requests = std::atoi(argv[++i]);
        } else if (arg == "--clients" && i + 1 < argc) {
            clients = std::atoi(argv[++i]);
        } else if (arg == "--runs" && i + 1 < argc) {
            runs = std::atoi(argv[++i]);
        } else if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::atoi(argv[++i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = std::atoi(argv[++i]);
        } else if (arg == "--dispatchers" && i + 1 < argc) {
            dispatchers = std::atoi(argv[++i]);
        } else if (arg == "--apps" && i + 1 < argc) {
            apps_csv = argv[++i];
        } else if (arg == "--input" && i + 1 < argc) {
            input = argv[++i];
        } else if (arg == "--connect" && i + 1 < argc) {
            connect_path = argv[++i];
        } else if (arg == "--spawn" && i + 1 < argc) {
            spawn_bin = argv[++i];
        } else if (arg == "--store" && i + 1 < argc) {
            store_path = argv[++i];
        } else if (arg.rfind("--", 0) != 0) {
            out_path = arg;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return 2;
        }
    }
    if (quick) {
        requests = std::min(requests, 18);
        clients = std::min(clients, 2);
    }
    const std::vector<std::string> app_names = splitCsv(apps_csv);
    if (app_names.empty() || requests < 1 || clients < 1 || runs < 2 ||
        seeds < 1) {
        std::fprintf(stderr, "invalid mix parameters\n");
        return 2;
    }
    if (!connect_path.empty() && !spawn_bin.empty()) {
        std::fprintf(stderr,
                     "--connect and --spawn are mutually exclusive\n");
        return 2;
    }
    if (ship != "sync" && ship != "async") {
        std::fprintf(stderr, "--ship must be sync or async\n");
        return 2;
    }

    if (fleet_backends > 0) {
        if (spawn_bin.empty() || !connect_path.empty() ||
            !store_path.empty()) {
            std::fprintf(stderr,
                         "--fleet needs --spawn ICHECK_BIN (and takes "
                         "neither --connect nor --store)\n");
            return 2;
        }
        if (kill_one && fleet_backends < 2) {
            std::fprintf(stderr,
                         "--kill-one needs --fleet of at least 2\n");
            return 2;
        }
        FleetBenchConfig fleet_cfg;
        fleet_cfg.outPath =
            out_path.empty() ? "BENCH_fleet.json" : out_path;
        fleet_cfg.appsCsv = apps_csv;
        fleet_cfg.input = input;
        fleet_cfg.spawnBin = spawn_bin;
        fleet_cfg.ship = ship;
        fleet_cfg.backends = fleet_backends;
        fleet_cfg.requests = requests;
        fleet_cfg.clients = clients;
        fleet_cfg.runs = runs;
        fleet_cfg.seeds = seeds;
        fleet_cfg.jobs = jobs;
        fleet_cfg.dispatchers = dispatchers;
        fleet_cfg.quick = quick;
        fleet_cfg.verify = verify;
        fleet_cfg.killOne = kill_one;
        return runFleetBench(fleet_cfg);
    }
    if (out_path.empty())
        out_path = "BENCH_service.json";
    if (kill_one) {
        std::fprintf(stderr, "--kill-one only applies to --fleet\n");
        return 2;
    }

    const std::vector<MixEntry> mix =
        buildMix(app_names, requests, runs, seeds, input);

    // --- Set up the transport. ---------------------------------------
    std::unique_ptr<service::Service> local;
    pid_t daemon_pid = -1;
    std::string socket_path = connect_path;
    const char *mode = "in-process";

    if (!spawn_bin.empty()) {
        mode = "spawn";
        socket_path = "loadgen-" + std::to_string(::getpid()) + ".sock";
        daemon_pid = ::fork();
        if (daemon_pid == 0) {
            std::vector<std::string> daemon_args = {
                spawn_bin,       "serve",
                "--socket",      socket_path,
                "--jobs",        std::to_string(jobs),
                "--dispatchers", std::to_string(dispatchers),
            };
            if (!store_path.empty()) {
                daemon_args.push_back("--store");
                daemon_args.push_back(store_path);
            }
            std::vector<char *> exec_argv;
            for (std::string &daemon_arg : daemon_args)
                exec_argv.push_back(daemon_arg.data());
            exec_argv.push_back(nullptr);
            ::execv(spawn_bin.c_str(), exec_argv.data());
            std::fprintf(stderr, "cannot exec %s\n", spawn_bin.c_str());
            std::_Exit(3);
        }
        if (daemon_pid < 0) {
            std::fprintf(stderr, "fork failed\n");
            return 3;
        }
        // Wait for the daemon's socket to accept.
        bool up = false;
        for (int attempt = 0; attempt < 200 && !up; ++attempt) {
            const int fd = connectSocket(socket_path);
            if (fd >= 0) {
                ::close(fd);
                up = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        if (!up) {
            std::fprintf(stderr, "spawned daemon never came up\n");
            ::kill(daemon_pid, SIGKILL);
            return 3;
        }
    } else if (connect_path.empty()) {
        service::ServiceConfig cfg;
        cfg.jobs = jobs;
        cfg.dispatchers = dispatchers;
        cfg.storePath = store_path;
        local = std::make_unique<service::Service>(cfg);
    } else {
        mode = "connect";
    }

    // Per-client channels: in-process clients call the service
    // directly; socket clients each own one connection.
    std::vector<int> client_fds;
    std::vector<Roundtrip> channels;
    for (int c = 0; c < clients; ++c) {
        if (local != nullptr) {
            channels.emplace_back([&local](const std::string &line) {
                return local->handleLine(line);
            });
            continue;
        }
        const int fd = connectSocket(socket_path);
        if (fd < 0) {
            std::fprintf(stderr, "cannot connect to %s\n",
                         socket_path.c_str());
            return 3;
        }
        client_fds.push_back(fd);
        channels.emplace_back([fd](const std::string &line) {
            return socketRoundtrip(fd, line);
        });
    }

    // --- Traffic phase. ----------------------------------------------
    const BurstResult burst = runBurst(mix, channels);
    const std::vector<std::string> &responses = burst.responses;

    if (burst.failures != 0) {
        std::fprintf(stderr, "%d of %zu requests did not return ok\n",
                     burst.failures, mix.size());
        return 1;
    }

    // --- Stats + dedup hit rate from the daemon itself. --------------
    const std::string stats_response =
        channels[0]("{\"id\":\"lg-stats\",\"op\":\"stats\"}");
    double dedup_rate = 0.0;
    if (const auto parsed = service::parseJson(stats_response)) {
        if (const auto *stats = parsed->find("stats"))
            if (const auto *rate = stats->find("dedupHitRate"))
                dedup_rate = rate->asDouble();
    }

    // --- Verify phase: daemon bytes vs the one-shot path. ------------
    bool verified = true;
    if (verify) {
        std::vector<bool> checked(app_names.size() *
                                  static_cast<std::size_t>(seeds));
        for (std::size_t i = 0; i < mix.size(); ++i) {
            if (checked[mix[i].combo])
                continue;
            checked[mix[i].combo] = true;
            const std::string expected =
                oneShotReport(mix[i], runs, input);
            const std::string got = embeddedReport(responses[i]);
            if (expected.empty() || got != expected) {
                std::fprintf(stderr,
                             "report mismatch for %s seed %llu\n"
                             "  one-shot: %s\n  daemon:   %s\n",
                             mix[i].app.c_str(),
                             static_cast<unsigned long long>(mix[i].seed),
                             expected.c_str(), got.c_str());
                verified = false;
            }
        }
    }

    // --- Tear down the transport. ------------------------------------
    if (daemon_pid > 0)
        channels[0]("{\"id\":\"lg-drain\",\"op\":\"drain\"}");
    for (const int fd : client_fds)
        ::close(fd);
    if (daemon_pid > 0) {
        int status = 0;
        ::waitpid(daemon_pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "daemon exited abnormally\n");
            verified = false;
        }
    }

    // --- Metrics. ----------------------------------------------------
    const Metrics cur = burstMetrics(burst, dedup_rate);

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"loadgen\",\n");
    std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(out, "  \"mode\": \"%s\",\n", mode);
    std::fprintf(out, "  \"requests\": %d,\n", requests);
    std::fprintf(out, "  \"clients\": %d,\n", clients);
    std::fprintf(out, "  \"runsPerRequest\": %d,\n", runs);
    std::fprintf(out, "  \"apps\": \"%s\",\n", apps_csv.c_str());
    std::fprintf(out, "  \"seedsPerApp\": %d,\n", seeds);
    std::fprintf(out, "  \"input\": \"%s\",\n", input.c_str());
    std::fprintf(out, "  \"verified\": %s,\n",
                 verify ? (verified ? "true" : "false") : "null");
    std::fprintf(out, "  \"hardwareConcurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    emitBlock(out, "current", cur);
    std::fprintf(out, "\n}\n");
    std::fclose(out);

    std::printf("%zu requests in %.2fs: %.1f req/s, p50 %.2fms, "
                "p99 %.2fms, dedup %.2f%s\n",
                mix.size(), burst.wall, cur[0], cur[1], cur[2], cur[3],
                verify ? (verified ? ", verified" : ", VERIFY FAILED")
                       : "");
    std::printf("wrote %s\n", out_path.c_str());
    return verified ? 0 : 1;
}
