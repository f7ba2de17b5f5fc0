/**
 * @file
 * The `serve` and `fleet` workloads and their per-layer passes.
 *
 * serve: one spawned `icheck serve --socket` daemon (--jobs 2
 * --dispatchers 2) fed by a closed loop of 2 client connections.
 * fleet: the same traffic and seed through `icheck route --ship sync`
 * to 2 backends with --jobs 1, so fleet minus serve isolates the router
 * hop, ring lookup and log shipping.
 *
 * Each cycle holds, per app at medium input, 7 hits (campaigns the
 * pre-built store already holds, under fresh request ids) and 1 cold
 * request (a seed no store has seen): one in eight is cold. Every
 * report must be byte-identical to in-process
 * renderReportJson(runCampaign(...)); hits must execute no unit and
 * colds exactly one per run.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <thread>

#include <csignal>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "check/report_json.hpp"
#include "fleet/hash_ring.hpp"
#include "runtime/parallel_driver.hpp"
#include "service/daemon.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/result_store.hpp"
#include "workloads.hpp"

using namespace icheck;
namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

constexpr int kRuns = 30;
constexpr std::uint64_t kHitSeed = 1000;
constexpr int kHitsPerApp = 7;
constexpr int kClients = 2;
/** Hits: 119 per cycle, about 6000 per 15 s run. p99 left ~60 beyond
 *  it but jumped threefold in one run of five whenever the host stalled
 *  (a stall lands on the last percent of hits), so hits use p95, which
 *  still leaves ~300 beyond. Colds: 17 per cycle, about 800 per run;
 *  p95 leaves ~40 beyond. */
constexpr double kHitTail = 0.95;
constexpr double kColdTail = 0.95;
/** Host probe cadence, in cycles (see HostSpeed). */
constexpr std::size_t kProbeEvery = 8;

struct TrafficOp
{
    std::size_t app = 0; ///< Registry index.
    bool cold = false;
};

/**
 * Cycle @p round of the run. Every cycle holds the same ops; the order
 * is reshuffled per round because two clients share one sequence, and a
 * fixed order would pair the same cold campaigns on the pool in every
 * cycle, making cold latency a function of the seed.
 */
std::vector<TrafficOp>
cycleFor(std::uint64_t seed, std::uint64_t round = 0)
{
    std::vector<TrafficOp> cycle;
    for (std::size_t a = 0; a < apps::registry().size(); ++a) {
        for (int h = 0; h < kHitsPerApp; ++h)
            cycle.push_back({a, false});
        cycle.push_back({a, true});
    }
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + round);
    rng.shuffle(cycle);
    return cycle;
}

/** Sched-seed base of the cold request at op index @p index: distinct
 *  per op, and never the hit seed. */
std::uint64_t
coldSeed(std::uint64_t seed, std::uint64_t index)
{
    return 1000000 + (seed % 1000) * 1000000 + index;
}

std::string
checkLine(const std::string &id, std::size_t app, std::uint64_t seed)
{
    return "{\"id\":\"" + id + "\",\"op\":\"check\",\"app\":\"" +
           apps::registry()[app].name + "\",\"runs\":" +
           std::to_string(kRuns) + ",\"seed\":" + std::to_string(seed) +
           ",\"input\":\"medium\"}";
}

/** The report one-shot `icheck check --json` prints for the campaign. */
std::string
oneShotReport(std::size_t app, std::uint64_t seed, runtime::ThreadPool *pool)
{
    const apps::AppInfo &info = apps::registry()[app];
    check::DriverConfig cfg;
    cfg.runs = kRuns;
    cfg.baseSchedSeed = seed;
    cfg.ignores = info.ignores;
    runtime::CampaignOptions options;
    options.pool = pool;
    options.jobs = pool != nullptr ? 0 : 1;
    return check::renderReportJson(runtime::runCampaign(
        cfg, apps::scaledFactory(info.name, apps::InputScale::Medium),
        options));
}

/** Embedded "report":{...} of an ok response (the final member). */
std::string
embeddedReport(const std::string &response)
{
    const std::string needle = "\"report\":";
    const std::size_t pos = response.find(needle);
    if (pos == std::string::npos || response.back() != '}')
        return {};
    return response.substr(pos + needle.size(),
                           response.size() - 1 - (pos + needle.size()));
}

long
unitsExecuted(const std::string &response)
{
    const std::string needle = "\"unitsExecuted\":";
    const std::size_t pos = response.find(needle);
    if (pos == std::string::npos)
        return -1;
    return std::strtol(response.c_str() + pos + needle.size(), nullptr, 10);
}

/** Gate one check response. Empty when it passes. */
std::string
verifyResponse(const std::string &id, const std::string &response,
               bool cold, const std::string &expected_report)
{
    const std::string head = "{\"id\":\"" + id + "\",\"status\":\"ok\"";
    if (response.rfind(head, 0) != 0)
        return id + ": not ok: " + response.substr(0, 160);
    if (embeddedReport(response) != expected_report)
        return id + ": report differs from one-shot renderReportJson";
    const long executed = unitsExecuted(response);
    if (executed != (cold ? kRuns : 0))
        return id + ": unitsExecuted " + std::to_string(executed) +
               (cold ? " on a cold request" : " on a hit");
    return {};
}

/** Untimed prep: the pre-built store every run starts from, and the
 *  one-shot reports of the hit campaigns. */
struct Prep
{
    std::string storePath;
    std::vector<std::string> hitReports; ///< By registry index.
};

Prep
prepare(const Options &opts, Result &result)
{
    Prep prep;
    prep.storePath = opts.workdir + "/prebuilt.icr";
    fs::remove(prep.storePath);
    runtime::ThreadPool pool(2);
    {
        service::ServiceConfig cfg;
        cfg.jobs = 2;
        cfg.storePath = prep.storePath;
        service::Service svc(cfg);
        for (std::size_t a = 0; a < apps::registry().size(); ++a) {
            const std::string id = "prep-" + std::to_string(a);
            const std::string response =
                svc.handleLine(checkLine(id, a, kHitSeed));
            prep.hitReports.push_back(oneShotReport(a, kHitSeed, &pool));
            const std::string error = verifyResponse(
                id, response, true, prep.hitReports.back());
            if (!error.empty())
                result.fail("prep: " + error);
        }
    }
    return prep;
}

/** A spawned serve daemon, or a router with its backends. */
struct Topology
{
    std::vector<pid_t> backends;
    std::vector<std::string> backendSockets;
    std::vector<pid_t> routers;
    std::vector<std::string> routerSockets;

    /** Where clients connect: the (first) router, else the daemon. */
    const std::string &
    front() const
    {
        return routerSockets.empty() ? backendSockets.front()
                                     : routerSockets.front();
    }

    double
    peakRssMb() const
    {
        double total = 0;
        for (const pid_t pid : backends)
            total += vmHwmMb(pid);
        for (const pid_t pid : routers)
            total += vmHwmMb(pid);
        return total;
    }
};

bool
awaitAndClose(const std::string &socket)
{
    const int fd = awaitSocket(socket, 30.0);
    if (fd < 0)
        return false;
    Connection probe(fd);
    return true;
}

/**
 * Spawn the workload's processes in @p dir, each backend on the store
 * copy freshDir() put there; a fleet gets one router per entry of
 * @p ships. Returns nullopt, having reaped everything, if any process
 * never listens.
 */
std::optional<Topology>
spawnTopology(const Options &opts, bool fleet, const std::string &dir,
              const std::vector<std::string> &ships = {"sync"})
{
    Topology topo;
    const int backends = fleet ? 2 : 1;
    for (int b = 0; b < backends; ++b) {
        const std::string name = "b" + std::to_string(b);
        const std::string socket = dir + "/" + name + ".sock";
        topo.backendSockets.push_back(socket);
        topo.backends.push_back(spawnProcess(
            {opts.icheck, "serve", "--socket", socket, "--store",
             dir + "/" + name + ".icr", "--jobs", fleet ? "1" : "2",
             "--dispatchers", "2"},
            dir + "/" + name + ".log"));
    }
    bool up = true;
    for (const std::string &socket : topo.backendSockets)
        up = up && awaitAndClose(socket);
    if (up && fleet) {
        for (std::size_t r = 0; r < ships.size(); ++r) {
            const std::string socket =
                dir + "/router" + std::to_string(r) + ".sock";
            std::vector<std::string> args = {opts.icheck, "route",
                                             "--socket",  socket,
                                             "--ship",    ships[r]};
            for (int b = 0; b < backends; ++b) {
                args.push_back("--backend");
                args.push_back("b" + std::to_string(b) + "=" +
                               topo.backendSockets[static_cast<std::size_t>(
                                   b)]);
            }
            topo.routerSockets.push_back(socket);
            topo.routers.push_back(spawnProcess(
                args, dir + "/router" + std::to_string(r) + ".log"));
            up = up && awaitAndClose(socket);
        }
    }
    if (!up) {
        for (const pid_t pid : topo.routers)
            reap(pid, 0);
        for (const pid_t pid : topo.backends)
            reap(pid, 0);
        return std::nullopt;
    }
    return topo;
}

/** Drain through the front socket and reap every process. */
bool
stopTopology(const Topology &topo)
{
    // Extra routers (the async one of the fleet layer pass) shut down by
    // signal first; the front drains the fleet and then itself.
    for (std::size_t r = 1; r < topo.routers.size(); ++r) {
        ::kill(topo.routers[r], SIGTERM);
        reap(topo.routers[r], 10.0);
    }
    {
        Connection conn(awaitSocket(topo.front(), 5.0));
        conn.roundtrip("{\"id\":\"perfbench-drain\",\"op\":\"drain\"}");
    }
    bool clean = true;
    if (!topo.routers.empty())
        clean = reap(topo.routers.front(), 30.0) && clean;
    for (const pid_t pid : topo.backends)
        clean = reap(pid, 30.0) && clean;
    return clean;
}

/** Fresh directory @p dir holding one copy of the pre-built store per
 *  backend: the identical starting state of every set-up. */
void
freshDir(const std::string &dir, const Prep &prep, bool fleet)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (int b = 0; b < (fleet ? 2 : 1); ++b)
        fs::copy_file(prep.storePath,
                      dir + "/b" + std::to_string(b) + ".icr");
}

/** Warm-up rounds: every hit campaign once per round on each client
 *  connection. Enough fixed work that set-up time is not dominated by
 *  the jitter of spawning processes. */
constexpr int kWarmUpRounds = 4;

void
warmUp(const std::vector<std::unique_ptr<Connection>> &conns,
       const Prep &prep, const std::string &tag, Result &result)
{
    for (int round = 0; round < kWarmUpRounds; ++round) {
        for (std::size_t c = 0; c < conns.size(); ++c) {
            for (std::size_t a = 0; a < prep.hitReports.size(); ++a) {
                const std::string id = "warm-" + tag + "-" +
                                       std::to_string(round) + "-" +
                                       std::to_string(c) + "-" +
                                       std::to_string(a);
                const std::string error = verifyResponse(
                    id, conns[c]->roundtrip(checkLine(id, a, kHitSeed)),
                    false, prep.hitReports[a]);
                result.count(error.empty(), "warm-up: " + error);
            }
        }
    }
}

struct ColdResponse
{
    std::string id;
    std::size_t app = 0;
    std::uint64_t seed = 0;
    std::string response;
};

/** Verify cold responses against in-process one-shot reports on
 *  nproc threads (the daemons are gone by now). */
void
verifyColds(const std::vector<ColdResponse> &colds, Result &result)
{
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::string> errors(colds.size());
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < colds.size(); i += threads) {
                const ColdResponse &c = colds[i];
                errors[i] = verifyResponse(c.id, c.response, true,
                                           oneShotReport(c.app, c.seed,
                                                         nullptr));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (const std::string &error : errors)
        result.count(error.empty(), error);
}

} // namespace

LoopStats
runService(const Options &opts, bool fleet, double seconds, Tracer *tracer,
           Result &result)
{
    const Prep prep = prepare(opts, result);
    HostSpeed host;
    std::vector<double> setups;
    std::optional<Topology> topo;
    std::vector<std::unique_ptr<Connection>> conns;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (topo.has_value()) {
            conns.clear();
            stopTopology(*topo);
        }
        const std::string dir = opts.workdir + "/setup" + std::to_string(i);
        freshDir(dir, prep, fleet);
        host.sample();
        const Clock::time_point start = Clock::now();
        topo = spawnTopology(opts, fleet, dir);
        if (!topo.has_value()) {
            result.fail("set-up: a daemon never listened (see " + dir +
                        "/*.log)");
            return {};
        }
        conns.clear();
        for (int c = 0; c < kClients; ++c)
            conns.push_back(std::make_unique<Connection>(
                awaitSocket(topo->front(), 5.0)));
        warmUp(conns, prep, std::to_string(i), result);
        setups.push_back(secondsSince(start));
    }

    const std::vector<TrafficOp> cycle = cycleFor(opts.seed);
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < cycle.size(); ++i)
        labels.push_back(
            cycle[i].cold ? std::to_string(coldSeed(opts.seed, i))
                          : apps::registry()[cycle[i].app].name);
    result.cycle(labels);
    LatencyClass hits{"hit requests (30 runs, medium, in store)", kHitTail,
                      {}};
    LatencyClass colds{"cold requests (30 runs, medium, fresh seed)",
                       kColdTail, {}};
    std::vector<ColdResponse> cold_responses;
    std::mutex mu; // Guards everything below up to `start`.
    std::condition_variable cycle_done;
    std::uint64_t next = 0;
    std::uint64_t completed = 0;
    bool stopped = false;
    std::vector<std::vector<TrafficOp>> rounds = {cycle};
    double rss = 0;
    const Clock::time_point start = Clock::now();

    // A run ends on a cycle boundary: the op that would open a new
    // cycle after the deadline is never taken, so every run times whole
    // cycles. Every kProbeEvery cycles the taker first waits for the
    // finished cycle to complete and probes the host while the daemons
    // are idle; probing rarely keeps the wake-up after each probe out of
    // the hit tail.
    const auto take =
        [&]() -> std::optional<std::pair<std::uint64_t, TrafficOp>> {
        std::unique_lock<std::mutex> lock(mu);
        if (!stopped && next > 0 && next % cycle.size() == 0 &&
            rounds.size() * cycle.size() == next) {
            const std::uint64_t boundary = next;
            if (secondsSince(start) - host.seconds() >= seconds) {
                stopped = true;
            } else {
                // Peak RSS grows with every stored response, so it is
                // read once, after set-up and the first cycle.
                if (rounds.size() == 1)
                    rss = topo->peakRssMb();
                if (rounds.size() % kProbeEvery == 0) {
                    cycle_done.wait(lock,
                                    [&] { return completed >= boundary; });
                    host.sample();
                }
                rounds.push_back(cycleFor(opts.seed, rounds.size()));
            }
        }
        if (stopped)
            return std::nullopt;
        const TrafficOp op = rounds.back()[next % cycle.size()];
        return std::make_pair(next++, op);
    };
    const auto client = [&](Connection &conn) {
        while (const auto taken = take()) {
            const std::uint64_t index = taken->first;
            const TrafficOp &op = taken->second;
            const std::string id = (op.cold ? "c" : "h") + std::to_string(index);
            const std::uint64_t seed =
                op.cold ? coldSeed(opts.seed, index) : kHitSeed;
            const auto op_id = static_cast<std::int64_t>(index);
            ScopedSpan op_span(tracer, op.cold ? "op.cold" : "op.hit", -1,
                               op_id);
            const Clock::time_point t0 = Clock::now();
            std::string response;
            {
                ScopedSpan span(tracer,
                                fleet ? "fleet.route" : "service.serve",
                                op_span.id(), op_id);
                response = conn.roundtrip(checkLine(id, op.app, seed));
            }
            const double ms = msSince(t0);
            const std::string error =
                op.cold ? std::string()
                        : verifyResponse(id, response, false,
                                         prep.hitReports[op.app]);
            std::lock_guard<std::mutex> lock(mu);
            if (op.cold) {
                colds.ms.push_back(ms);
                cold_responses.push_back({id, op.app, seed, response});
            } else {
                hits.ms.push_back(ms);
                result.count(error.empty(), error);
            }
            if (++completed % cycle.size() == 0)
                cycle_done.notify_all();
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client, std::ref(*conns[static_cast<std::size_t>(c)]));
    for (std::thread &t : clients)
        t.join();
    const double wall = secondsSince(start) - host.seconds();

    if (rounds.size() == 1)
        rss = topo->peakRssMb();
    conns.clear();
    result.count(stopTopology(*topo), "a daemon did not drain cleanly");
    verifyColds(cold_responses, result);

    LoopStats stats;
    stats.ops = next;
    stats.cycles = next / cycle.size();
    stats.opsPerSecond = static_cast<double>(next) / wall;
    stats.hostFactor = host.factor();
    if (tracer == nullptr) {
        result.timing("setup_s", median(setups), "s", host);
        result.rate("ops_per_s", stats.opsPerSecond, "1/s", host);
        result.latency("main_", hits, host);
        result.latency("alt_", colds, host);
        result.hostSpeed(host);
        result.metric("peak_rss_mb", rss, "MB");
    }
    return stats;
}

namespace
{

/** One cycle's request lines in order, with fresh cold seeds. */
std::vector<std::pair<TrafficOp, std::string>>
cycleLines(const Options &opts, const std::string &tag)
{
    std::vector<std::pair<TrafficOp, std::string>> lines;
    std::uint64_t index = 0;
    for (const TrafficOp &op : cycleFor(opts.seed)) {
        const std::string id =
            tag + (op.cold ? "c" : "h") + std::to_string(index);
        lines.push_back(
            {op, checkLine(id, op.app,
                           op.cold ? coldSeed(opts.seed, index)
                                   : kHitSeed)});
        ++index;
    }
    return lines;
}

std::uint64_t
statU64(const service::JsonValue *object, const char *key)
{
    const service::JsonValue *field =
        object != nullptr ? object->find(key) : nullptr;
    return field != nullptr ? field->asU64().value_or(0) : 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** p50 latency of hits sent alternately through each of @p conns. */
std::vector<double>
alternatingHitP50(std::vector<Connection *> conns, const Prep &prep,
                  const std::string &tag, int rounds, Tracer &tracer,
                  Result &result)
{
    std::vector<std::vector<double>> ms(conns.size());
    for (int r = 0; r < rounds; ++r) {
        const std::size_t app = static_cast<std::size_t>(r) %
                                prep.hitReports.size();
        for (std::size_t c = 0; c < conns.size(); ++c) {
            const std::string id = tag + std::to_string(c) + "-" +
                                   std::to_string(r);
            ScopedSpan span(&tracer, "client.roundtrip", -1, r);
            const Clock::time_point t0 = Clock::now();
            const std::string response =
                conns[c]->roundtrip(checkLine(id, app, kHitSeed));
            ms[c].push_back(msSince(t0));
            const std::string error = verifyResponse(
                id, response, false, prep.hitReports[app]);
            result.count(error.empty(), "layers: " + error);
        }
    }
    std::vector<double> p50;
    for (const std::vector<double> &samples : ms)
        p50.push_back(median(samples));
    return p50;
}

} // namespace

void
layersService(const Options &opts, Tracer &tracer, Result &result)
{
    const Prep prep = prepare(opts, result);

    // Protocol parse, per line over one cycle.
    const auto lines = cycleLines(opts, "p");
    {
        ScopedSpan span(&tracer, "service.parseRequestLine");
        const int reps = 200;
        const Clock::time_point t0 = Clock::now();
        std::size_t parsed = 0;
        for (int r = 0; r < reps; ++r)
            for (const auto &entry : lines)
                parsed += service::parseRequestLine(entry.second).ok();
        result.metric("service.parse_us",
                      secondsSince(t0) * 1e6 /
                          static_cast<double>(reps * lines.size()),
                      "us");
        result.count(parsed == reps * lines.size(),
                     "layers: a request line failed to parse");
    }

    // In-process Service::handleLine on the same stream.
    std::vector<double> hit_us;
    std::vector<double> cold_ms;
    {
        const std::string dir = opts.workdir + "/layers-inproc";
        freshDir(dir, prep, false);
        service::ServiceConfig cfg;
        cfg.jobs = 2;
        cfg.storePath = dir + "/b0.icr";
        service::Service svc(cfg);
        std::int64_t op_id = 0;
        for (const auto &[op, line] : cycleLines(opts, "i")) {
            ScopedSpan span(&tracer, "service.handleLine", -1, op_id++);
            const Clock::time_point t0 = Clock::now();
            const std::string response = svc.handleLine(line);
            const double secs = secondsSince(t0);
            (op.cold ? cold_ms : hit_us)
                .push_back(op.cold ? secs * 1e3 : secs * 1e6);
            result.count(response.find("\"status\":\"ok\"") !=
                             std::string::npos,
                         "layers: in-process request failed");
        }
    }
    result.metric("service.handle_hit_us", median(hit_us), "us");
    result.metric("service.handle_cold_ms", median(cold_ms), "ms");

    // The same stream through a spawned daemon on one connection.
    {
        const std::string dir = opts.workdir + "/layers-serve";
        freshDir(dir, prep, false);
        const std::optional<Topology> topo = spawnTopology(opts, false, dir);
        if (!topo.has_value()) {
            result.fail("layers: daemon never listened");
            return;
        }
        std::vector<double> client_hit_us;
        std::string stats;
        {
            Connection conn(awaitSocket(topo->front(), 5.0));
            std::int64_t op_id = 0;
            for (const auto &[op, line] : cycleLines(opts, "s")) {
                ScopedSpan span(&tracer, "client.roundtrip", -1, op_id++);
                const Clock::time_point t0 = Clock::now();
                const std::string response = conn.roundtrip(line);
                if (!op.cold)
                    client_hit_us.push_back(secondsSince(t0) * 1e6);
                result.count(response.find("\"status\":\"ok\"") !=
                                 std::string::npos,
                             "layers: daemon request failed");
            }
            stats = conn.roundtrip("{\"id\":\"st\",\"op\":\"stats\"}");
        }
        result.count(stopTopology(*topo), "layers: daemon drain failed");
        const auto parsed = service::parseJson(stats);
        const service::JsonValue *body =
            parsed.has_value() ? parsed->find("stats") : nullptr;
        const double executed =
            static_cast<double>(statU64(body, "unitsExecuted"));
        const double reused =
            static_cast<double>(statU64(body, "unitsReused"));
        result.metric("service.transport_us",
                      median(client_hit_us) - median(hit_us), "us");
        result.metric("service.units_executed", executed, "count");
        result.metric("service.units_reused", reused, "count");
        result.metric("service.dedup_ratio",
                      executed + reused > 0 ? reused / (executed + reused)
                                            : 0.0,
                      "ratio");
    }

    // Result store: open, get on hit keys, put on a persistent store.
    std::vector<double> open_ms;
    for (int r = 0; r < 5; ++r) {
        ScopedSpan span(&tracer, "service.ResultStore.open");
        const Clock::time_point t0 = Clock::now();
        service::ResultStore store(prep.storePath);
        open_ms.push_back(secondsSince(t0) * 1e3);
    }
    result.metric("service.store_open_ms", median(open_ms), "ms");
    std::vector<std::string> payloads;
    std::vector<double> get_us;
    {
        service::ResultStore store(prep.storePath);
        ScopedSpan span(&tracer, "service.ResultStore.get");
        for (std::size_t a = 0; a < apps::registry().size(); ++a) {
            const auto parsed =
                service::parseRequestLine(checkLine("g", a, kHitSeed));
            const std::string canonical =
                service::canonicalKey(parsed.request->check);
            for (int run = 0; run < kRuns; ++run) {
                const Clock::time_point t0 = Clock::now();
                const auto payload =
                    store.get(service::unitKey(canonical, run));
                get_us.push_back(secondsSince(t0) * 1e6);
                result.count(payload.has_value(),
                             "layers: pre-built store lacks a hit unit");
                if (payload.has_value())
                    payloads.push_back(*payload);
            }
        }
    }
    result.metric("service.store_get_us", median(get_us), "us");
    std::vector<double> put_us;
    {
        const std::string path = opts.workdir + "/layers-put.icr";
        fs::remove(path);
        service::ResultStore store(path);
        ScopedSpan span(&tracer, "service.ResultStore.put");
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            store.put("perfbench-put-" + std::to_string(i), payloads[i]);
            put_us.push_back(secondsSince(t0) * 1e6);
        }
    }
    result.metric("service.store_put_us", median(put_us), "us");
}

void
layersFleet(const Options &opts, Tracer &tracer, Result &result)
{
    const Prep prep = prepare(opts, result);
    const auto lines = cycleLines(opts, "f");

    // Ring lookups over the cycle's canonical keys.
    {
        fleet::HashRing ring;
        ring.add("b0");
        ring.add("b1");
        std::vector<std::string> keys;
        for (const auto &entry : lines)
            keys.push_back(service::canonicalKey(
                service::parseRequestLine(entry.second).request->check));
        ScopedSpan span(&tracer, "fleet.HashRing.ownerOf");
        const int reps = 2000;
        std::size_t owned = 0;
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            for (const std::string &key : keys)
                owned += ring.ownerOf(key) != nullptr;
        result.metric("fleet.ring_owner_ns",
                      secondsSince(t0) * 1e9 /
                          static_cast<double>(reps * keys.size()),
                      "ns");
        result.count(owned == reps * keys.size(), "layers: ring lost a key");
    }

    const std::string dir = opts.workdir + "/layers-fleet";
    freshDir(dir, prep, true);
    const std::optional<Topology> topo =
        spawnTopology(opts, true, dir, {"sync", "async"});
    if (!topo.has_value()) {
        result.fail("layers: fleet never listened");
        return;
    }
    {
        // One cycle through the sync router, then its counters: sync
        // shipping replicated every frame before the last response.
        Connection sync_conn(awaitSocket(topo->routerSockets[0], 5.0));
        std::int64_t op_id = 0;
        for (const auto &[op, line] : lines) {
            ScopedSpan span(&tracer, "client.roundtrip", -1, op_id++);
            result.count(sync_conn.roundtrip(line).find(
                             "\"status\":\"ok\"") != std::string::npos,
                         "layers: fleet request failed");
        }
        const auto parsed = service::parseJson(
            sync_conn.roundtrip("{\"id\":\"st\",\"op\":\"stats\"}"));
        const service::JsonValue *body =
            parsed.has_value() ? parsed->find("fleet") : nullptr;
        const service::JsonValue *router =
            body != nullptr ? body->find("router") : nullptr;
        result.metric("fleet.frames_replicated",
                      static_cast<double>(statU64(router, "framesReplicated")),
                      "count");
        std::vector<double> per_backend;
        const service::JsonValue *rows =
            body != nullptr ? body->find("perBackend") : nullptr;
        if (rows != nullptr)
            for (const service::JsonValue &row : rows->items)
                per_backend.push_back(static_cast<double>(
                    statU64(row.find("stats"), "checksCompleted")));
        const bool balanced_rows =
            per_backend.size() == 2 && per_backend[0] > 0 &&
            per_backend[1] > 0;
        result.count(balanced_rows,
                     "layers: a backend served no request");
        result.metric("fleet.balance",
                      balanced_rows
                          ? std::max(per_backend[0], per_backend[1]) /
                                std::min(per_backend[0], per_backend[1])
                          : 0.0,
                      "ratio");

        // Router hop and sync-ship hold: hits alternate router vs
        // direct backend, and sync router vs async router.
        Connection async_conn(awaitSocket(topo->routerSockets[1], 5.0));
        Connection direct(awaitSocket(topo->backendSockets[0], 5.0));
        const std::vector<double> p50 = alternatingHitP50(
            {&sync_conn, &async_conn, &direct}, prep, "alt", 200, tracer,
            result);
        result.metric("fleet.hop_us", (p50[1] - p50[2]) * 1e3, "us");
        result.metric("fleet.ship_hold_us", (p50[0] - p50[1]) * 1e3, "us");
    }
    result.count(stopTopology(*topo), "layers: fleet drain failed");

    // Frame decoding of a backend's shipped log.
    const std::string log = readFile(dir + "/b0.icr");
    std::vector<service::Frame> frames;
    {
        ScopedSpan span(&tracer, "service.decodeFrames");
        const int reps = 20;
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r) {
            frames.clear();
            service::decodeFrames(log, frames);
        }
        result.metric("fleet.frame_decode_ns_per_byte",
                      secondsSince(t0) * 1e9 /
                          static_cast<double>(reps * log.size()),
                      "ns");
    }
    result.count(!frames.empty(), "layers: backend log held no frames");
}

} // namespace perfbench
