/**
 * @file
 * The `check` workload: runtime::runCampaign over the 17 apps x {hw,
 * swtr} at large input, 30 runs per campaign (the paper's count), on a
 * 2-worker pool — the paper's own experiment and the `icheck check`
 * path. Its traced pass splits one cycle across apps, check, runtime,
 * sim, mhm, cache, hashing and mem.
 */

#include <future>
#include <memory>
#include <optional>

#include <sys/resource.h>

#include "apps/app_registry.hpp"
#include "apps/scales.hpp"
#include "cache/l1_cache.hpp"
#include "check/report_json.hpp"
#include "check/sw_tr.hpp"
#include "hashing/location_hash.hpp"
#include "mem/memory.hpp"
#include "mhm/mhm.hpp"
#include "runtime/parallel_driver.hpp"
#include "sim/listener.hpp"
#include "workloads.hpp"

using namespace icheck;

namespace perfbench
{
namespace
{

constexpr int kRuns = 30;
constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kSchedSeed = 1000;
/** 17 samples per class per cycle; a 25 s run completes about nine
 *  cycles (153 samples), and p90 leaves about 15 beyond it. */
constexpr double kTailQuantile = 0.90;

struct CheckOp
{
    const apps::AppInfo *app = nullptr;
    check::Scheme scheme = check::Scheme::HwInc;
};

std::vector<CheckOp>
cycleFor(std::uint64_t seed)
{
    std::vector<CheckOp> cycle;
    for (const apps::AppInfo &app : apps::registry())
        for (const check::Scheme scheme :
             {check::Scheme::HwInc, check::Scheme::SwTr})
            cycle.push_back({&app, scheme});
    Rng rng(seed);
    rng.shuffle(cycle);
    return cycle;
}

check::DriverConfig
configFor(const CheckOp &op, int runs)
{
    check::DriverConfig cfg;
    cfg.runs = runs;
    cfg.scheme = op.scheme;
    cfg.baseSchedSeed = kSchedSeed;
    cfg.machine.fpRoundingEnabled = true;
    cfg.ignores = op.app->ignores;
    return cfg;
}

/**
 * Table 1 gate: the verdict `icheck check` (rounding and ignores on)
 * must give for the app's class. streamcluster carries Table 1's star:
 * nondeterministic internal barriers, deterministic end state and
 * output.
 */
bool
verdictMatches(const apps::AppInfo &app, const check::DriverReport &report,
               bool plant_wrong)
{
    bool expect_det = app.expected != apps::DetClass::NonDet;
    if (plant_wrong && app.name == "lu")
        expect_det = !expect_det;
    const bool star = app.name == "streamcluster" &&
                      app.expected == apps::DetClass::BitByBit;
    const bool measured_det =
        star ? report.detAtEnd && report.outputDeterministic
             : report.deterministic();
    return measured_det == expect_det;
}

struct CheckSetup
{
    std::unique_ptr<runtime::ThreadPool> pool;
    std::vector<check::ProgramFactory> factories; ///< By registry index.
};

std::size_t
indexOf(const apps::AppInfo *app)
{
    return static_cast<std::size_t>(app - apps::registry().data());
}

/** Pool, factories and a deterministic warm-up pass (2-run campaigns
 *  of every app and scheme). */
CheckSetup
setUp()
{
    CheckSetup setup;
    setup.pool = std::make_unique<runtime::ThreadPool>(kWorkers);
    for (const apps::AppInfo &app : apps::registry())
        setup.factories.push_back(
            apps::scaledFactory(app.name, apps::InputScale::Large));
    runtime::CampaignOptions options;
    options.pool = setup.pool.get();
    for (const CheckOp &op : cycleFor(0))
        runtime::runCampaign(configFor(op, 2),
                             setup.factories[indexOf(op.app)], options);
    return setup;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

LoopStats
runCheck(const Options &opts, double seconds, Tracer *tracer,
         Result &result)
{
    HostSpeed host;
    std::vector<double> setups;
    std::optional<CheckSetup> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        setup.reset();
        host.sample();
        const Clock::time_point start = Clock::now();
        setup.emplace(setUp());
        setups.push_back(secondsSince(start));
    }

    const std::vector<CheckOp> cycle = cycleFor(opts.seed);
    std::vector<std::string> labels;
    for (const CheckOp &op : cycle)
        labels.push_back(op.app->name + check::schemeName(op.scheme));
    result.cycle(labels);
    LatencyClass hw{"hw campaigns, 30 runs, large", kTailQuantile, {}};
    LatencyClass swtr{"swtr campaigns, 30 runs, large", kTailQuantile, {}};
    runtime::CampaignOptions options;
    options.pool = setup->pool.get();

    LoopStats stats;
    const Clock::time_point start = Clock::now();
    while (stats.cycles == 0 ||
           secondsSince(start) - host.seconds() < seconds) {
        for (const CheckOp &op : cycle) {
            ScopedSpan op_span(tracer, "op.check",
                               -1, static_cast<std::int64_t>(stats.ops));
            const Clock::time_point t0 = Clock::now();
            check::DriverReport report;
            {
                ScopedSpan span(tracer, "runtime.runCampaign", op_span.id(),
                                static_cast<std::int64_t>(stats.ops));
                report = runtime::runCampaign(
                    configFor(op, kRuns),
                    setup->factories[indexOf(op.app)], options);
            }
            (op.scheme == check::Scheme::HwInc ? hw : swtr)
                .ms.push_back(msSince(t0));
            result.count(verdictMatches(*op.app, report,
                                        opts.plantWrongExpectation),
                         "check: " + op.app->name + "/" + report.scheme +
                             " verdict does not match Table 1");
            ++stats.ops;
            host.sample(); // between campaigns: the pool is idle
        }
        ++stats.cycles;
    }
    const double wall = secondsSince(start) - host.seconds();
    stats.opsPerSecond = static_cast<double>(stats.ops) / wall;
    stats.hostFactor = host.factor();

    if (tracer == nullptr) {
        result.timing("setup_s", median(setups), "s", host);
        result.rate("ops_per_s", stats.opsPerSecond, "1/s", host);
        result.latency("main_", hw, host);
        result.latency("alt_", swtr, host);
        result.hostSpeed(host);
        result.metric("peak_rss_mb", peakRssMb(), "MB");
    }
    return stats;
}

namespace
{

/** Records one run's access stream and its allocated blocks. */
class StreamRecorder : public sim::AccessListener
{
  public:
    struct Store
    {
        Addr addr;
        std::uint64_t oldBits;
        std::uint64_t newBits;
        unsigned width;
        hashing::ValueClass cls;
    };

    /** Bound on recorded events per run; a fixed cap keeps counts exact
     *  and memory small. */
    static constexpr std::size_t kCap = 4u << 20;

    std::vector<Store> stores;
    std::vector<std::pair<Addr, bool>> accesses;
    std::vector<std::pair<Addr, std::size_t>> blocks;

    void
    onStore(const sim::StoreEvent &event) override
    {
        if (event.hashed && stores.size() < kCap)
            stores.push_back({event.addr, event.oldBits, event.newBits,
                              event.width, event.cls});
        if (accesses.size() < kCap)
            accesses.push_back({event.addr, true});
    }

    void
    onLoad(const sim::LoadEvent &event) override
    {
        if (accesses.size() < kCap)
            accesses.push_back({event.addr, false});
    }

    void
    onAlloc(const mem::Block &block) override
    {
        blocks.push_back({block.addr, block.size});
    }
};

/** Sink that keeps replayed results observable to the optimiser. */
volatile std::uint64_t g_sink = 0;

struct LayerSums
{
    double mhmNs = 0, mhmStores = 0;
    double l1Ns = 0, l1Accesses = 0;
    double imageBytes = 0, hashNs = 0, readNs = 0, writeNs = 0;
    double traversalNs = 0, traversalBytes = 0;
    std::vector<double> forkUs;
};

double
nsSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e9;
}

/**
 * One instrumented hw run of @p op's run 0 with a stream recorder,
 * then replays of its store stream through the MHM, its address stream
 * through the L1, and its final image through the location hasher and
 * SparseMemory — each timed around the layer's public function.
 */
void
replayLayers(const CheckOp &op, const check::ProgramFactory &factory,
             Tracer &tracer, int parent, LayerSums &sums)
{
    const check::DriverConfig cfg = configFor(op, 1);
    sim::MachineConfig mc = cfg.machine;
    mc.schedSeed = kSchedSeed;
    sim::Machine machine(mc);
    auto checker = check::makeChecker(check::Scheme::HwInc, cfg.ignores);
    checker->attach(machine);
    StreamRecorder recorder;
    machine.addListener(&recorder);
    machine.setRunStartHandler([&] { checker->onRunStart(); });
    machine.setCheckpointHandler(
        [&](const sim::CheckpointInfo &) { checker->checkpointHash(); });
    auto program = factory();
    machine.run(*program);

    {
        ScopedSpan span(&tracer, "mhm.observeStore", parent);
        mhm::BasicMhm unit(machine.hasher(), machine.effectiveFpMode());
        unit.startHashing();
        const Clock::time_point t0 = Clock::now();
        for (const StreamRecorder::Store &s : recorder.stores)
            unit.observeStore(s.addr, s.oldBits, s.newBits, s.width, s.cls);
        sums.mhmNs += nsSince(t0);
        sums.mhmStores += static_cast<double>(recorder.stores.size());
        g_sink = g_sink + unit.saveHash();
    }
    {
        ScopedSpan span(&tracer, "cache.access", parent);
        cache::L1Cache l1;
        const Clock::time_point t0 = Clock::now();
        for (const auto &[addr, is_write] : recorder.accesses)
            l1.access(addr, is_write);
        sums.l1Ns += nsSince(t0);
        sums.l1Accesses += static_cast<double>(recorder.accesses.size());
        g_sink = g_sink + l1.misses();
    }

    // The app image: every block the run allocated, read back at the
    // end of the run.
    std::vector<std::vector<std::uint8_t>> image;
    for (const auto &[addr, size] : recorder.blocks) {
        image.emplace_back(size);
        machine.memory().readBytes(addr, image.back().data(), size);
    }
    {
        ScopedSpan span(&tracer, "hashing.hashSpan", parent);
        const hashing::Crc64LocationHasher hasher;
        const Clock::time_point t0 = Clock::now();
        hashing::ModHash acc{};
        for (std::size_t i = 0; i < image.size(); ++i)
            acc += hasher.hashSpan(recorder.blocks[i].first, image[i].data(),
                                   image[i].size());
        sums.hashNs += nsSince(t0);
        g_sink = g_sink + acc.raw();
    }
    mem::SparseMemory memory;
    {
        ScopedSpan span(&tracer, "mem.writeBytes", parent);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < image.size(); ++i) {
            memory.writeBytes(recorder.blocks[i].first, image[i].data(),
                              image[i].size());
            sums.imageBytes += static_cast<double>(image[i].size());
        }
        sums.writeNs += nsSince(t0);
    }
    {
        ScopedSpan span(&tracer, "mem.readBytes", parent);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < image.size(); ++i)
            memory.readBytes(recorder.blocks[i].first, image[i].data(),
                             image[i].size());
        sums.readNs += nsSince(t0);
    }
    {
        ScopedSpan span(&tracer, "mem.fork", parent);
        const Clock::time_point t0 = Clock::now();
        mem::SparseMemory child = memory.fork();
        sums.forkUs.push_back(nsSince(t0) / 1e3);
        g_sink = g_sink + child.mappedPages();
    }
}

/** One swtr run of @p op's run 0, timing every traversal. */
void
traversalLayer(const CheckOp &op, const check::ProgramFactory &factory,
               Tracer &tracer, int parent, LayerSums &sums)
{
    const check::DriverConfig cfg = configFor(op, 1);
    sim::MachineConfig mc = cfg.machine;
    mc.schedSeed = kSchedSeed;
    sim::Machine machine(mc);
    check::SwInstantCheckTr checker(cfg.ignores, cfg.idealCostModel);
    checker.attach(machine);
    machine.setRunStartHandler([&] { checker.onRunStart(); });
    machine.setCheckpointHandler([&](const sim::CheckpointInfo &) {
        ScopedSpan span(&tracer, "check.swtrTraversal", parent);
        const Clock::time_point t0 = Clock::now();
        g_sink = g_sink + checker.checkpointHash().raw();
        sums.traversalNs += nsSince(t0);
        sums.traversalBytes +=
            static_cast<double>(checker.lastTraversalBytes());
    });
    auto program = factory();
    machine.run(*program);
}

} // namespace

void
layersCheck(const Options &opts, Tracer &tracer, Result &result)
{
    const std::vector<CheckOp> cycle = cycleFor(opts.seed);
    runtime::ThreadPool pool(kWorkers);

    std::vector<double> factory_us;
    std::vector<double> run_ms;
    std::vector<double> analyze_us;
    std::vector<double> render_us;
    std::vector<double> record_ms;
    double run_ns = 0; ///< Sum of every executeCampaignRun's wall time.
    double capacity = 0; ///< Workers x campaign wall, summed.
    double instrs = 0;
    double stores = 0;
    double misses = 0;

    std::int64_t op_id = 0;
    for (const CheckOp &op : cycle) {
        ScopedSpan op_span(&tracer, "op.check", -1, op_id);
        check::ProgramFactory factory =
            apps::scaledFactory(op.app->name, apps::InputScale::Large);
        {
            ScopedSpan span(&tracer, "apps.factory", op_span.id(), op_id);
            const Clock::time_point t0 = Clock::now();
            auto program = factory();
            factory_us.push_back(secondsSince(t0) * 1e6);
        }

        // runtime::runCampaign's record-then-fan-out protocol, spelled
        // out so every executeCampaignRun gets its own span.
        const check::DriverConfig cfg = configFor(op, kRuns);
        mem::ReplayLog log;
        std::vector<check::RunRecord> records(kRuns);
        std::vector<double> wall_ns(kRuns);
        std::string app_name;
        const Clock::time_point campaign_start = Clock::now();
        const auto execute = [&](int run) {
            ScopedSpan span(&tracer, "check.executeCampaignRun",
                            op_span.id(), op_id);
            const Clock::time_point t0 = Clock::now();
            records[static_cast<std::size_t>(run)] =
                check::executeCampaignRun(
                    cfg, factory, run, log,
                    run == 0 ? mem::DeterministicAllocator::Mode::Record
                             : mem::DeterministicAllocator::Mode::Replay,
                    run == 0 ? &app_name : nullptr);
            wall_ns[static_cast<std::size_t>(run)] = nsSince(t0);
        };
        execute(0);
        record_ms.push_back(wall_ns[0] / 1e6);
        std::vector<std::future<void>> pending;
        for (int run = 1; run < kRuns; ++run)
            pending.push_back(pool.submit([&execute, run] { execute(run); }));
        for (std::future<void> &f : pending)
            f.get();
        const double campaign_ns = nsSince(campaign_start);

        check::DriverReport report;
        {
            ScopedSpan span(&tracer, "check.analyzeCampaign", op_span.id(),
                            op_id);
            const Clock::time_point t0 = Clock::now();
            report = check::analyzeCampaign(cfg, app_name, records);
            analyze_us.push_back(secondsSince(t0) * 1e6);
        }
        {
            ScopedSpan span(&tracer, "check.renderReportJson", op_span.id(),
                            op_id);
            const Clock::time_point t0 = Clock::now();
            const std::string json = check::renderReportJson(report);
            render_us.push_back(secondsSince(t0) * 1e6);
            g_sink = g_sink + json.size();
        }
        result.count(verdictMatches(*op.app, report,
                                    opts.plantWrongExpectation),
                     "check layers: " + op.app->name + "/" + report.scheme +
                         " verdict does not match Table 1");

        for (int run = 0; run < kRuns; ++run) {
            const check::RunRecord &rec =
                records[static_cast<std::size_t>(run)];
            instrs += static_cast<double>(rec.result.nativeInstrs +
                                          rec.result.overheadInstrs);
            stores += static_cast<double>(rec.result.storesHashed);
            misses += static_cast<double>(rec.result.cacheMisses);
            run_ms.push_back(wall_ns[static_cast<std::size_t>(run)] / 1e6);
            run_ns += wall_ns[static_cast<std::size_t>(run)];
        }
        capacity += kWorkers * campaign_ns;
        ++op_id;
    }

    // Stream replays: run 0 of each app, once per app (hw stream, swtr
    // traversals), in cycle order.
    LayerSums sums;
    for (const CheckOp &op : cycle) {
        ScopedSpan op_span(&tracer, "op.replay", -1, op_id++);
        const check::ProgramFactory factory =
            apps::scaledFactory(op.app->name, apps::InputScale::Large);
        if (op.scheme == check::Scheme::HwInc)
            replayLayers(op, factory, tracer, op_span.id(), sums);
        else
            traversalLayer(op, factory, tracer, op_span.id(), sums);
    }

    result.metric("apps.factory_us", median(factory_us), "us");
    result.metric("sim.instrs", instrs, "count");
    result.metric("sim.host_ns_per_instr", run_ns / instrs, "ns");
    result.metric("check.run_ms", median(run_ms), "ms");
    result.metric("check.analyze_us", median(analyze_us), "us");
    result.metric("check.render_us", median(render_us), "us");
    result.metric("runtime.record_ms", median(record_ms), "ms");
    result.metric("runtime.busy_frac", run_ns / capacity, "ratio");
    result.metric("mhm.stores", stores, "count");
    result.metric("mhm.ns_per_store", sums.mhmNs / sums.mhmStores, "ns");
    result.metric("cache.l1_misses", misses, "count");
    result.metric("cache.ns_per_access", sums.l1Ns / sums.l1Accesses, "ns");
    result.metric("hashing.ns_per_byte", sums.hashNs / sums.imageBytes,
                  "ns");
    result.metric("hashing.traversal_bytes", sums.traversalBytes, "count");
    result.metric("hashing.traversal_ns_per_byte",
                  sums.traversalNs / sums.traversalBytes, "ns");
    result.metric("mem.read_ns_per_byte", sums.readNs / sums.imageBytes,
                  "ns");
    result.metric("mem.write_ns_per_byte", sums.writeNs / sums.imageBytes,
                  "ns");
    result.metric("mem.fork_us", median(sums.forkUs), "us");
}

} // namespace perfbench
