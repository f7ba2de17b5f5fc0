/**
 * @file
 * The `explore` workload: sequential explore::explore to exhaustion on
 * the bug-seeded radix, waterNS and waterSP apps (bench/micro_explore's
 * cases, sized up), checkpoints on. Each app is searched twice per
 * cycle: `state,dpor` (the main class) and `state` alone (the alt
 * class). The checkpoint tree, COW memory, DPOR and slice
 * happens-before do the work here.
 */

#include <memory>
#include <optional>

#include <sys/resource.h>

#include "apps/apps.hpp"
#include "explore/explorer.hpp"
#include "mem/memory.hpp"
#include "workloads.hpp"

using namespace icheck;

namespace perfbench
{
namespace
{

/** 3 samples per class per cycle; a 25 s run completes about 26
 *  cycles (78 samples), and p85 leaves about 12 beyond it. */
constexpr double kTailQuantile = 0.85;

/** Far above any healthy search; a capped search fails the gate. */
constexpr int kMaxRuns = 300000;

struct ExploreApp
{
    std::string label;
    check::ProgramFactory factory;
};

std::vector<ExploreApp>
exploreApps()
{
    using namespace icheck::apps;
    return {
        {"radix(4,16,order)",
         [] { return std::make_unique<Radix>(4, 16, BugSeed::OrderViolation); }},
        {"waterNS(4,6,1,semantic)",
         [] { return std::make_unique<WaterNS>(4, 6, 1, BugSeed::Semantic); }},
        {"waterSP(4,6,1,atomicity)",
         [] {
             return std::make_unique<WaterSP>(4, 6, 1,
                                              BugSeed::AtomicityViolation);
         }},
    };
}

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig cfg;
    cfg.numCores = 2;
    return cfg;
}

explore::ExploreConfig
exploreConfig(bool dpor)
{
    explore::ExploreConfig cfg;
    cfg.prune = explore::PruneMode::StateHash;
    cfg.dpor = dpor;
    cfg.maxRuns = kMaxRuns;
    cfg.quantum = 1u << 20; // run-to-block: decisions at sync points
    cfg.checkpoints = true;
    return cfg;
}

struct SearchOp
{
    std::size_t app = 0;
    bool dpor = false;
};

std::vector<SearchOp>
cycleFor(std::uint64_t seed, std::size_t apps)
{
    std::vector<SearchOp> cycle;
    for (std::size_t a = 0; a < apps; ++a)
        for (const bool dpor : {true, false})
            cycle.push_back({a, dpor});
    Rng rng(seed);
    rng.shuffle(cycle);
    return cycle;
}

/** Factories and one warm-up search of every app and mode. Returns the
 *  warm-up's final-state sets by app, the reference for the gate. */
std::vector<std::set<HashWord>>
setUp(const std::vector<ExploreApp> &apps)
{
    std::vector<std::set<HashWord>> reference(apps.size());
    for (const SearchOp &op : cycleFor(0, apps.size())) {
        const explore::ExploreResult r = explore::explore(
            apps[op.app].factory, machineConfig(), exploreConfig(op.dpor));
        if (!op.dpor)
            reference[op.app] = r.finalStates;
    }
    return reference;
}

} // namespace

LoopStats
runExplore(const Options &opts, double seconds, Tracer *tracer,
           Result &result)
{
    HostSpeed host;
    std::vector<double> setups;
    std::vector<ExploreApp> apps;
    std::vector<std::set<HashWord>> reference;
    for (int i = 0; i < kSetupRepeats; ++i) {
        host.sample();
        const Clock::time_point start = Clock::now();
        apps = exploreApps();
        reference = setUp(apps);
        setups.push_back(secondsSince(start));
    }

    const std::vector<SearchOp> cycle = cycleFor(opts.seed, apps.size());
    std::vector<std::string> labels;
    for (const SearchOp &op : cycle)
        labels.push_back(apps[op.app].label + (op.dpor ? "+dpor" : ""));
    result.cycle(labels);
    LatencyClass dpor{"state,dpor searches to exhaustion", kTailQuantile,
                      {}};
    LatencyClass state{"state searches to exhaustion", kTailQuantile, {}};

    LoopStats stats;
    const Clock::time_point start = Clock::now();
    while (stats.cycles == 0 ||
           secondsSince(start) - host.seconds() < seconds) {
        // The gate: every search exhausts, and state,dpor finds exactly
        // the final states plain state pruning finds.
        for (const SearchOp &op : cycle) {
            const auto op_id = static_cast<std::int64_t>(stats.ops);
            ScopedSpan op_span(tracer, "op.explore", -1, op_id);
            const Clock::time_point t0 = Clock::now();
            explore::ExploreResult r;
            {
                ScopedSpan span(tracer, "explore.explore", op_span.id(),
                                op_id);
                r = explore::explore(apps[op.app].factory, machineConfig(),
                                     exploreConfig(op.dpor));
            }
            (op.dpor ? dpor : state).ms.push_back(msSince(t0));
            const std::string what = "explore: " + apps[op.app].label +
                                     (op.dpor ? " state,dpor" : " state");
            result.count(r.exhausted && r.finalStates == reference[op.app],
                         what + (r.exhausted ? " final states differ"
                                             : " did not exhaust"));
            ++stats.ops;
            host.sample();
        }
        ++stats.cycles;
    }
    const double wall = secondsSince(start) - host.seconds();
    stats.opsPerSecond = static_cast<double>(stats.ops) / wall;
    stats.hostFactor = host.factor();

    if (tracer == nullptr) {
        rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        result.timing("setup_s", median(setups), "s", host);
        result.rate("ops_per_s", stats.opsPerSecond, "1/s", host);
        result.latency("main_", dpor, host);
        result.latency("alt_", state, host);
        result.hostSpeed(host);
        result.metric("peak_rss_mb",
                      static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    }
    return stats;
}

void
layersExplore(const Options &opts, Tracer &tracer, Result &result)
{
    const std::vector<ExploreApp> apps = exploreApps();
    const std::vector<std::set<HashWord>> reference = setUp(apps);
    explore::ExploreStats total;
    double nodes = 0;
    double search_us = 0;
    std::int64_t op_id = 0;
    for (const SearchOp &op : cycleFor(opts.seed, apps.size())) {
        ScopedSpan op_span(&tracer, "op.explore", -1, op_id);
        const Clock::time_point t0 = Clock::now();
        explore::ExploreResult r;
        {
            ScopedSpan span(&tracer, "explore.explore", op_span.id(), op_id);
            r = explore::explore(apps[op.app].factory, machineConfig(),
                                 exploreConfig(op.dpor));
        }
        search_us += secondsSince(t0) * 1e6;
        result.count(r.exhausted && r.finalStates == reference[op.app],
                     "explore layers: " + apps[op.app].label +
                         " search did not reproduce its final states");
        nodes += r.runsExecuted;
        total.merge(r.stats);
        ++op_id;
    }

    // One cold scripted run at the empty prefix, DPOR on and off: the
    // cost prefix sharing saves per node, and DPOR's per-run bookkeeping.
    std::vector<double> cold_us;
    std::vector<double> dpor_us;
    const explore::detail::SignatureInsert always_new = [](std::uint64_t) {
        return true;
    };
    for (int rep = 0; rep < 5; ++rep) {
        for (const ExploreApp &app : apps) {
            for (const bool dpor : {false, true}) {
                ScopedSpan span(&tracer, "explore.detail.runOnce", -1,
                                op_id);
                const Clock::time_point t0 = Clock::now();
                explore::detail::runOnce(app.factory, machineConfig(),
                                         exploreConfig(dpor), {},
                                         always_new);
                (dpor ? dpor_us : cold_us)
                    .push_back(secondsSince(t0) * 1e6);
            }
        }
    }

    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    result.metric("explore.nodes", nodes, "count");
    result.metric("explore.us_per_node", search_us / nodes, "us");
    result.metric("explore.cold_run_us", median(cold_us), "us");
    result.metric("explore.checkpoint_hit_ratio",
                  ratio(static_cast<double>(total.checkpointHits),
                        static_cast<double>(total.checkpointHits +
                                            total.checkpointMisses)),
                  "ratio");
    result.metric("explore.restore_ratio",
                  ratio(static_cast<double>(total.decisionsRestored),
                        static_cast<double>(total.decisionsRestored +
                                            total.decisionsExecuted)),
                  "ratio");
    result.metric("explore.sig_unique_ratio",
                  ratio(static_cast<double>(total.sigUnique),
                        static_cast<double>(total.sigInserts)),
                  "ratio");
    result.metric("explore.pages_cow_cloned",
                  static_cast<double>(total.pagesCowCloned), "count");
    result.metric("explore.checkpoint_bytes",
                  static_cast<double>(total.checkpointBytes), "bytes");
    result.metric("dpor.races", static_cast<double>(total.dporRaces),
                  "count");
    result.metric("dpor.backtracks",
                  static_cast<double>(total.backtracksInserted), "count");
    result.metric("dpor.pruned", static_cast<double>(total.dporPruned),
                  "count");
    result.metric("dpor.sleep_set_hits",
                  static_cast<double>(total.sleepSetHits), "count");
    result.metric("dpor.run_overhead_us", median(dpor_us) - median(cold_us),
                  "us");
}

} // namespace perfbench
