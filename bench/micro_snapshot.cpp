/**
 * @file
 * Snapshot/prefix-sharing throughput, as one machine-readable number per
 * layer (default output BENCH_snapshot.json):
 *
 *   - memory:   SparseMemory::fork() pages/sec (COW pointer copies) vs
 *               clone() pages/sec (full deep copy);
 *   - machine:  restore-checkpoint-then-run-suffix runs/sec vs cold
 *               re-execution of the same schedule prefix;
 *   - explorer: end-to-end explore() nodes/sec with checkpointing on
 *               vs off, on a branchy two-thread mini-workload.
 *
 * Usage: micro_snapshot [out.json] [--quick]
 *
 * --quick shrinks every loop for CI smoke runs; any other flag is a
 * usage error (exit 2). Each warm metric and its cold counterpart come
 * from the same process, so their ratio is the snapshot win on this
 * host. Builds without snapshot support (TSan) measure the cold path
 * for the warm metrics too. Same-host comparisons across commits belong
 * to `python3 perfbench/run.py`.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "explore/explorer.hpp"
#include "explore/snapshot_tree.hpp"
#include "mem/memory.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"

using namespace icheck;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kReps = 3; // best-of to damp host noise

/** The metric keys, in emission order. */
const std::vector<std::string> kKeys = {
    "memForkPagesPerSec",
    "memClonePagesPerSec",
    "restoreSuffixRunsPerSec",
    "coldRerunRunsPerSec",
    "exploreNodesPerSecOn",
    "exploreNodesPerSecOff",
};

struct Metrics
{
    double values[6] = {};

    double &operator[](std::size_t i) { return values[i]; }
    double operator[](std::size_t i) const { return values[i]; }
};

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Best-of-kReps items/sec of @p body, which returns items done. */
template <typename Fn>
double
bestRate(Fn &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto start = Clock::now();
        const double items = static_cast<double>(body());
        const double secs = seconds(start);
        if (secs > 0.0 && items / secs > best)
            best = items / secs;
    }
    return best;
}

/** Map @p pages distinct pages with one word written to each. */
mem::SparseMemory
populatedMemory(std::size_t pages)
{
    mem::SparseMemory memory;
    for (std::size_t p = 0; p < pages; ++p)
        memory.writeValue(0x10000 + p * mem::pageSize, 8, p + 1);
    return memory;
}

/** fork() throughput in shared pages/sec (pointer copies only). */
double
memForkRate(std::size_t pages, std::uint64_t forks)
{
    mem::SparseMemory memory = populatedMemory(pages);
    return bestRate([&] {
        std::uint64_t shared = 0;
        for (std::uint64_t i = 0; i < forks; ++i) {
            mem::SparseMemory child = memory.fork();
            shared += child.mappedPages();
        }
        volatile std::uint64_t sink = shared;
        (void)sink;
        return shared;
    });
}

/** clone() throughput in deep-copied pages/sec. */
double
memCloneRate(std::size_t pages, std::uint64_t clones)
{
    mem::SparseMemory memory = populatedMemory(pages);
    return bestRate([&] {
        std::uint64_t copied = 0;
        for (std::uint64_t i = 0; i < clones; ++i) {
            mem::SparseMemory child = memory.clone();
            copied += child.mappedPages();
        }
        volatile std::uint64_t sink = copied;
        (void)sink;
        return copied;
    });
}

/**
 * The branchy mini-workload: two threads hammering a shared array with
 * no synchronization, so every quantum boundary is a real scheduling
 * decision with fanout 2 until a thread retires.
 */
check::ProgramFactory
branchyFactory()
{
    return [] {
        return std::make_unique<sim::LambdaProgram>(
            "snapshot-branchy", 2,
            [](sim::SetupCtx &ctx) {
                const Addr data =
                    ctx.global("data", mem::tArray(mem::tInt64(), 64));
                for (int i = 0; i < 64; ++i)
                    ctx.init<std::int64_t>(data + 8 * i, i);
            },
            [](sim::ThreadCtx &ctx) {
                const Addr data = ctx.global("data");
                for (int i = 0; i < 240; ++i) {
                    const Addr slot =
                        data + 8 * ((ctx.tid() * 31 + i) % 64);
                    ctx.store<std::int64_t>(
                        slot, ctx.load<std::int64_t>(slot) + 1);
                }
            });
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
exploreConfig(bool checkpoints)
{
    explore::ExploreConfig cfg;
    cfg.prune = explore::PruneMode::None;
    cfg.quantum = 4;
    cfg.checkpoints = checkpoints;
    return cfg;
}

/** A deep alternating schedule prefix (both threads stay runnable). */
std::vector<std::uint32_t>
deepPrefix(std::size_t depth)
{
    std::vector<std::uint32_t> prefix(depth);
    for (std::size_t d = 0; d < depth; ++d)
        prefix[d] = static_cast<std::uint32_t>(d % 2);
    return prefix;
}

/**
 * Restore-then-suffix runs/sec: one persistent engine re-runs the same
 * deep prefix, hitting the checkpoint taken at its tip every time, so
 * each iteration pays one restore plus the schedule suffix only.
 */
double
restoreSuffixRate(std::uint64_t runs)
{
    const check::ProgramFactory factory = branchyFactory();
    const explore::detail::SignatureInsert insert_sig =
        [](std::uint64_t) { return true; };
    explore::CheckpointTree tree(64ULL << 20);
    explore::PrefixEngine engine(factory, machineConfig(),
                                 exploreConfig(true), tree, 0);
    const std::vector<std::uint32_t> prefix = deepPrefix(200);
    engine.runOnce(prefix, insert_sig); // populate the checkpoint tree
    return bestRate([&] {
        volatile HashWord sink = 0;
        for (std::uint64_t i = 0; i < runs; ++i)
            sink = engine.runOnce(prefix, insert_sig).finalState;
        (void)sink;
        return runs;
    });
}

/** Cold re-execution of the same schedule prefix, runs/sec. */
double
coldRerunRate(std::uint64_t runs)
{
    const check::ProgramFactory factory = branchyFactory();
    const explore::detail::SignatureInsert insert_sig =
        [](std::uint64_t) { return true; };
    const explore::ExploreConfig cfg = exploreConfig(false);
    const std::vector<std::uint32_t> prefix = deepPrefix(200);
    return bestRate([&] {
        volatile HashWord sink = 0;
        for (std::uint64_t i = 0; i < runs; ++i)
            sink = explore::detail::runOnce(factory, machineConfig(), cfg,
                                            prefix, insert_sig)
                       .finalState;
        (void)sink;
        return runs;
    });
}

/** End-to-end explore() nodes (schedules) per second. */
double
exploreRate(bool checkpoints, int max_runs)
{
    const check::ProgramFactory factory = branchyFactory();
    explore::ExploreConfig cfg = exploreConfig(checkpoints);
    cfg.maxRuns = max_runs;
    return bestRate([&] {
        const explore::ExploreResult result =
            explore::explore(factory, machineConfig(), cfg);
        return result.runsExecuted;
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_snapshot.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--", 0) != 0) {
            out_path = arg;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return 2;
        }
    }

    const std::uint64_t scale = quick ? 1 : 8;
    const unsigned hw = std::thread::hardware_concurrency();
    const bool warm = sim::Machine::snapshotSupported();

    std::printf("micro_snapshot (%s%s): hardware concurrency %u\n",
                quick ? "quick" : "full",
                warm ? "" : ", checkpoints off", hw);

    Metrics cur;
    cur[0] = memForkRate(512, 50 * scale);
    cur[1] = memCloneRate(512, 5 * scale);
    if (warm) {
        cur[2] = restoreSuffixRate(25 * scale);
        cur[4] = exploreRate(true, static_cast<int>(40 * scale));
    } else {
        // No snapshot support: every "restore" is a cold re-run and
        // exploration never shares prefixes.
        cur[2] = coldRerunRate(10 * scale);
        cur[4] = exploreRate(false, static_cast<int>(40 * scale));
    }
    cur[3] = coldRerunRate(10 * scale);
    cur[5] = exploreRate(false, static_cast<int>(40 * scale));

    for (std::size_t i = 0; i < kKeys.size(); ++i)
        std::printf("%28s %14.0f\n", kKeys[i].c_str(), cur[i]);

    JsonWriter json;
    json.beginObject()
        .key("bench").string("micro_snapshot")
        .key("quick").boolean(quick)
        .key("checkpointing").boolean(warm)
        .key("hardwareConcurrency").uint64(hw)
        .key("current")
        .beginObject();
    for (std::size_t i = 0; i < kKeys.size(); ++i)
        json.key(kKeys[i]).fixed(cur[i], 0);
    json.endObject().endObject();

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "%s\n", json.take().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
