/**
 * @file
 * Hot-path throughput of the access/hash pipeline, as one machine-readable
 * number per layer (default output BENCH_hotpath.json):
 *
 *   - store-hash loop: Mhm::observeStore stores/sec (basic + clustered);
 *   - span hashing:    StateHasher::spanHash bytes/sec;
 *   - memory:          SparseMemory word access/sec and bulk bytes/sec;
 *   - end-to-end:      Machine accesses/sec, native and with the HW-Inc
 *                      checker attached;
 *   - listener-attached: Machine accesses/sec with the FastTrack race
 *                      detector armed (loads and stores, no values), and
 *                      with only the output hasher attached (no access
 *                      interest at all).
 *
 * Usage: micro_hotpath [out.json] [--quick]
 *
 * --quick shrinks every loop ~10x for CI smoke runs; any other flag is a
 * usage error (exit 2). Numbers are host-specific: read them as ratios
 * within one run. Same-host comparisons across commits belong to
 * `python3 perfbench/run.py`.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/io_hash.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/state_hash.hpp"
#include "mem/memory.hpp"
#include "mhm/mhm.hpp"
#include "race/race_detector.hpp"
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
    "storeHashStoresPerSec",
    "storeHashClusteredStoresPerSec",
    "spanHashBytesPerSec",
    "memAccessesPerSec",
    "memBulkBytesPerSec",
    "machineNativeAccessesPerSec",
    "machineHwIncAccessesPerSec",
    "machineRaceAccessesPerSec",
    "machineCheckAccessesPerSec",
};

struct Metrics
{
    double values[9] = {};

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

/** Mhm::observeStore throughput: 8-byte integer stores. */
double
storeHashRate(mhm::Mhm &module, std::uint64_t stores)
{
    return bestRate([&] {
        module.reset();
        module.startHashing();
        module.stopFpRounding();
        Xoshiro256 rng(1);
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < stores; ++i) {
            const Addr addr = 0x1000 + (rng.next() & 0x7ff8);
            const std::uint64_t value = rng.next() | 1;
            module.observeStore(addr, prev, value, 8,
                                hashing::ValueClass::Integer);
            prev = value;
        }
        // Fold the TH so the loop cannot be optimized out.
        volatile HashWord sink = module.th().raw();
        (void)sink;
        return stores;
    });
}

/** StateHasher::spanHash throughput over a 64 KiB buffer. */
double
spanHashRate(std::uint64_t passes)
{
    const hashing::Crc64LocationHasher hasher;
    const hashing::StateHasher pipeline(hasher,
                                        hashing::FpRoundMode::none());
    std::vector<std::uint8_t> data(64 * 1024);
    Xoshiro256 rng(2);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.next());
    return bestRate([&] {
        hashing::ModHash sum;
        for (std::uint64_t p = 0; p < passes; ++p)
            sum += pipeline.spanHash(0x4000 + p, data.data(), data.size());
        volatile HashWord sink = sum.raw();
        (void)sink;
        return passes * data.size();
    });
}

/** SparseMemory word-access throughput (one write + one read per step). */
double
memAccessRate(std::uint64_t steps)
{
    return bestRate([&] {
        mem::SparseMemory memory;
        Xoshiro256 rng(3);
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < steps; ++i) {
            const Addr addr = 0x10000 + (rng.next() & 0x3fff8);
            memory.writeValue(addr, 8, acc + i);
            acc ^= memory.readValue(addr, 8);
        }
        volatile std::uint64_t sink = acc;
        (void)sink;
        return 2 * steps;
    });
}

/** SparseMemory bulk read/write throughput over 256 KiB blocks. */
double
memBulkRate(std::uint64_t passes)
{
    std::vector<std::uint8_t> block(256 * 1024);
    Xoshiro256 rng(4);
    for (auto &byte : block)
        byte = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> back(block.size());
    return bestRate([&] {
        mem::SparseMemory memory;
        std::uint64_t bytes = 0;
        for (std::uint64_t p = 0; p < passes; ++p) {
            // Unaligned base so every pass straddles page boundaries.
            const Addr base = 0x20000 + 37 * (p % 5);
            memory.writeBytes(base, block.data(), block.size());
            memory.readBytes(base, back.data(), back.size());
            bytes += 2 * block.size();
        }
        volatile std::uint8_t sink = back[back.size() / 2];
        (void)sink;
        return bytes;
    });
}

/** A write-heavy 4-thread kernel with barrier checkpoints. */
std::unique_ptr<sim::LambdaProgram>
kernel(std::shared_ptr<sim::BarrierId> barrier_id, int phases)
{
    return std::make_unique<sim::LambdaProgram>(
        "hotpath-kernel", 4,
        [barrier_id](sim::SetupCtx &ctx) {
            ctx.global("data", mem::tArray(mem::tInt64(), 1024));
            *barrier_id = ctx.barrier(4);
        },
        [barrier_id, phases](sim::ThreadCtx &ctx) {
            const Addr data = ctx.global("data");
            for (int phase = 0; phase < phases; ++phase) {
                for (int i = 0; i < 256; ++i) {
                    const Addr slot =
                        data + 8 * ((ctx.tid() * 256 + i) % 1024);
                    // 3 stores per load: the scatter/update shape where
                    // values-blind listeners leave the most on the table.
                    const std::int64_t v =
                        ctx.load<std::int64_t>(slot) + i + 1;
                    ctx.store<std::int64_t>(slot, v);
                    ctx.store<std::int64_t>(slot, v ^ (i << 1));
                    ctx.store<std::int64_t>(slot, v + 3);
                }
                ctx.outputValue<std::int32_t>(phase);
                ctx.barrier(*barrier_id);
            }
        });
}

/** End-to-end machine accesses/sec, optionally with a checker attached. */
double
machineRate(std::optional<check::Scheme> scheme, int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            if (!scheme.has_value()) {
                // The paper's baseline: an uninstrumented native run does
                // not pay for hashing at all.
                cfg.hashingArmed = false;
            }
            sim::Machine machine(cfg);
            std::unique_ptr<check::Checker> checker;
            if (scheme.has_value()) {
                checker = check::makeChecker(*scheme);
                checker->attach(machine);
                machine.setRunStartHandler([&] { checker->onRunStart(); });
                machine.setCheckpointHandler(
                    [&](const sim::CheckpointInfo &) {
                        volatile HashWord sink =
                            checker->checkpointHash().raw();
                        (void)sink;
                    });
            }
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

/**
 * The listener-attached scenario: a native (hashing-off) run with the
 * FastTrack race detector armed. The detector subscribes to loads and
 * stores but not store values, so the old-value read is skipped.
 */
double
machineRaceRate(int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            cfg.hashingArmed = false;
            race::RaceDetector detector;
            sim::Machine machine(cfg);
            machine.addListener(&detector);
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            volatile std::uint64_t sink = detector.accessesChecked();
            (void)sink;
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

/**
 * The checker-listener scenario: hashing off, the output hasher attached
 * — what a plain `icheck check` campaign run pays for its own listener.
 * The hasher declares no access interest, so no load or store reaches it.
 */
double
machineCheckRate(int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            cfg.hashingArmed = false;
            check::OutputHasher hasher;
            sim::Machine machine(cfg);
            machine.addListener(&hasher);
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            volatile HashWord sink = hasher.value();
            (void)sink;
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_hotpath.json";
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

    const std::uint64_t scale = quick ? 1 : 10;
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("micro_hotpath (%s): hardware concurrency %u\n",
                quick ? "quick" : "full", hw);

    Metrics cur;
    {
        hashing::Crc64LocationHasher hasher;
        mhm::BasicMhm basic(hasher, hashing::FpRoundMode::paperDefault());
        cur[0] = storeHashRate(basic, 200'000 * scale);
        mhm::ClusteredMhm clustered(hasher,
                                    hashing::FpRoundMode::paperDefault(),
                                    4, mhm::DispatchPolicy::RoundRobin, 1);
        cur[1] = storeHashRate(clustered, 200'000 * scale);
    }
    cur[2] = spanHashRate(16 * scale);
    cur[3] = memAccessRate(400'000 * scale);
    cur[4] = memBulkRate(8 * scale);
    cur[5] = machineRate(std::nullopt, static_cast<int>(2 * scale), 8);
    cur[6] = machineRate(check::Scheme::HwInc,
                         static_cast<int>(2 * scale), 8);
    cur[7] = machineRaceRate(static_cast<int>(2 * scale), 8);
    cur[8] = machineCheckRate(static_cast<int>(2 * scale), 8);

    for (std::size_t i = 0; i < kKeys.size(); ++i)
        std::printf("%34s %14.0f\n", kKeys[i].c_str(), cur[i]);

    JsonWriter json;
    json.beginObject()
        .key("bench").string("micro_hotpath")
        .key("quick").boolean(quick)
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
