/**
 * @file
 * Happens-before race detection on simulated programs, and the benign-
 * race filter of Section 6.1.
 */

#include <gtest/gtest.h>
#include <memory>

#include "apps/apps.hpp"
#include "race/benign_filter.hpp"
#include "race/race_detector.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"

namespace icheck::race
{
namespace
{

using sim::LambdaProgram;

sim::MachineConfig
config(std::uint64_t seed)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.schedSeed = seed;
    cfg.minQuantum = 1;
    cfg.maxQuantum = 5;
    return cfg;
}

TEST(RaceDetector, LockProtectedProgramIsClean)
{
    sim::Machine machine(config(3));
    RaceDetector detector;
    machine.addListener(&detector);
    sim::MutexId mutex_id = 0;
    LambdaProgram prog(
        "clean", 4,
        [&](sim::SetupCtx &ctx) {
            ctx.global("x", mem::tInt64());
            mutex_id = ctx.mutex();
        },
        [&](sim::ThreadCtx &ctx) {
            for (int i = 0; i < 20; ++i) {
                ctx.lock(mutex_id);
                ctx.store<std::int64_t>(
                    ctx.global("x"),
                    ctx.load<std::int64_t>(ctx.global("x")) + 1);
                ctx.unlock(mutex_id);
            }
        });
    machine.run(prog);
    EXPECT_TRUE(detector.races().empty());
    EXPECT_GT(detector.accessesChecked(), 0u);
}

TEST(RaceDetector, UnlockedSharedCounterRaces)
{
    sim::Machine machine(config(3));
    RaceDetector detector;
    machine.addListener(&detector);
    LambdaProgram prog(
        "racy", 4,
        [](sim::SetupCtx &ctx) { ctx.global("x", mem::tInt64()); },
        [](sim::ThreadCtx &ctx) {
            for (int i = 0; i < 20; ++i) {
                ctx.store<std::int64_t>(
                    ctx.global("x"),
                    ctx.load<std::int64_t>(ctx.global("x")) + 1);
            }
        });
    machine.run(prog);
    EXPECT_FALSE(detector.races().empty());
    EXPECT_EQ(detector.racyGranules().size(), 1u);
}

TEST(RaceDetector, BarrierOrdersCrossThreadAccesses)
{
    sim::Machine machine(config(5));
    RaceDetector detector;
    machine.addListener(&detector);
    sim::BarrierId barrier_id = 0;
    LambdaProgram prog(
        "barriered", 4,
        [&](sim::SetupCtx &ctx) {
            ctx.global("stage", mem::tArray(mem::tInt64(), 4));
            barrier_id = ctx.barrier(4);
        },
        [&](sim::ThreadCtx &ctx) {
            const Addr stage = ctx.global("stage");
            // Phase 1: write own slot.
            ctx.store<std::int64_t>(stage + 8 * ctx.tid(), ctx.tid());
            ctx.barrier(barrier_id);
            // Phase 2: read everyone's slot (ordered by the barrier).
            std::int64_t sum = 0;
            for (ThreadId t = 0; t < 4; ++t)
                sum += ctx.load<std::int64_t>(stage + 8 * t);
            ctx.tick(static_cast<InstCount>(sum >= 0 ? 1 : 2));
        });
    machine.run(prog);
    EXPECT_TRUE(detector.races().empty())
        << "barrier-separated accesses must not be reported";
}

TEST(RaceDetector, InstrumentationStoresAreNotAnalyzed)
{
    sim::Machine machine(config(7));
    machine.setInstrumentation(true); // zeroing/scrubbing stores happen
    RaceDetector detector;
    machine.addListener(&detector);
    LambdaProgram prog(
        "allocfree", 2, nullptr,
        [](sim::ThreadCtx &ctx) {
            // Disjoint per-thread heap work; the only shared-looking
            // stores are the checker's own zero/scrub stores.
            std::string site = "t";
            site += std::to_string(ctx.tid());
            const Addr block =
                ctx.malloc(site, mem::tArray(mem::tInt64(), 8));
            for (int i = 0; i < 8; ++i)
                ctx.store<std::int64_t>(block + 8 * i, i);
            ctx.free(block);
        });
    machine.run(prog);
    EXPECT_TRUE(detector.races().empty());
}

TEST(RaceDetector, VolrendHandCodedBarrierRaceIsFound)
{
    // The paper's volrend has a benign race in a hand-coded barrier; the
    // detector must see it (it is a real race), and the filter must
    // classify it benign (volrend is externally deterministic).
    sim::Machine machine(config(11));
    RaceDetector detector;
    machine.addListener(&detector);
    apps::Volrend volrend(4, /*frames=*/2, /*pixels=*/64);
    machine.run(volrend);
    EXPECT_FALSE(detector.races().empty())
        << "the generation-flag spin is a data race";
}

TEST(BenignFilter, RaceFreeProgramReportsNoRaces)
{
    const FilterReport report = classifyRaces(
        [] {
            return std::make_unique<apps::Blackscholes>(4, 32u, 2u);
        },
        config(1), /*runs=*/6, /*base_seed=*/100);
    EXPECT_EQ(report.verdict, RaceVerdict::NoRaces);
}

TEST(BenignFilter, VolrendRaceClassifiedBenign)
{
    const FilterReport report = classifyRaces(
        [] { return std::make_unique<apps::Volrend>(4, 2u, 64u); },
        config(1), /*runs=*/8, /*base_seed=*/100);
    EXPECT_EQ(report.verdict, RaceVerdict::Benign)
        << "distinct final states: " << report.distinctStates;
    EXPECT_FALSE(report.races.empty());
}

TEST(BenignFilter, HarmfulRaceChangesState)
{
    const FilterReport report = classifyRaces(
        [] {
            return std::make_unique<sim::LambdaProgram>(
                "harmful", 4,
                [](sim::SetupCtx &ctx) {
                    ctx.global("w", mem::tInt64());
                },
                [](sim::ThreadCtx &ctx) {
                    for (int i = 0; i < 10; ++i)
                        ctx.store<std::int64_t>(ctx.global("w"),
                                                ctx.tid() * 10 + i);
                });
        },
        config(1), /*runs=*/8, /*base_seed=*/100);
    EXPECT_EQ(report.verdict, RaceVerdict::Harmful);
    EXPECT_GT(report.distinctStates, 1u);
}

} // namespace
} // namespace icheck::race

namespace icheck::race
{
namespace
{

TEST(RaceDetector, DescribeRacesSymbolizesOwners)
{
    sim::Machine machine(config(19));
    RaceDetector detector;
    machine.addListener(&detector);
    Addr block = 0;
    sim::LambdaProgram prog(
        "sym", 2,
        [](sim::SetupCtx &ctx) { ctx.global("shared", mem::tInt64()); },
        [&](sim::ThreadCtx &ctx) {
            if (ctx.tid() == 0)
                block = ctx.malloc("sym.cpp:buf",
                                   mem::tArray(mem::tInt64(), 4));
            // Race on the global from both threads.
            for (int i = 0; i < 10; ++i)
                ctx.store<std::int64_t>(ctx.global("shared"),
                                        ctx.tid() + i);
        });
    machine.run(prog);
    ASSERT_FALSE(detector.races().empty());
    const auto lines = describeRaces(detector.races(), machine);
    ASSERT_EQ(lines.size(), detector.races().size());
    bool saw_global = false;
    for (const std::string &line : lines) {
        if (line.find("global:shared") != std::string::npos)
            saw_global = true;
        EXPECT_NE(line.find("race between"), std::string::npos) << line;
    }
    EXPECT_TRUE(saw_global);
}

TEST(RaceDetector, RaceKindNames)
{
    EXPECT_EQ(raceKindName(RaceKind::WriteWrite), "write-write");
    EXPECT_EQ(raceKindName(RaceKind::ReadWrite), "read-write");
    EXPECT_EQ(raceKindName(RaceKind::WriteRead), "write-read");
}

} // namespace
} // namespace icheck::race
