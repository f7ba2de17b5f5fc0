/**
 * @file
 * Property-based fuzzing of the whole stack: generate random parallel
 * programs (mixed-width stores, FP accumulation, locked sections,
 * malloc/free churn, barriers) and assert the system's core invariants on
 * each — tri-scheme hash equality, run reproducibility, and verdict
 * consistency across schemes.
 */

#include <gtest/gtest.h>
#include <memory>

#include "check/checker.hpp"
#include "check/driver.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace icheck
{
namespace
{

/**
 * A random program: @p rounds barrier-separated rounds; per round each
 * thread performs a seeded mix of typed stores, loads, locked FP
 * read-modify-writes, and allocation churn over a shared arena.
 */
check::ProgramFactory
randomProgram(std::uint64_t program_seed)
{
    return [program_seed] {
        struct Ids
        {
            sim::MutexId mutex = 0;
            sim::BarrierId barrier = 0;
        };
        auto ids = std::make_shared<Ids>();
        return std::make_unique<sim::LambdaProgram>(
            "fuzz" + std::to_string(program_seed), 4,
            [ids](sim::SetupCtx &ctx) {
                ctx.global("arena", mem::tArray(mem::tInt64(), 64));
                ctx.global("facc", mem::tDouble());
                ctx.init<double>(ctx.addressOf("facc"), 0.0005);
                ids->mutex = ctx.mutex();
                ids->barrier = ctx.barrier(4);
            },
            [ids, program_seed](sim::ThreadCtx &ctx) {
                Xoshiro256 gen(program_seed * 1000003 + ctx.tid());
                const Addr arena = ctx.global("arena");
                const Addr facc = ctx.global("facc");
                Addr block = 0;
                for (int round = 0; round < 3; ++round) {
                    for (int op = 0; op < 12; ++op) {
                        switch (gen.below(6)) {
                          case 0: {
                            // Typed store into this thread's arena slice.
                            const Addr slot =
                                arena +
                                8 * (ctx.tid() * 16 + gen.below(16));
                            switch (gen.below(3)) {
                              case 0:
                                ctx.store<std::uint8_t>(
                                    slot, static_cast<std::uint8_t>(
                                              gen.next()));
                                break;
                              case 1:
                                ctx.store<std::uint16_t>(
                                    slot + 2,
                                    static_cast<std::uint16_t>(
                                        gen.next()));
                                break;
                              default:
                                ctx.store<std::int64_t>(
                                    slot, static_cast<std::int64_t>(
                                              gen.next()));
                            }
                            break;
                          }
                          case 1:
                            (void)ctx.load<std::int64_t>(
                                arena + 8 * gen.below(64));
                            break;
                          case 2: {
                            // Locked FP accumulation (schedule-ordered).
                            ctx.lock(ids->mutex);
                            const double term =
                                1.0 / (2.0 + gen.below(7));
                            ctx.store<double>(
                                facc, ctx.load<double>(facc) + term);
                            ctx.unlock(ids->mutex);
                            break;
                          }
                          case 3:
                            if (block == 0) {
                                block = ctx.malloc(
                                    "fuzz.cpp:blk",
                                    mem::tArray(mem::tDouble(), 4));
                            }
                            break;
                          case 4:
                            if (block != 0) {
                                ctx.store<double>(
                                    block + 8 * gen.below(4),
                                    gen.uniform());
                            }
                            break;
                          default:
                            if (block != 0 && gen.chance(0.3)) {
                                ctx.free(block);
                                block = 0;
                            } else {
                                ctx.tick(5);
                            }
                        }
                    }
                    ctx.barrier(ids->barrier);
                }
                if (block != 0)
                    ctx.free(block);
            });
    };
}

std::vector<HashWord>
traceOf(const check::ProgramFactory &factory, check::Scheme scheme,
        std::uint64_t sched_seed, mem::ReplayLog *log,
        mem::DeterministicAllocator::Mode mode)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.schedSeed = sched_seed;
    cfg.minQuantum = 1;
    cfg.maxQuantum = 7;
    sim::Machine machine(cfg, log, mode);
    auto checker = check::makeChecker(scheme);
    checker->attach(machine);
    machine.setRunStartHandler([&] { checker->onRunStart(); });
    std::vector<HashWord> trace;
    machine.setCheckpointHandler([&](const sim::CheckpointInfo &) {
        trace.push_back(checker->checkpointHash().raw());
    });
    auto program = factory();
    machine.run(*program);
    return trace;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomPrograms, TriSchemeEqualityHolds)
{
    const auto factory = randomProgram(GetParam());
    for (std::uint64_t sched_seed : {4u, 91u}) {
        mem::ReplayLog log;
        const auto hw =
            traceOf(factory, check::Scheme::HwInc, sched_seed, &log,
                    mem::DeterministicAllocator::Mode::Record);
        const auto sw =
            traceOf(factory, check::Scheme::SwInc, sched_seed, &log,
                    mem::DeterministicAllocator::Mode::Replay);
        const auto tr =
            traceOf(factory, check::Scheme::SwTr, sched_seed, &log,
                    mem::DeterministicAllocator::Mode::Replay);
        ASSERT_EQ(hw.size(), 4u) << "3 barriers + program end";
        EXPECT_EQ(hw, sw) << "sched seed " << sched_seed;
        EXPECT_EQ(hw, tr) << "sched seed " << sched_seed;
    }
}

TEST_P(RandomPrograms, RunsAreReproducible)
{
    const auto factory = randomProgram(GetParam());
    mem::ReplayLog log_a, log_b;
    const auto a = traceOf(factory, check::Scheme::HwInc, 17, &log_a,
                           mem::DeterministicAllocator::Mode::Record);
    const auto b = traceOf(factory, check::Scheme::HwInc, 17, &log_b,
                           mem::DeterministicAllocator::Mode::Record);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto &info) {
                             std::string name = "p";
                             name += std::to_string(info.param);
                             return name;
                         });

} // namespace
} // namespace icheck
