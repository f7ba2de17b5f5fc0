/**
 * @file
 * Thread-count robustness: the workloads keep their Table 1 determinism
 * class at different thread counts (the paper fixes 8 threads; a credible
 * implementation must not bake that in), and checking works with more
 * threads than cores (TH virtualization under load).
 */

#include <gtest/gtest.h>
#include <memory>

#include "apps/apps.hpp"
#include "check/driver.hpp"

namespace icheck::apps
{
namespace
{

check::DriverConfig
config(CoreId cores, bool fp_rounding)
{
    check::DriverConfig cfg;
    cfg.runs = 8;
    cfg.machine.numCores = cores;
    cfg.machine.fpRoundingEnabled = fp_rounding;
    return cfg;
}

class ThreadSweep : public ::testing::TestWithParam<ThreadId>
{
};

TEST_P(ThreadSweep, FftStaysBitDeterministic)
{
    const ThreadId threads = GetParam();
    check::DeterminismDriver driver(config(8, false));
    const auto report = driver.check(
        [threads] { return std::make_unique<Fft>(threads); });
    EXPECT_TRUE(report.deterministic()) << threads << " threads";
}

TEST_P(ThreadSweep, OceanStaysFpRoundingClass)
{
    const ThreadId threads = GetParam();
    if (threads >= 3) {
        // With only two accumulating threads the global sum has two
        // terms, and FP addition is commutative — reorderings may be
        // bitwise identical. Three or more terms reassociate.
        check::DeterminismDriver bitwise(config(8, false));
        EXPECT_FALSE(
            bitwise
                .check([threads] {
                    return std::make_unique<Ocean>(threads);
                })
                .deterministic())
            << threads << " threads";
    }
    check::DeterminismDriver rounded(config(8, true));
    EXPECT_TRUE(
        rounded
            .check([threads] {
                return std::make_unique<Ocean>(threads);
            })
            .deterministic())
        << threads << " threads";
}

TEST_P(ThreadSweep, CannealStaysNondeterministic)
{
    const ThreadId threads = GetParam();
    if (threads < 2)
        GTEST_SKIP() << "nondeterminism needs concurrency";
    check::DeterminismDriver driver(config(8, true));
    EXPECT_FALSE(
        driver
            .check([threads] {
                return std::make_unique<Canneal>(threads);
            })
            .deterministic())
        << threads << " threads";
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::Values(2, 4, 6, 8, 12),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(Oversubscription, MoreThreadsThanCoresStillChecksCorrectly)
{
    // 12 threads on 2 cores with heavy migration: TH save/restore under
    // constant context switching must not perturb any verdict.
    check::DriverConfig cfg = config(2, false);
    cfg.machine.migrateProb = 0.4;
    check::DeterminismDriver driver(cfg);
    EXPECT_TRUE(driver
                    .check([] { return std::make_unique<Radix>(12); })
                    .deterministic());
    EXPECT_FALSE(
        driver
            .check([] { return std::make_unique<Canneal>(12); })
            .deterministic());
}

TEST(Oversubscription, CrossSchemeEqualityHoldsOversubscribed)
{
    auto trace = [](check::Scheme scheme) {
        sim::MachineConfig mc;
        mc.numCores = 3;
        mc.schedSeed = 7;
        mc.migrateProb = 0.3;
        sim::Machine machine(mc);
        auto checker = check::makeChecker(scheme);
        checker->attach(machine);
        machine.setRunStartHandler([&] { checker->onRunStart(); });
        std::vector<HashWord> hashes;
        machine.setCheckpointHandler([&](const sim::CheckpointInfo &) {
            hashes.push_back(checker->checkpointHash().raw());
        });
        Fluidanimate app(10);
        machine.run(app);
        return hashes;
    };
    const auto hw = trace(check::Scheme::HwInc);
    EXPECT_EQ(hw, trace(check::Scheme::SwInc));
    EXPECT_EQ(hw, trace(check::Scheme::SwTr));
}

} // namespace
} // namespace icheck::apps
