/**
 * @file
 * Dynamic partial-order reduction: the branch ledger's exactly-once
 * claims, sleep-set wake tracking, and the explorer-level guarantees —
 * DPOR visits one representative schedule per Mazurkiewicz trace while
 * finding exactly the final states exhaustive enumeration finds.
 */

#include <gtest/gtest.h>
#include <memory>

#include "explore/dpor.hpp"
#include "explore/explorer.hpp"
#include "sim/lambda_program.hpp"

namespace icheck::explore
{
namespace
{

using sim::LambdaProgram;

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig cfg;
    cfg.numCores = 2;
    return cfg;
}

ExploreConfig
exploreConfig(PruneMode mode, bool dpor)
{
    ExploreConfig cfg;
    cfg.prune = mode;
    cfg.dpor = dpor;
    cfg.maxRuns = 20000;
    cfg.quantum = 1;
    return cfg;
}

/** Figure 1 without the lock: racy, multiple final states. */
check::ProgramFactory
figure1Racy()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "fig1racy", 2,
            [](sim::SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 2);
            },
            [](sim::ThreadCtx &ctx) {
                const std::int64_t local = ctx.tid() == 0 ? 7 : 3;
                const auto g = ctx.load<std::int64_t>(ctx.global("G"));
                ctx.store<std::int64_t>(ctx.global("G"), g + local);
            });
    };
}

/** Figure 1 with the lock: both acquisition orders reach G == 12. */
check::ProgramFactory
figure1Locked()
{
    return [] {
        auto mutex_id = std::make_shared<sim::MutexId>();
        return std::make_unique<LambdaProgram>(
            "fig1", 2,
            [mutex_id](sim::SetupCtx &ctx) {
                const Addr g = ctx.global("G", mem::tInt64());
                ctx.init<std::int64_t>(g, 2);
                *mutex_id = ctx.mutex();
            },
            [mutex_id](sim::ThreadCtx &ctx) {
                const std::int64_t local = ctx.tid() == 0 ? 7 : 3;
                ctx.lock(*mutex_id);
                const auto g = ctx.load<std::int64_t>(ctx.global("G"));
                ctx.store<std::int64_t>(ctx.global("G"), g + local);
                ctx.unlock(*mutex_id);
            });
    };
}

/** Three threads writing three disjoint globals: every schedule commutes. */
check::ProgramFactory
disjointWriters()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "disjoint", 3,
            [](sim::SetupCtx &ctx) {
                ctx.init<std::int64_t>(ctx.global("A", mem::tInt64()), 0);
                ctx.init<std::int64_t>(ctx.global("B", mem::tInt64()), 0);
                ctx.init<std::int64_t>(ctx.global("C", mem::tInt64()), 0);
            },
            [](sim::ThreadCtx &ctx) {
                const char *names[] = {"A", "B", "C"};
                const Addr mine = ctx.global(names[ctx.tid()]);
                for (int i = 0; i < 1; ++i) {
                    const auto v = ctx.load<std::int64_t>(mine);
                    ctx.store<std::int64_t>(mine, v + 1);
                }
            });
    };
}

// ---------------------------------------------------------------------------
// BranchLedger

TEST(BranchLedger, ClaimsAreExactlyOnce)
{
    BranchLedger ledger;
    const std::uint32_t path[] = {0, 1, 0};
    EXPECT_TRUE(ledger.claim(path, 3, 2));
    EXPECT_FALSE(ledger.claim(path, 3, 2)) << "second claim must lose";
    EXPECT_TRUE(ledger.claim(path, 3, 1)) << "other child of same point";
    EXPECT_TRUE(ledger.claim(path, 2, 2)) << "other branch point (len)";
}

TEST(BranchLedger, PrefixContentDistinguishesClaims)
{
    // Same length, same choice, different history: both must win —
    // a hash collision mapping them together would drop coverage.
    BranchLedger ledger;
    const std::uint32_t a[] = {0, 1};
    const std::uint32_t b[] = {0, 2};
    EXPECT_TRUE(ledger.claim(a, 2, 0));
    EXPECT_TRUE(ledger.claim(b, 2, 0));
    EXPECT_FALSE(ledger.claim(a, 2, 0));
    EXPECT_FALSE(ledger.claim(b, 2, 0));
}

TEST(BranchLedger, EmptyPrefixIsAValidBranchPoint)
{
    BranchLedger ledger;
    EXPECT_TRUE(ledger.claim(nullptr, 0, 0));
    EXPECT_FALSE(ledger.claim(nullptr, 0, 0));
    EXPECT_TRUE(ledger.claim(nullptr, 0, 1));
}

// ---------------------------------------------------------------------------
// SleepEval

TEST(SleepEval, ThreadWakesWhenScheduled)
{
    detail::SleepSet sleep;
    sleep.push_back({/*tid=*/1, {{0x1000, true}}});

    race::SliceHb hb(2);
    hb.closeSlice(2, race::SliceHb::noIndex);
    hb.record(race::SliceHb::Op::Write, 0x9999); // disjoint object
    hb.closeSlice(1, 0); // the sleeping thread itself runs at decision 0

    SleepEval eval;
    eval.reset(&sleep, /*branch_decision=*/0);
    eval.advance(hb);
    const std::vector<std::size_t> wake = eval.takeWakeAt();
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 0u);
}

TEST(SleepEval, ConflictingSliceWakesTheEntry)
{
    detail::SleepSet sleep;
    sleep.push_back({/*tid=*/1, {{0x1000, true}}});

    race::SliceHb hb(2);
    hb.closeSlice(2, race::SliceHb::noIndex);
    hb.record(race::SliceHb::Op::Write, 0x2000);
    hb.closeSlice(0, 0); // disjoint: no wake
    hb.record(race::SliceHb::Op::Read, 0x1000);
    hb.closeSlice(0, 1); // reads the entry's pending write target: wake

    SleepEval eval;
    eval.reset(&sleep, 0);
    eval.advance(hb);
    const std::vector<std::size_t> wake = eval.takeWakeAt();
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 1u);
}

TEST(SleepEval, DisjointRunNeverWakes)
{
    detail::SleepSet sleep;
    sleep.push_back({/*tid=*/1, {{0x1000, false}}});

    race::SliceHb hb(2);
    hb.closeSlice(2, race::SliceHb::noIndex);
    hb.record(race::SliceHb::Op::Read, 0x1000); // read-read: no conflict
    hb.closeSlice(0, 0);
    hb.record(race::SliceHb::Op::Write, 0x2000);
    hb.closeSlice(0, 1);

    SleepEval eval;
    eval.reset(&sleep, 0);
    eval.advance(hb);
    EXPECT_EQ(eval.takeWakeAt()[0], noDecision);
}

TEST(SleepEval, SlicesBeforeTheBranchCannotWake)
{
    // Replayed prefix slices were already accounted for when the sleep
    // set was inherited; only slices at or past the branch may wake.
    detail::SleepSet sleep;
    sleep.push_back({/*tid=*/1, {{0x1000, true}}});

    race::SliceHb hb(2);
    hb.closeSlice(2, race::SliceHb::noIndex);
    hb.record(race::SliceHb::Op::Write, 0x1000);
    hb.closeSlice(0, 0); // conflicting, but decision 0 < branch 2
    hb.record(race::SliceHb::Op::Write, 0x1000);
    hb.closeSlice(0, 3); // past the branch: wakes

    SleepEval eval;
    eval.reset(&sleep, /*branch_decision=*/2);
    eval.advance(hb);
    EXPECT_EQ(eval.takeWakeAt()[0], 3u);
}

TEST(SleepEval, FoldActiveDistinguishesSleepSets)
{
    detail::SleepSet one;
    one.push_back({1, {}});
    detail::SleepSet two;
    two.push_back({1, {}});
    two.push_back({2, {}});

    SleepEval a, b, c;
    a.reset(&one, 0);
    b.reset(&two, 0);
    c.reset(nullptr, 0);
    const std::uint64_t seed = 0xfeed;
    EXPECT_NE(a.foldActive(seed), b.foldActive(seed));
    EXPECT_NE(a.foldActive(seed), c.foldActive(seed));
    EXPECT_EQ(c.foldActive(seed), seed) << "empty set folds nothing";
}

// ---------------------------------------------------------------------------
// Explorer-level DPOR

TEST(Dpor, FindsAllFinalStatesOfTheRacyProgram)
{
    const ExploreResult full =
        explore(figure1Racy(), machineConfig(),
                exploreConfig(PruneMode::None, false));
    const ExploreResult dpor =
        explore(figure1Racy(), machineConfig(),
                exploreConfig(PruneMode::None, true));
    ASSERT_TRUE(full.exhausted);
    ASSERT_TRUE(dpor.exhausted);
    EXPECT_EQ(dpor.finalStates, full.finalStates);
    EXPECT_LT(dpor.runsExecuted, full.runsExecuted)
        << "reduction must actually reduce on the racy program";
    EXPECT_GT(dpor.stats.backtracksInserted, 0u);
    EXPECT_TRUE(dpor.stats.dporActive);
    EXPECT_EQ(dpor.stats.tracesExplored,
              static_cast<std::uint64_t>(dpor.runsExecuted));
}

TEST(Dpor, LockedProgramStillExploresBothAcquisitionOrders)
{
    const ExploreResult full =
        explore(figure1Locked(), machineConfig(),
                exploreConfig(PruneMode::None, false));
    const ExploreResult dpor =
        explore(figure1Locked(), machineConfig(),
                exploreConfig(PruneMode::None, true));
    ASSERT_TRUE(dpor.exhausted);
    EXPECT_EQ(dpor.finalStates, full.finalStates);
    EXPECT_GT(dpor.stats.dporRaces, 0u)
        << "acquire-acquire contention must be visible to DPOR";
}

TEST(Dpor, DisjointWritersCollapseToOneTrace)
{
    // No two slices conflict, so every interleaving is one Mazurkiewicz
    // trace: DPOR must finish after exactly the first run. The unreduced
    // space is combinatorial in the step count, so give it headroom.
    ExploreConfig fullCfg = exploreConfig(PruneMode::None, false);
    fullCfg.maxRuns = 60000;
    const ExploreResult full =
        explore(disjointWriters(), machineConfig(), fullCfg);
    const ExploreResult dpor =
        explore(disjointWriters(), machineConfig(),
                exploreConfig(PruneMode::None, true));
    ASSERT_TRUE(full.exhausted);
    ASSERT_TRUE(dpor.exhausted);
    EXPECT_EQ(dpor.runsExecuted, 1);
    EXPECT_EQ(dpor.finalStates, full.finalStates);
    EXPECT_GT(full.runsExecuted, 100)
        << "the unreduced space must be non-trivial for this to mean "
           "anything";
}

class DporComposability : public ::testing::TestWithParam<PruneMode>
{
};

TEST_P(DporComposability, SameFinalStatesOnAnyBaseMode)
{
    const ExploreResult baseline =
        explore(figure1Racy(), machineConfig(),
                exploreConfig(PruneMode::None, false));
    const ExploreResult layered =
        explore(figure1Racy(), machineConfig(),
                exploreConfig(GetParam(), true));
    ASSERT_TRUE(layered.exhausted);
    EXPECT_EQ(layered.finalStates, baseline.finalStates);
}

INSTANTIATE_TEST_SUITE_P(Modes, DporComposability,
                         ::testing::Values(PruneMode::None,
                                           PruneMode::HappensBefore,
                                           PruneMode::StateHash));

TEST(Dpor, ColdAndCheckpointedSearchesAreIdentical)
{
    ExploreConfig warm = exploreConfig(PruneMode::None, true);
    ExploreConfig cold = warm;
    cold.checkpoints = false;
    const ExploreResult a =
        explore(figure1Racy(), machineConfig(), warm);
    const ExploreResult b =
        explore(figure1Racy(), machineConfig(), cold);
    EXPECT_EQ(a.runsExecuted, b.runsExecuted);
    EXPECT_EQ(a.finalStates, b.finalStates);
    EXPECT_EQ(a.branchesPruned, b.branchesPruned);
    EXPECT_EQ(a.stats.backtracksInserted, b.stats.backtracksInserted);
    EXPECT_EQ(a.stats.sleepSetHits, b.stats.sleepSetHits);
    EXPECT_EQ(a.stats.dporRaces, b.stats.dporRaces);
}

TEST(Dpor, StatsJsonCarriesTheDporCounters)
{
    const ExploreResult dpor =
        explore(figure1Racy(), machineConfig(),
                exploreConfig(PruneMode::None, true));
    const std::string json = renderStatsJson(dpor.stats);
    EXPECT_NE(json.find("\"dpor\":true"), std::string::npos);
    EXPECT_NE(json.find("\"traces_explored\":"), std::string::npos);
    EXPECT_NE(json.find("\"backtracks_inserted\":"), std::string::npos);
    EXPECT_NE(json.find("\"sleep_set_hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"dpor_pruned\":"), std::string::npos);
}

TEST(Dpor, RespectsMaxRuns)
{
    ExploreConfig cfg = exploreConfig(PruneMode::None, true);
    cfg.maxRuns = 1;
    const ExploreResult result =
        explore(figure1Racy(), machineConfig(), cfg);
    EXPECT_EQ(result.runsExecuted, 1);
    EXPECT_FALSE(result.exhausted);
}

} // namespace
} // namespace icheck::explore
