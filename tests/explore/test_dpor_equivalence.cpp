/**
 * @file
 * DPOR equivalence suite: reduced and unreduced full explorations of the
 * bundled applications — clean and bug-seeded, across base prune modes
 * and worker counts — report byte-identical results. The comparison is a
 * canonical rendering of (exhausted, final-state set), i.e. exactly the
 * schedule-dependent outcome; every configuration must exhaust its
 * search, since a budget-truncated comparison would prove nothing.
 *
 * The unreduced baseline uses state-hash pruning: on 4-thread apps the
 * raw interleaving space is astronomically large, but barrier-structured
 * programs converge to few distinct states, so the state-pruned search
 * exhausts while remaining exactly as complete (PruneSoundness tests).
 * DPOR must find the same final states — with and without a base mode,
 * cold and checkpointed, at any --jobs.
 *
 * Deliberately absent: maxPreemptions. DPOR composed with preemption
 * bounding is the classic unsound combination (a race-justified branch
 * can be bounded out while its trace-equivalent sibling was pruned), so
 * no equivalence is claimed or tested for it.
 */

#include <gtest/gtest.h>
#include <cinttypes>
#include <memory>
#include <string>

#include "apps/apps.hpp"
#include "explore/explorer.hpp"
#include "runtime/parallel_explore.hpp"

namespace icheck::explore
{
namespace
{

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
    cfg.maxRuns = 200000;
    // Large quantum: threads run until they block, so scheduling
    // decisions happen at synchronization boundaries. Every config in
    // the comparison shares the slice alphabet, and every program here
    // finishes well inside maxDepth — truncation would break the
    // Mazurkiewicz-trace argument.
    cfg.quantum = 1u << 20;
    return cfg;
}

/** Canonical one-line report of a schedule-dependent outcome. */
std::string
renderOutcome(const ExploreResult &result)
{
    std::string out =
        result.exhausted ? "exhausted;states:" : "TRUNCATED;states:";
    char word[32];
    for (const HashWord state : result.finalStates) {
        std::snprintf(word, sizeof word, "%016" PRIx64 ",",
                      static_cast<std::uint64_t>(state));
        out += word;
    }
    return out;
}

struct AppCase
{
    const char *label;
    check::ProgramFactory factory;
    bool buggy; ///< Seeded bug: expect >1 final state.
};

std::vector<AppCase>
appCases()
{
    using namespace icheck::apps;
    std::vector<AppCase> cases;
    cases.push_back({"radix_clean",
                     [] { return std::make_unique<Radix>(4, 8); }, false});
    cases.push_back({"radix_order",
                     [] {
                         return std::make_unique<Radix>(
                             4, 8, BugSeed::OrderViolation);
                     },
                     true});
    cases.push_back({"waterNS_semantic",
                     [] {
                         return std::make_unique<WaterNS>(
                             4, 4, 1, BugSeed::Semantic);
                     },
                     true});
    cases.push_back({"waterSP_atomicity",
                     [] {
                         return std::make_unique<WaterSP>(
                             4, 4, 1, BugSeed::AtomicityViolation);
                     },
                     true});
    return cases;
}

class DporEquivalence : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DporEquivalence, FullCoverageMatchesUnreducedByteForByte)
{
    const AppCase app = appCases()[GetParam()];
    SCOPED_TRACE(app.label);

    // Unreduced baseline: state-pruned full coverage.
    const ExploreResult baseline =
        explore(app.factory, machineConfig(),
                exploreConfig(PruneMode::StateHash, false));
    ASSERT_TRUE(baseline.exhausted)
        << "baseline must exhaust or the comparison proves nothing";
    const std::string want = renderOutcome(baseline);
    if (app.buggy) {
        ASSERT_GE(baseline.finalStates.size(), 2u)
            << "the seeded bug must be schedule-visible at this scale";
    } else {
        ASSERT_EQ(baseline.finalStates.size(), 1u);
    }

    // DPOR layered over each base mode, sequential.
    for (const PruneMode base :
         {PruneMode::None, PruneMode::HappensBefore,
          PruneMode::StateHash}) {
        const ExploreResult reduced = explore(
            app.factory, machineConfig(), exploreConfig(base, true));
        ASSERT_TRUE(reduced.exhausted);
        EXPECT_EQ(renderOutcome(reduced), want)
            << "base mode " << static_cast<int>(base);
    }

    // Cold (no checkpoints) DPOR: identical again.
    ExploreConfig cold = exploreConfig(PruneMode::None, true);
    cold.checkpoints = false;
    const ExploreResult coldRun =
        explore(app.factory, machineConfig(), cold);
    ASSERT_TRUE(coldRun.exhausted);
    EXPECT_EQ(renderOutcome(coldRun), want);

    // Parallel frontier: the fixpoint is worker-count independent.
    for (const int jobs : {2, 4}) {
        const ExploreResult parallel = runtime::exploreParallel(
            app.factory, machineConfig(),
            exploreConfig(PruneMode::StateHash, true), jobs);
        ASSERT_TRUE(parallel.exhausted) << "jobs " << jobs;
        EXPECT_EQ(renderOutcome(parallel), want) << "jobs " << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, DporEquivalence,
                         ::testing::Range<std::size_t>(0, 4));

TEST(DporEquivalence, ReductionReachesFullCoverageInFewerRuns)
{
    // The headline claim at test scale: on every racy (bug-seeded) app,
    // DPOR needs fewer schedules than the unreduced state-pruned search
    // to cover every reachable final state.
    for (const AppCase &app : appCases()) {
        if (!app.buggy) {
            continue;
        }
        SCOPED_TRACE(app.label);
        const ExploreResult baseline =
            explore(app.factory, machineConfig(),
                    exploreConfig(PruneMode::StateHash, false));
        const ExploreResult reduced =
            explore(app.factory, machineConfig(),
                    exploreConfig(PruneMode::StateHash, true));
        ASSERT_TRUE(baseline.exhausted);
        ASSERT_TRUE(reduced.exhausted);
        EXPECT_EQ(reduced.finalStates, baseline.finalStates);
        EXPECT_LT(reduced.runsExecuted, baseline.runsExecuted);
    }
}

} // namespace
} // namespace icheck::explore
