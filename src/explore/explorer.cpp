#include "explore/explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "explore/dpor.hpp"
#include "explore/hb_signature.hpp"
#include "explore/snapshot_tree.hpp"
#include "support/json_writer.hpp"
#include "support/logging.hpp"

namespace icheck::explore
{

std::string
renderStatsJson(const ExploreStats &s)
{
    const double dedup =
        s.sigInserts == 0 ? 0.0
                          : 1.0 - static_cast<double>(s.sigUnique) /
                                      static_cast<double>(s.sigInserts);
    return JsonWriter()
        .beginObject()
        .key("checkpointing").boolean(s.checkpointing)
        .key("nodes_expanded").uint64(s.nodesExpanded)
        .key("checkpoint_hits").uint64(s.checkpointHits)
        .key("checkpoint_misses").uint64(s.checkpointMisses)
        .key("checkpoints_created").uint64(s.checkpointsCreated)
        .key("checkpoints_evicted").uint64(s.checkpointsEvicted)
        .key("checkpoint_bytes").uint64(s.checkpointBytes)
        .key("pages_cow_cloned").uint64(s.pagesCowCloned)
        .key("decisions_restored").uint64(s.decisionsRestored)
        .key("decisions_executed").uint64(s.decisionsExecuted)
        .key("sig_inserts").uint64(s.sigInserts)
        .key("sig_unique").uint64(s.sigUnique)
        .key("dedup_rate").fixed(dedup, 4)
        .key("dpor").boolean(s.dporActive)
        .key("traces_explored").uint64(s.tracesExplored)
        .key("dpor_races").uint64(s.dporRaces)
        .key("backtracks_inserted").uint64(s.backtracksInserted)
        .key("sleep_set_hits").uint64(s.sleepSetHits)
        .key("dpor_pruned").uint64(s.dporPruned)
        .endObject().take();
}

void
ExploreStats::merge(const ExploreStats &other)
{
    checkpointing = checkpointing || other.checkpointing;
    nodesExpanded += other.nodesExpanded;
    checkpointHits += other.checkpointHits;
    checkpointMisses += other.checkpointMisses;
    checkpointsCreated += other.checkpointsCreated;
    checkpointsEvicted += other.checkpointsEvicted;
    checkpointBytes += other.checkpointBytes;
    pagesCowCloned += other.pagesCowCloned;
    decisionsRestored += other.decisionsRestored;
    decisionsExecuted += other.decisionsExecuted;
    sigInserts += other.sigInserts;
    sigUnique += other.sigUnique;
    dporActive = dporActive || other.dporActive;
    tracesExplored += other.tracesExplored;
    dporRaces += other.dporRaces;
    backtracksInserted += other.backtracksInserted;
    sleepSetHits += other.sleepSetHits;
    dporPruned += other.dporPruned;
}

namespace detail
{

RunObservation
runOnce(const check::ProgramFactory &factory,
        const sim::MachineConfig &machine_template,
        const ExploreConfig &config,
        const std::vector<std::uint32_t> &prefix,
        const SignatureInsert &insert_sig, const SleepSet *sleep,
        sim::ChromeTraceBuilder *trace)
{
    auto program = factory();
    sim::Machine machine(machine_template);
    const bool bounded = config.maxPreemptions != noDecision;
    auto sched = std::make_unique<sim::ScriptedScheduler>(
        std::vector<std::uint32_t>(prefix), config.quantum,
        /*prefer_previous=*/bounded);
    sim::ScriptedScheduler *sched_ptr = sched.get();
    machine.setScheduler(std::move(sched));

    RunObservation obs;
    HbTracker hb;
    if (config.prune == PruneMode::HappensBefore)
        machine.addListener(&hb);

    DporTracker dpor;
    SleepEval sleepEval;
    if (config.dpor) {
        dpor.reset(program->numThreads());
        machine.addListener(&dpor);
        sleepEval.reset(sleep, prefix.empty() ? 0 : prefix.size() - 1);
    }
    if (trace != nullptr)
        machine.addListener(trace);

    std::size_t decision = 0;
    machine.setDecisionHandler(
        [&](const std::vector<ThreadId> &runnable) {
            // Close the previous slice first: the pruning signature below
            // must reflect every slice executed *before* this decision.
            if (config.dpor) {
                dpor.onDecision(runnable, sched_ptr->chosenIndices());
                sleepEval.advance(dpor.hb());
            }
            // Both pruning modes work at decision granularity: if the
            // fingerprint of the execution prefix repeats, every
            // continuation from here was already reachable from the
            // earlier occurrence, so branches past this decision need not
            // be expanded. StateHash fingerprints the reached *state*
            // (merging state-equal prefixes even when their traces
            // differ, the paper's improvement); HappensBefore fingerprints
            // the *trace* (the CHESS approximation). Decisions before
            // prefix.size() are shared with the ancestor run that spawned
            // this prefix and were recorded by it already.
            if (config.prune != PruneMode::None &&
                decision >= prefix.size() &&
                obs.pruneAt == noDecision) {
                // HappensBefore merges equal *traces*; trace-equivalent
                // prefixes always have the same length, so folding the
                // depth in costs nothing — and without it a decision whose
                // slice emitted no sync event (a pre-acquire switch point)
                // would collide with its own predecessor and truncate the
                // run's expansion. States, by contrast, merge at any depth.
                std::uint64_t sig =
                    config.prune == PruneMode::StateHash
                        ? machine.stateSignature()
                        : mixSignature(hb.value(), decision);
                // Sleep sets make continuations a function of (state,
                // sleep set), not state alone: fold the active entries in
                // so states reached with different sleep sets never
                // dedup against each other (the classic sleep-set x
                // state-caching unsoundness).
                if (config.dpor)
                    sig = sleepEval.foldActive(sig);
                for (ThreadId t : runnable)
                    sig = mixSignature(sig, t + 1);
                if (!insert_sig(sig))
                    obs.pruneAt = decision;
            }
            ++decision;
        });

    machine.setCheckpointHandler([&](const sim::CheckpointInfo &info) {
        if (info.kind == sim::CheckpointKind::ProgramEnd) {
            hashing::ModHash sum;
            for (ThreadId t = 0; t < machine.numThreads(); ++t)
                sum += hashing::ModHash(machine.threadHash(t));
            obs.finalState = sum.raw();
        }
    });

    machine.run(*program);

    if (config.dpor) {
        dpor.finishRun(sched_ptr->chosenIndices());
        sleepEval.advance(dpor.hb());
        obs.dpor = std::make_shared<const DporRunData>(
            dpor.takeRunData(sleepEval.takeWakeAt()));
    }

    obs.fanout = sched_ptr->decisionFanout();
    obs.path = sched_ptr->chosenIndices();
    obs.prevIdx = sched_ptr->previousIndices();
    // Prefix sums of preemptions: decision d preempts when the previous
    // thread was runnable but a different one was chosen.
    obs.preemptionsBefore.resize(obs.fanout.size() + 1, 0);
    for (std::size_t d = 0; d < obs.fanout.size(); ++d) {
        const bool preempted =
            obs.prevIdx[d] >= 0 &&
            obs.path[d] != static_cast<std::uint32_t>(obs.prevIdx[d]);
        obs.preemptionsBefore[d + 1] =
            obs.preemptionsBefore[d] + (preempted ? 1 : 0);
    }
    return obs;
}

void
writeRunTrace(const std::string &dir, int ordinal,
              const sim::ChromeTraceBuilder &trace)
{
    char name[32];
    std::snprintf(name, sizeof name, "run-%05d.json", ordinal);
    const std::string path = dir + "/" + name;
    if (!sim::writeChromeTraceFile(path, {&trace}))
        ICHECK_FATAL("cannot write trace file '", path, "'");
}

ExpandCounts
expandBranches(const RunObservation &obs, std::size_t prefix_size,
               const ExploreConfig &config,
               const std::function<void(std::vector<std::uint32_t>)> &emit)
{
    ExpandCounts counts;

    // Expand new branches only up to the first pruned decision.
    const std::size_t limit =
        std::min({obs.fanout.size(), config.maxDepth, obs.pruneAt});

    // Expand every non-designated choice at every decision past the
    // prefix. The designated (executed) child is a deterministic
    // function of the execution history, so each prefix is generated
    // exactly once across the whole search.
    for (std::size_t d = prefix_size;
         d < std::min(obs.fanout.size(), config.maxDepth); ++d) {
        for (std::uint32_t c = 0; c < obs.fanout[d]; ++c) {
            if (c == obs.path[d])
                continue;
            if (d >= limit) {
                ++counts.pruned;
                continue;
            }
            // Context bounding: skip branches whose preemption count
            // would exceed the budget.
            const bool branch_preempts =
                obs.prevIdx[d] >= 0 &&
                c != static_cast<std::uint32_t>(obs.prevIdx[d]);
            if (obs.preemptionsBefore[d] + (branch_preempts ? 1 : 0) >
                config.maxPreemptions) {
                ++counts.boundedOut;
                continue;
            }
            std::vector<std::uint32_t> next(
                obs.path.begin(),
                obs.path.begin() + static_cast<std::ptrdiff_t>(d));
            next.push_back(c);
            emit(std::move(next));
        }
    }
    return counts;
}

} // namespace detail

ExploreResult
explore(const check::ProgramFactory &factory,
        const sim::MachineConfig &machine_template,
        const ExploreConfig &config)
{
    ExploreResult result;
    std::set<std::uint64_t> seen_sigs;
    const detail::SignatureInsert insert_sig =
        [&seen_sigs, &result](std::uint64_t sig) {
            ++result.stats.sigInserts;
            const bool fresh = seen_sigs.insert(sig).second;
            if (fresh)
                ++result.stats.sigUnique;
            return fresh;
        };

    // Prefix sharing: one persistent machine plus a checkpoint tree,
    // unless disabled or unsupported (TSan builds). Either way every
    // observation — and therefore the whole ExploreResult minus stats —
    // is byte-identical. Per-run tracing forces cold runs: a trace must
    // cover its schedule from the start.
    const bool warm = config.checkpoints && PrefixEngine::supported() &&
                      config.traceDir.empty();
    std::unique_ptr<CheckpointTree> tree;
    std::unique_ptr<PrefixEngine> engine;
    if (warm) {
        tree = std::make_unique<CheckpointTree>(
            config.checkpointBudgetBytes);
        engine = std::make_unique<PrefixEngine>(
            factory, machine_template, config, *tree, 0);
    }

    std::unique_ptr<BranchLedger> ledger;
    if (config.dpor)
        ledger = std::make_unique<BranchLedger>();
    result.stats.dporActive = config.dpor;

    std::vector<detail::PendingNode> pending;
    pending.push_back({});

    while (!pending.empty() && result.runsExecuted < config.maxRuns) {
        const detail::PendingNode node = std::move(pending.back());
        pending.pop_back();

        std::unique_ptr<sim::ChromeTraceBuilder> trace;
        if (!config.traceDir.empty()) {
            trace = std::make_unique<sim::ChromeTraceBuilder>(
                "run " + std::to_string(result.runsExecuted) +
                " (depth " + std::to_string(node.prefix.size()) + ")");
        }
        const detail::RunObservation obs =
            warm ? engine->runOnce(node.prefix, insert_sig, &node.sleep)
                 : detail::runOnce(factory, machine_template, config,
                                   node.prefix, insert_sig, &node.sleep,
                                   trace.get());
        if (trace != nullptr)
            detail::writeRunTrace(config.traceDir, result.runsExecuted,
                                  *trace);
        ++result.runsExecuted;
        if (!warm) {
            ++result.stats.nodesExpanded;
            result.stats.decisionsExecuted += obs.fanout.size();
        }
        result.finalStates.insert(obs.finalState);

        const detail::ExpandCounts counts =
            config.dpor
                ? detail::expandDpor(
                      obs, node, config, *ledger, result.stats,
                      [&pending](detail::PendingNode child) {
                          pending.push_back(std::move(child));
                      })
                : detail::expandBranches(
                      obs, node.prefix.size(), config,
                      [&pending](std::vector<std::uint32_t> next) {
                          pending.push_back({std::move(next), {}});
                      });
        result.branchesPruned += counts.pruned;
        result.branchesBoundedOut += counts.boundedOut;
    }

    result.exhausted = pending.empty();
    if (warm) {
        result.stats.merge(engine->stats());
        result.stats.checkpointsCreated = tree->createdCount();
        result.stats.checkpointsEvicted = tree->evictedCount();
        result.stats.checkpointBytes = tree->residentBytes();
    }
    return result;
}

} // namespace icheck::explore
