#include "check/driver.hpp"

#include <algorithm>

#include "check/io_hash.hpp"
#include "support/logging.hpp"

namespace icheck::check
{

double
DriverReport::overheadFactor() const
{
    if (avgNativeInstrs <= 0.0)
        return 1.0;
    return (avgNativeInstrs + avgOverheadInstrs) / avgNativeInstrs;
}

RunRecord
executeCampaignRun(const DriverConfig &cfg, const ProgramFactory &factory,
                   int run_index, mem::ReplayLog &replay_log,
                   mem::DeterministicAllocator::Mode mode,
                   std::string *app_name)
{
    sim::MachineConfig mc = cfg.machine;
    mc.schedSeed =
        cfg.baseSchedSeed + static_cast<std::uint64_t>(run_index);

    sim::Machine machine(mc, &replay_log, mode);

    auto checker = makeChecker(cfg.scheme, cfg.ignores, cfg.idealCostModel);
    checker->attach(machine);
    OutputHasher output_hasher;
    machine.addListener(&output_hasher);

    RunRecord record;
    machine.setRunStartHandler([&] { checker->onRunStart(); });
    machine.setCheckpointHandler([&](const sim::CheckpointInfo &) {
        record.checkpointHashes.push_back(checker->checkpointHash().raw());
    });

    auto program = factory();
    ICHECK_ASSERT(program != nullptr, "factory returned null");
    if (app_name != nullptr)
        *app_name = program->name();
    record.result = machine.run(*program);
    record.outputHash = output_hasher.value();
    record.outputBytes = output_hasher.bytes();
    record.checkerOverheadInstrs = checker->overheadInstrs();
    return record;
}

DriverReport
analyzeCampaign(const DriverConfig &cfg, std::string app,
                std::vector<RunRecord> records_in)
{
    DriverReport report;
    report.app = std::move(app);
    report.scheme = schemeName(cfg.scheme);
    report.runs = cfg.runs;
    report.records = std::move(records_in);

    const auto &records = report.records;
    ICHECK_ASSERT(!records.empty(), "campaign produced no records");
    std::size_t min_checkpoints = records[0].checkpointHashes.size();
    for (const RunRecord &record : records) {
        if (record.checkpointHashes.size() !=
            records[0].checkpointHashes.size())
            report.checkpointCountsMatch = false;
        min_checkpoints =
            std::min(min_checkpoints, record.checkpointHashes.size());
    }

    report.distributions.reserve(min_checkpoints);
    for (std::size_t cp = 0; cp < min_checkpoints; ++cp) {
        std::vector<HashWord> hashes;
        hashes.reserve(records.size());
        for (const RunRecord &record : records)
            hashes.push_back(record.checkpointHashes[cp]);
        Distribution dist = distributionOf(hashes);
        if (dist.deterministic())
            ++report.detPoints;
        else
            ++report.ndetPoints;
        report.distributions.push_back(std::move(dist));
    }

    // Determinism at the end: the last checkpoint is always ProgramEnd.
    if (min_checkpoints > 0 && report.checkpointCountsMatch) {
        std::vector<HashWord> finals;
        for (const RunRecord &record : records)
            finals.push_back(record.checkpointHashes.back());
        report.detAtEnd = distributionOf(finals).deterministic();
    }

    for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i].outputHash != records[0].outputHash ||
            records[i].outputBytes != records[0].outputBytes) {
            report.outputDeterministic = false;
            break;
        }
    }

    // First run at which nondeterminism was detectable: the smallest r
    // (1-based) whose hash sequence differs from some earlier run's.
    for (std::size_t r = 1; r < records.size(); ++r) {
        bool differs = false;
        for (std::size_t earlier = 0; earlier < r && !differs; ++earlier) {
            differs =
                records[r].checkpointHashes !=
                    records[earlier].checkpointHashes ||
                records[r].outputHash != records[earlier].outputHash;
        }
        if (differs) {
            report.firstNdetRun = static_cast<int>(r) + 1;
            break;
        }
    }

    double native_sum = 0.0;
    double overhead_sum = 0.0;
    for (const RunRecord &record : records) {
        native_sum += static_cast<double>(record.result.nativeInstrs);
        overhead_sum +=
            static_cast<double>(record.result.overheadInstrs) +
            static_cast<double>(record.checkerOverheadInstrs);
    }
    report.avgNativeInstrs = native_sum / static_cast<double>(cfg.runs);
    report.avgOverheadInstrs = overhead_sum / static_cast<double>(cfg.runs);
    return report;
}

DriverReport
DeterminismDriver::check(const ProgramFactory &factory) const
{
    ICHECK_ASSERT(cfg.runs >= 2, "need at least two runs to compare");

    mem::ReplayLog replay_log;
    std::string app;
    std::vector<RunRecord> records;
    records.reserve(static_cast<std::size_t>(cfg.runs));
    for (int run = 0; run < cfg.runs; ++run) {
        const auto mode = run == 0
                              ? mem::DeterministicAllocator::Mode::Record
                              : mem::DeterministicAllocator::Mode::Replay;
        records.push_back(executeCampaignRun(
            cfg, factory, run, replay_log, mode,
            run == 0 ? &app : nullptr));
    }
    return analyzeCampaign(cfg, std::move(app), std::move(records));
}

sim::RunResult
DeterminismDriver::runNative(const ProgramFactory &factory,
                             std::uint64_t sched_seed) const
{
    sim::MachineConfig mc = cfg.machine;
    mc.schedSeed = sched_seed;
    sim::Machine machine(mc);
    auto program = factory();
    return machine.run(*program);
}

} // namespace icheck::check
