/**
 * @file
 * Serial-vs-parallel campaign throughput of the runtime subsystem.
 *
 * Runs the same determinism campaign sequentially and through the
 * parallel executor at increasing worker counts, verifies every parallel
 * DriverReport is bit-identical to the sequential one, and records
 * runs/sec plus speedup to a machine-readable JSON file (default
 * BENCH_parallel.json; override with a positional argument; any flag is
 * a usage error, exit 2).
 *
 * Campaign parallelism only unlocks additional *cores*: one campaign run
 * keeps at most one host thread active at a time (the serializing
 * scheduler), so on a multi-core host throughput scales near-linearly
 * until jobs reaches the core count, while on a single-core host the
 * recorded speedup is ~1.0 by construction. The JSON therefore carries
 * hardwareConcurrency so readers can normalize.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "runtime/parallel_driver.hpp"
#include "runtime/result_sink.hpp"
#include "support/json_writer.hpp"

using namespace icheck;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *kApp = "sphinx3"; // heaviest bundled campaign
constexpr int kRuns = 24;
constexpr int kReps = 3; // best-of to damp scheduler noise

check::DriverConfig
campaignConfig()
{
    check::DriverConfig cfg;
    cfg.runs = kRuns;
    cfg.machine.numCores = 8;
    return cfg;
}

/** Bit-level equality of everything a DriverReport asserts. */
bool
identicalReports(const check::DriverReport &a, const check::DriverReport &b)
{
    if (a.records.size() != b.records.size())
        return false;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        if (a.records[i].checkpointHashes != b.records[i].checkpointHashes ||
            a.records[i].outputHash != b.records[i].outputHash ||
            a.records[i].outputBytes != b.records[i].outputBytes)
            return false;
    }
    return a.detPoints == b.detPoints && a.ndetPoints == b.ndetPoints &&
           a.firstNdetRun == b.firstNdetRun && a.detAtEnd == b.detAtEnd &&
           a.outputDeterministic == b.outputDeterministic &&
           a.checkpointCountsMatch == b.checkpointCountsMatch;
}

struct Sample
{
    double seconds = 0.0;
    double runsPerSec = 0.0;
    double utilization = 0.0;
    bool identical = true;
};

/** Best-of-kReps campaign throughput at @p jobs (0 = serial driver). */
Sample
measure(const apps::AppInfo &app, int jobs,
        const check::DriverReport *reference)
{
    Sample best;
    for (int rep = 0; rep < kReps; ++rep) {
        runtime::ResultSink sink;
        runtime::CampaignOptions options;
        options.jobs = jobs;
        options.sink = &sink;
        const auto start = Clock::now();
        const check::DriverReport report =
            runtime::runCampaign(campaignConfig(), app.factory, options);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (reference != nullptr && !identicalReports(*reference, report))
            best.identical = false;
        const double rps =
            seconds > 0.0 ? static_cast<double>(kRuns) / seconds : 0.0;
        if (rps > best.runsPerSec) {
            best.runsPerSec = rps;
            best.seconds = seconds;
            best.utilization = sink.lastCampaign().workerUtilization;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_parallel.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return 2;
        }
        out_path = arg;
    }
    const apps::AppInfo &app = apps::findApp(kApp);
    const unsigned hw = runtime::ThreadPool::hardwareWorkers();

    std::printf("micro_parallel: %s campaign (%d runs), hardware "
                "concurrency %u\n",
                kApp, kRuns, hw);
    std::printf("%6s %12s %10s %10s %12s\n", "jobs", "runs/sec",
                "seconds", "speedup", "identical");

    // Serial baseline through the sequential DeterminismDriver path.
    const check::DriverReport reference =
        check::DeterminismDriver(campaignConfig()).check(app.factory);
    const Sample serial = measure(app, /*jobs=*/1, &reference);
    std::printf("%6d %12.1f %10.4f %10.2fx %12s\n", 1, serial.runsPerSec,
                serial.seconds, 1.0, serial.identical ? "yes" : "NO");

    const std::vector<int> job_counts = {2, 4, 8};
    std::vector<Sample> samples;
    bool all_identical = serial.identical;
    for (const int jobs : job_counts) {
        const Sample sample = measure(app, jobs, &reference);
        samples.push_back(sample);
        all_identical = all_identical && sample.identical;
        std::printf("%6d %12.1f %10.4f %10.2fx %12s\n", jobs,
                    sample.runsPerSec, sample.seconds,
                    sample.runsPerSec / serial.runsPerSec,
                    sample.identical ? "yes" : "NO");
    }

    JsonWriter json;
    json.beginObject()
        .key("bench").string("micro_parallel")
        .key("app").string(kApp)
        .key("runs").int64(kRuns)
        .key("hardwareConcurrency").uint64(hw)
        .key("reportsBitIdentical").boolean(all_identical)
        .key("serial")
        .beginObject()
        .key("runsPerSec").fixed(serial.runsPerSec, 1)
        .key("seconds").fixed(serial.seconds, 4)
        .endObject()
        .key("parallel")
        .beginArray();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        json.beginObject()
            .key("jobs").int64(job_counts[i])
            .key("runsPerSec").fixed(samples[i].runsPerSec, 1)
            .key("seconds").fixed(samples[i].seconds, 4)
            .key("speedup")
            .fixed(samples[i].runsPerSec / serial.runsPerSec, 2)
            .key("workerUtilization").fixed(samples[i].utilization, 3)
            .endObject();
    }
    json.endArray().endObject();

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "%s\n", json.take().c_str());
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return all_identical ? 0 : 1;
}
