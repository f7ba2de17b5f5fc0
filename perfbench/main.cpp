/**
 * @file
 * perfbench: the benchmark binary behind perfbench/run.py.
 *
 * Usage: perfbench <check|explore|serve|fleet> --seed N --seconds S
 *                  --trace 0|1 --icheck PATH --workdir DIR
 *                  [--plant-wrong-expectation]
 *
 * --trace 0 runs the workload untraced and prints its end-to-end
 * metrics. --trace 1 runs every per-layer pass with spans recorded
 * around each layer call, then the workload loop untraced and traced
 * for a third of the seconds each (their ops/s ratio is the tracing
 * overhead), writes the spans as Chrome trace-event JSON to
 * DIR/trace.json and prints the per-layer metrics. The last stdout line
 * is one JSON result; run.py adds provenance and reshapes it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench <check|explore|serve|fleet> --seed N "
                 "--seconds S --trace 0|1 --icheck PATH --workdir DIR "
                 "[--plant-wrong-expectation]\n");
    return 2;
}

LoopStats
runWorkload(const Options &opts, double seconds, Tracer *tracer,
            Result &result)
{
    if (opts.workload == "check")
        return runCheck(opts, seconds, tracer, result);
    if (opts.workload == "explore")
        return runExplore(opts, seconds, tracer, result);
    return runService(opts, opts.workload == "fleet", seconds, tracer,
                      result);
}

int
run(const Options &opts)
{
    Result result;
    if (!opts.trace) {
        runWorkload(opts, opts.seconds, nullptr, result);
    } else {
        Tracer tracer;
        layersCheck(opts, tracer, result);
        layersExplore(opts, tracer, result);
        layersService(opts, tracer, result);
        layersFleet(opts, tracer, result);

        Result scratch; // The loops' end-to-end numbers are not reported.
        const LoopStats untraced =
            runWorkload(opts, opts.seconds / 3, nullptr, scratch);
        const LoopStats traced =
            runWorkload(opts, opts.seconds / 3, &tracer, scratch);
        result.attempted += scratch.attempted;
        result.failed += scratch.failed;
        result.correct = result.correct && scratch.correct;
        result.failures.insert(result.failures.end(),
                               scratch.failures.begin(),
                               scratch.failures.end());
        result.details["cycle"] = scratch.details["cycle"];
        // Both at the reference host speed: the loops run at different
        // times, and the host drifts between them.
        result.metric("trace.ops_ratio",
                      traced.opsPerSecond * traced.hostFactor /
                          (untraced.opsPerSecond * untraced.hostFactor),
                      "ratio");

        std::ostringstream self;
        self.precision(6);
        self << "{";
        bool first = true;
        for (const auto &[name, secs] : tracer.selfSeconds()) {
            self << (first ? "" : ",") << jsonString(name) << ":"
                 << secs * 1e3;
            first = false;
        }
        self << "}";
        result.details["self_ms"] = self.str();
        result.details["spans"] = std::to_string(tracer.size());
        const std::string trace_path = opts.workdir + "/trace.json";
        if (!tracer.writeChrome(trace_path))
            result.fail("cannot write " + trace_path);
    }
    std::printf("%s\n", result.toJson().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Options opts;
    opts.workload = argv[1];
    if (opts.workload != "check" && opts.workload != "explore" &&
        opts.workload != "serve" && opts.workload != "fleet")
        return usage();
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opts.trace = std::strcmp(argv[++i], "1") == 0;
        } else if (arg == "--icheck" && has_value) {
            opts.icheck = argv[++i];
        } else if (arg == "--workdir" && has_value) {
            opts.workdir = argv[++i];
        } else if (arg == "--plant-wrong-expectation") {
            opts.plantWrongExpectation = true;
        } else {
            return usage();
        }
    }
    if (opts.seconds <= 0 || opts.icheck.empty() || opts.workdir.empty())
        return usage();

    try {
        return run(opts);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 3;
    }
}