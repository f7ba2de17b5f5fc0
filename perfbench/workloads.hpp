#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/**
 * @file
 * The four workloads and the per-layer passes of the traced run.
 *
 * Every workload follows one shape: an untimed prep step, a timed
 * set-up repeated kSetupRepeats times from identical state (setup_s is
 * the median), then whole op cycles until the run's seconds are spent,
 * so every percentile sees the same mix. Correctness is checked on
 * every op; a failed check counts against the attempted ops.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

inline constexpr int kSetupRepeats = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string icheck;  ///< Path of the built `icheck` binary.
    std::string workdir; ///< Fresh scratch directory of this run.
    /** Flip one app's expected verdict: the run must then fail. */
    bool plantWrongExpectation = false;
};

/** Outcome of one timed loop (untraced or traced). */
struct LoopStats
{
    double opsPerSecond = 0.0; ///< As measured, probe time excluded.
    double hostFactor = 1.0;   ///< HostSpeed::factor() of the run.
    std::uint64_t ops = 0;
    std::uint64_t cycles = 0;
};

/**
 * Run workload @p opts.workload for @p seconds. End-to-end metrics go
 * into @p result when @p tracer is null; a traced loop records spans
 * and only checks correctness.
 */
LoopStats runCheck(const Options &opts, double seconds, Tracer *tracer,
                   Result &result);
LoopStats runExplore(const Options &opts, double seconds, Tracer *tracer,
                     Result &result);
/** Serve and fleet share the traffic generator; @p fleet picks the
 *  router-fronted topology. */
LoopStats runService(const Options &opts, bool fleet, double seconds,
                     Tracer *tracer, Result &result);

/// @name Per-layer passes (traced run only). Each fills its layers'
/// metrics into @p result from fixed, seed-ordered inputs and records
/// a span around every call into a layer.
/// @{
void layersCheck(const Options &opts, Tracer &tracer, Result &result);
void layersExplore(const Options &opts, Tracer &tracer, Result &result);
void layersService(const Options &opts, Tracer &tracer, Result &result);
void layersFleet(const Options &opts, Tracer &tracer, Result &result);
/// @}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
