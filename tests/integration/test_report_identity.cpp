/**
 * @file
 * Byte-identity contract of parallel campaigns: the canonical rendered
 * report of a campaign (`icheck check --json` bytes) must be identical at
 * any worker count. Runs are independent machines, so fanning them out
 * over a pool may change only wall time — never a verdict byte.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/driver.hpp"
#include "check/report_json.hpp"
#include "runtime/parallel_driver.hpp"
#include "sim/lambda_program.hpp"

namespace icheck
{
namespace
{

using check::DriverConfig;
using check::ProgramFactory;
using check::Scheme;
using sim::LambdaProgram;

DriverConfig
baseConfig()
{
    DriverConfig cfg;
    cfg.scheme = Scheme::HwInc;
    cfg.runs = 8;
    cfg.machine.numCores = 4;
    cfg.machine.minQuantum = 2;
    cfg.machine.maxQuantum = 10;
    return cfg;
}

/** Deterministic: per-thread partial sums merged under a lock. */
ProgramFactory
deterministicFactory()
{
    return [] {
        auto ids = std::make_shared<sim::MutexId>();
        return std::make_unique<LambdaProgram>(
            "det", 4,
            [ids](sim::SetupCtx &ctx) {
                ctx.global("sum", mem::tInt64());
                *ids = ctx.mutex();
            },
            [ids](sim::ThreadCtx &ctx) {
                std::int64_t local = 0;
                for (int i = 0; i < 8; ++i)
                    local += ctx.tid() * 8 + i;
                ctx.lock(*ids);
                const Addr sum = ctx.global("sum");
                ctx.store<std::int64_t>(
                    sum, ctx.load<std::int64_t>(sum) + local);
                ctx.unlock(*ids);
                ctx.outputValue<std::int64_t>(local);
            });
    };
}

/** Racy last-writer-wins: nondeterministic, so the report carries
 *  divergence structure that must also be reproduced byte for byte. */
ProgramFactory
racyFactory()
{
    return [] {
        return std::make_unique<LambdaProgram>(
            "racy", 4,
            [](sim::SetupCtx &ctx) { ctx.global("w", mem::tInt64()); },
            [](sim::ThreadCtx &ctx) {
                for (int i = 0; i < 10; ++i)
                    ctx.store<std::int64_t>(ctx.global("w"),
                                            ctx.tid() * 100 + i);
                ctx.outputValue<std::int64_t>(
                    ctx.load<std::int64_t>(ctx.global("w")));
            });
    };
}

std::string
renderWith(const ProgramFactory &factory, int jobs)
{
    const DriverConfig cfg = baseConfig();
    runtime::CampaignOptions options;
    options.jobs = jobs;
    const check::DriverReport report =
        runtime::runCampaign(cfg, factory, options);
    return check::renderReportJson(report);
}

class ReportIdentity : public ::testing::TestWithParam<bool>
{
  protected:
    ProgramFactory
    factory() const
    {
        return GetParam() ? racyFactory() : deterministicFactory();
    }
};

TEST_P(ReportIdentity, ReportBytesInvariantToJobs)
{
    const ProgramFactory factory = this->factory();
    const std::string serial = renderWith(factory, 1);
    ASSERT_FALSE(serial.empty());
    for (int jobs : {2, 4})
        EXPECT_EQ(renderWith(factory, jobs), serial) << "jobs " << jobs;
}

INSTANTIATE_TEST_SUITE_P(DetAndRacy, ReportIdentity,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "racy" : "deterministic";
                         });

} // namespace
} // namespace icheck
