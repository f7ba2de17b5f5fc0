/**
 * @file
 * Attributed race export: source-site capture via std::source_location,
 * JSONL serialization, and end-to-end export of a seeded bug.
 */

#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "race/race_detector.hpp"
#include "race/race_log.hpp"
#include "racelog.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "sim/trace_listener.hpp"

namespace icheck::race
{
namespace
{

sim::MachineConfig
config(std::uint64_t seed)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.schedSeed = seed;
    cfg.minQuantum = 1;
    cfg.maxQuantum = 5;
    return cfg;
}

TEST(RaceLog, AttributesRacingAccessesToThisFile)
{
    sim::Machine machine(config(7));
    machine.setAccessSiteTracking(true);
    RaceDetector detector;
    AccessAttributor attributor(machine);
    machine.addListener(&detector);
    machine.addListener(&attributor);
    sim::LambdaProgram prog(
        "racy", 2,
        [&](sim::SetupCtx &ctx) { ctx.global("x", mem::tInt64()); },
        [&](sim::ThreadCtx &ctx) {
            for (int i = 0; i < 50; ++i)
                ctx.store<std::int64_t>(
                    ctx.global("x"),
                    ctx.load<std::int64_t>(ctx.global("x")) + 1);
        });
    machine.run(prog);
    ASSERT_FALSE(detector.races().empty());

    const auto races = attributeRaces(detector, attributor, machine);
    ASSERT_EQ(races.size(), detector.races().size());
    bool sawThisFile = false;
    for (const AttributedRace &race : races) {
        EXPECT_NE(race.symbol.find("global:x"), std::string::npos)
            << race.symbol;
        if (race.first.file.find("test_race_log.cpp") !=
                std::string::npos &&
            race.second.file.find("test_race_log.cpp") !=
                std::string::npos &&
            race.first.line > 0 && race.second.line > 0)
            sawThisFile = true;
    }
    EXPECT_TRUE(sawThisFile);
}

TEST(RaceLog, DisarmedTrackingYieldsEmptySites)
{
    sim::Machine machine(config(7));
    RaceDetector detector;
    AccessAttributor attributor(machine);
    machine.addListener(&detector);
    machine.addListener(&attributor);
    sim::LambdaProgram prog(
        "racy", 2,
        [&](sim::SetupCtx &ctx) { ctx.global("x", mem::tInt64()); },
        [&](sim::ThreadCtx &ctx) {
            ctx.store<std::int64_t>(ctx.global("x"), 1);
        });
    machine.run(prog);
    for (const AttributedRace &race :
         attributeRaces(detector, attributor, machine)) {
        EXPECT_TRUE(race.first.file.empty());
        EXPECT_TRUE(race.second.file.empty());
    }
}

TEST(RaceLog, JsonlSerializationRoundTrips)
{
    AttributedRace race;
    race.record = {0x1000, 0, 3, RaceKind::WriteWrite};
    race.symbol = "global:kinetic+0x0";
    race.first = {"src/apps/apps_fp.cpp", 278, 0};
    race.second = {"src/apps/apps_fp.cpp", 275, 3};
    std::ostringstream os;
    writeRaceLogJsonl(os, "waterSP", {race});
    const std::string line = os.str();
    EXPECT_NE(line.find("\"app\":\"waterSP\""), std::string::npos);
    EXPECT_NE(line.find("\"kind\":\"write-write\""), std::string::npos);
    EXPECT_NE(line.find("\"symbol\":\"global:kinetic+0x0\""),
              std::string::npos);
    EXPECT_NE(line.find("\"first\":{\"tid\":0,\"file\":"
                        "\"src/apps/apps_fp.cpp\",\"line\":278}"),
              std::string::npos);
    EXPECT_NE(line.find("\"second\":{\"tid\":3,\"file\":"
                        "\"src/apps/apps_fp.cpp\",\"line\":275}"),
              std::string::npos);
    EXPECT_EQ(line.back(), '\n');
}

TEST(RaceLog, EscapedEndpointFileRoundTripsThroughTheLintReader)
{
    AttributedRace race;
    race.record = {0x1000, 0, 3, RaceKind::WriteRead};
    race.symbol = "global:kinetic+0x0";
    race.first = {"dir\\with\ttab/apps_fp.cpp", 278, 0};
    race.second = {"src/apps/apps_fp.cpp", 275, 3};
    std::stringstream log;
    writeRaceLogJsonl(log, "waterSP", {race});
    const std::vector<lint::DynamicRace> read = lint::readRaceLog(log);
    ASSERT_EQ(read.size(), 1u);
    EXPECT_EQ(read[0].app, "waterSP");
    EXPECT_EQ(read[0].kind, "write-read");
    EXPECT_EQ(read[0].symbol, race.symbol);
    EXPECT_EQ(read[0].first.file, race.first.file);
    EXPECT_EQ(read[0].first.line, 278);
    EXPECT_EQ(read[0].second.file, race.second.file);
    EXPECT_EQ(read[0].second.tid, 3);
}

TEST(RaceLog, ExportsSeededWaterSPBugWithAppAttribution)
{
    auto factory = [] {
        return std::make_unique<apps::WaterSP>(
            4, 16, 3, apps::BugSeed::AtomicityViolation);
    };
    std::ostringstream os;
    const int n = exportRaceLog(factory, config(1), 6, 1, "waterSP", os);
    ASSERT_GT(n, 0);
    const std::string log = os.str();
    // The seeded atomicity violation races on the kinetic-energy global,
    // and every endpoint must carry a real app source site.
    EXPECT_NE(log.find("global:kinetic"), std::string::npos) << log;
    EXPECT_NE(log.find("apps_fp.cpp"), std::string::npos) << log;
    EXPECT_EQ(log.find("\"line\":0"), std::string::npos) << log;
    // Deterministic: the same seeds produce the same log.
    std::ostringstream again;
    exportRaceLog(factory, config(1), 6, 1, "waterSP", again);
    EXPECT_EQ(log, again.str());
}

TEST(RaceLog, TraceListenerAnnotatesSitesWhenArmed)
{
    sim::Machine machine(config(5));
    machine.setAccessSiteTracking(true);
    sim::TraceListener trace;
    trace.setSourceMachine(&machine);
    machine.addListener(&trace);
    sim::LambdaProgram prog(
        "traced", 1,
        [&](sim::SetupCtx &ctx) { ctx.global("x", mem::tInt64()); },
        [&](sim::ThreadCtx &ctx) {
            ctx.store<std::int64_t>(ctx.global("x"), 42);
        });
    machine.run(prog);
    bool sawAnnotatedStore = false;
    for (const std::string &line : trace.lines())
        if (line.find("store64") != std::string::npos &&
            line.find(" @") != std::string::npos &&
            line.find("test_race_log.cpp:") != std::string::npos)
            sawAnnotatedStore = true;
    EXPECT_TRUE(sawAnnotatedStore);
}

} // namespace
} // namespace icheck::race
