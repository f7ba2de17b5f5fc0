/**
 * @file
 * Interest-gated listener dispatch: the machine delivers loads and stores
 * only to the listeners that declared them in AccessListener::interest(),
 * skips the old-value read when nobody needs it, and still delivers every
 * other event kind to every listener, in program order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"

namespace icheck::sim
{
namespace
{

/** Serializes every callback into one string per event. */
class RecordingListener : public AccessListener
{
  public:
    explicit RecordingListener(ListenerInterest declared = {})
        : declared(declared)
    {}

    ListenerInterest interest() const override { return declared; }

    void
    onStore(const StoreEvent &e) override
    {
        std::ostringstream os;
        os << "S t" << e.tid << " a" << e.addr << " o" << e.oldBits
           << " n" << e.newBits << " w" << e.width << " h" << e.hashed;
        log.push_back(os.str());
    }

    void
    onLoad(const LoadEvent &e) override
    {
        std::ostringstream os;
        os << "L t" << e.tid << " a" << e.addr << " w" << e.width;
        log.push_back(os.str());
    }

    void
    onSync(const SyncEvent &e) override
    {
        std::ostringstream os;
        os << "Y k" << static_cast<int>(e.kind) << " t" << e.tid << " o"
           << e.object << " e" << e.epoch;
        log.push_back(os.str());
    }

    void
    onAlloc(const mem::Block &block) override
    {
        log.push_back("A " + block.site + " sz" +
                      std::to_string(block.size));
    }

    void
    onFree(const mem::Block &block) override
    {
        log.push_back("F " + block.site);
    }

    void
    onOutput(ThreadId tid, const std::uint8_t *data,
             std::size_t len) override
    {
        std::string s = "O t" + std::to_string(tid) + " ";
        for (std::size_t i = 0; i < len; ++i)
            s += std::to_string(data[i]) + ",";
        log.push_back(s);
    }

    std::size_t
    count(char kind) const
    {
        std::size_t n = 0;
        for (const std::string &line : log)
            n += line[0] == kind ? 1 : 0;
        return n;
    }

    ListenerInterest declared;
    std::vector<std::string> log;
};

/** @p log without the lines whose first character is in @p kinds. */
std::vector<std::string>
without(const std::vector<std::string> &log, const std::string &kinds)
{
    std::vector<std::string> kept;
    for (const std::string &line : log)
        if (kinds.find(line[0]) == std::string::npos)
            kept.push_back(line);
    return kept;
}

/**
 * Two threads: locked read-modify-writes of a shared array, a malloc and
 * a free, an output, and a stop_hashing window in which each thread
 * overwrites a scratch word twice (so the second store has a nonzero old
 * value). The scratch address is published through @p scratch.
 */
std::unique_ptr<LambdaProgram>
makeProgram(std::shared_ptr<Addr> scratch = std::make_shared<Addr>())
{
    auto mutex_id = std::make_shared<MutexId>();
    auto barrier_id = std::make_shared<BarrierId>();
    return std::make_unique<LambdaProgram>(
        "dispatch-prog", 2,
        [mutex_id, barrier_id](SetupCtx &ctx) {
            ctx.global("g", mem::tArray(mem::tInt64(), 8));
            ctx.global("scratch", mem::tInt64());
            *mutex_id = ctx.mutex();
            *barrier_id = ctx.barrier(2);
        },
        [mutex_id, barrier_id, scratch](ThreadCtx &ctx) {
            const Addr g = ctx.global("g");
            const Addr block = ctx.malloc("dispatch.cpp:b", mem::tInt64());
            for (int i = 0; i < 16; ++i) {
                const Addr slot = g + 8 * ((ctx.tid() * 4 + i) % 8);
                ctx.lock(*mutex_id);
                ctx.store<std::int64_t>(
                    slot, ctx.load<std::int64_t>(slot) + i);
                ctx.unlock(*mutex_id);
            }
            *scratch = ctx.global("scratch");
            ctx.stopHashing();
            ctx.store<std::int64_t>(*scratch, ctx.tid() + 1);
            ctx.store<std::int64_t>(*scratch, ctx.tid() + 7);
            ctx.startHashing();
            ctx.barrier(*barrier_id);
            ctx.outputValue<std::uint32_t>(ctx.tid());
            ctx.free(block);
        });
}

MachineConfig
machineConfig()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.schedSeed = 11;
    return cfg;
}

/** Run the program once with @p attached subscribed in order. */
void
runWith(const std::vector<AccessListener *> &attached,
        std::shared_ptr<Addr> scratch = std::make_shared<Addr>())
{
    Machine machine(machineConfig());
    for (AccessListener *listener : attached)
        machine.addListener(listener);
    auto prog = makeProgram(std::move(scratch));
    machine.run(*prog);
}

/** The event log of a fully subscribed listener running alone. */
std::vector<std::string>
fullLog()
{
    RecordingListener full;
    runWith({&full});
    return full.log;
}

/** The stores to @p scratch in @p log. */
std::vector<std::string>
scratchStores(const std::vector<std::string> &log, Addr scratch)
{
    const std::string needle = " a" + std::to_string(scratch) + " ";
    std::vector<std::string> stores;
    for (const std::string &line : log)
        if (line[0] == 'S' && line.find(needle) != std::string::npos)
            stores.push_back(line);
    return stores;
}

TEST(ListenerDispatch, AccessBlindListenersSkipTheWholeAccessStream)
{
    RecordingListener blind(noAccessInterest);
    runWith({&blind});
    EXPECT_EQ(blind.count('L'), 0u);
    EXPECT_EQ(blind.count('S'), 0u);
    EXPECT_GT(blind.count('O'), 0u);
    EXPECT_EQ(blind.log, without(fullLog(), "LS"));
}

TEST(ListenerDispatch, NoAccessListenerBesideAFullOneGetsNoAccesses)
{
    // The gate is per listener: a fully subscribed neighbour does not
    // open the access stream to a listener that declared no interest.
    RecordingListener full;
    RecordingListener blind(noAccessInterest);
    runWith({&full, &blind});
    ASSERT_GT(full.count('L'), 0u);
    ASSERT_GT(full.count('S'), 0u);
    EXPECT_EQ(blind.count('L'), 0u);
    EXPECT_EQ(blind.count('S'), 0u);
    EXPECT_EQ(blind.count('A'), 2u);
    EXPECT_EQ(blind.count('O'), 2u);
    EXPECT_EQ(blind.log, without(full.log, "LS"));
}

TEST(ListenerDispatch, LoadBlindListenersGetNoLoads)
{
    RecordingListener listener({/*loads=*/false, true, true});
    runWith({&listener});
    EXPECT_EQ(listener.count('L'), 0u);
    EXPECT_GT(listener.count('S'), 0u);
    EXPECT_GT(listener.count('Y'), 0u);
    EXPECT_GT(listener.count('O'), 0u);
    EXPECT_EQ(listener.log, without(fullLog(), "L"));
}

TEST(ListenerDispatch, StoreValuesInterestImpliesStores)
{
    RecordingListener listener({false, /*stores=*/false, true});
    runWith({&listener});
    EXPECT_EQ(listener.count('L'), 0u);
    EXPECT_EQ(listener.log, without(fullLog(), "L"));
}

TEST(ListenerDispatch, ValuesBlindStoresCarryZeroOldBitsInsideStopHashing)
{
    // With the hash gate closed and no listener declaring storeValues,
    // the machine skips the old-value read: events carry oldBits = 0.
    // Hashed stores outside the window still carry the real old value,
    // which the MHM reads anyway.
    auto scratch = std::make_shared<Addr>();
    RecordingListener blind(addressInterest);
    runWith({&blind}, scratch);
    const auto window = scratchStores(blind.log, *scratch);
    ASSERT_EQ(window.size(), 4u);
    for (const std::string &line : window) {
        EXPECT_NE(line.find(" o0 "), std::string::npos) << line;
        EXPECT_NE(line.find(" h0"), std::string::npos) << line;
    }
    // Every other event matches a values-reading run exactly.
    const auto expected = fullLog();
    ASSERT_EQ(blind.log.size(), expected.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
        differing += blind.log[i] != expected[i] ? 1 : 0;
    const auto expected_window = scratchStores(expected, *scratch);
    std::size_t nonzero_old = 0;
    for (const std::string &line : expected_window)
        nonzero_old += line.find(" o0 ") == std::string::npos ? 1 : 0;
    EXPECT_GT(nonzero_old, 0u);
    EXPECT_EQ(differing, nonzero_old);
}

TEST(ListenerDispatch, OneValuesListenerRestoresOldBitsForAll)
{
    // The old value is read once per store and shared by every store
    // listener, so a values-blind listener beside one that wants values
    // sees the same real old values.
    auto scratch = std::make_shared<Addr>();
    RecordingListener blind(addressInterest);
    RecordingListener full;
    runWith({&blind, &full}, scratch);
    const auto window = scratchStores(full.log, *scratch);
    ASSERT_EQ(window.size(), 4u);
    bool saw_nonzero_old = false;
    for (const std::string &line : window)
        saw_nonzero_old |= line.find(" o0 ") == std::string::npos;
    EXPECT_TRUE(saw_nonzero_old);
    EXPECT_EQ(blind.log, full.log);
    EXPECT_EQ(full.log, fullLog());
}

TEST(ListenerDispatch, PerListenerMasksAreIndependent)
{
    RecordingListener full;
    RecordingListener load_blind({false, true, true});
    RecordingListener blind(noAccessInterest);
    runWith({&load_blind, &blind, &full});
    const auto expected = fullLog();
    EXPECT_EQ(full.log, expected);
    EXPECT_EQ(load_blind.log, without(expected, "L"));
    EXPECT_EQ(blind.log, without(expected, "LS"));
}

TEST(ListenerDispatch, RemoveListenerStopsDelivery)
{
    RecordingListener removed;
    RecordingListener kept(noAccessInterest);
    Machine machine(machineConfig());
    machine.addListener(&removed);
    machine.addListener(&kept);
    machine.removeListener(&removed);
    auto prog = makeProgram();
    machine.run(*prog);
    EXPECT_TRUE(removed.log.empty());
    EXPECT_EQ(kept.log, without(fullLog(), "LS"));
}

TEST(ListenerDispatch, ScopedListenerDetachesObservers)
{
    RecordingListener outer;
    Machine first(machineConfig());
    {
        ScopedListener scope(first, outer);
        auto prog = makeProgram();
        first.run(*prog);
    }
    const std::size_t observed = outer.log.size();
    EXPECT_GT(observed, 0u);
    // The scope detached the listener before `first` was torn down; a
    // fresh machine without it adds nothing to the log.
    Machine second(machineConfig());
    auto prog = makeProgram();
    second.run(*prog);
    EXPECT_EQ(outer.log.size(), observed);
}

TEST(ListenerDispatch, ReattachAcrossRunsReplaysIdentically)
{
    // One listener driven by two machines back to back sees the same
    // stream twice.
    const auto expected = fullLog();
    RecordingListener listener;
    for (int round = 0; round < 2; ++round)
        runWith({&listener});
    ASSERT_EQ(listener.log.size(), 2 * expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(listener.log[i], expected[i]);
        EXPECT_EQ(listener.log[expected.size() + i], expected[i]);
    }
}

} // namespace
} // namespace icheck::sim
