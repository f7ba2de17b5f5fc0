#include "sim/machine.hpp"

#include <algorithm>
#include <sstream>

#include "sim/context.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace icheck::sim
{

namespace
{

/** Modeled instruction cost of a synchronization operation. */
constexpr InstCount syncCost = 10;

/** Modeled instruction cost of one allocator call. */
constexpr InstCount allocCost = 50;

/** Modeled instruction cost of one intercepted library call. */
constexpr InstCount libCallCost = 5;

/** Slice-end classification of a thread's yield reason. */
SliceEnd
sliceEndFor(YieldReason reason)
{
    switch (reason) {
      case YieldReason::Quantum:
        return SliceEnd::Preempted;
      case YieldReason::Sync:
        return SliceEnd::Yielded;
      case YieldReason::BlockedMutex:
      case YieldReason::BlockedBarrier:
      case YieldReason::BlockedCond:
        return SliceEnd::Blocked;
      case YieldReason::Finished:
        return SliceEnd::Finished;
    }
    return SliceEnd::Yielded;
}

/** Mix one word into a running signature hash. */
std::uint64_t
mixSig(std::uint64_t acc, std::uint64_t word)
{
    std::uint64_t z = acc ^ (word + 0x9e3779b97f4a7c15ULL +
                             (acc << 6) + (acc >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return z ^ (z >> 31);
}

} // namespace

Machine::Machine(const MachineConfig &config, mem::ReplayLog *shared_log,
                 mem::DeterministicAllocator::Mode alloc_mode)
    : cfg(config),
      heap(shared_log ? *shared_log : privateLog, alloc_mode),
      locHasher(hashing::makeLocationHasher(config.hasherKind)),
      usesPrivateLog(shared_log == nullptr)
{
    ICHECK_ASSERT(cfg.numCores > 0, "machine needs at least one core");
    cores.reserve(cfg.numCores);
    for (CoreId id = 0; id < cfg.numCores; ++id) {
        cores.push_back(std::make_unique<Core>(
            id, cfg.cacheCfg, cfg.wbCapacity, cfg.wbPolicy,
            cfg.schedSeed ^ (0x9e37ULL + id),
            mhm::makeMhm(*locHasher, cfg.mhmCfg)));
    }
}

Machine::~Machine()
{
    if (threadsLive)
        abortAll();
}

void
Machine::setScheduler(std::unique_ptr<Scheduler> sched)
{
    scheduler = std::move(sched);
}

void
Machine::addListener(AccessListener *listener)
{
    ICHECK_ASSERT(listener != nullptr, "null listener");
    subscriptions.emplace_back(listener, listener->interest());
    rebuildDispatch();
}

void
Machine::removeListener(AccessListener *listener)
{
    subscriptions.erase(
        std::remove_if(subscriptions.begin(), subscriptions.end(),
                       [listener](const auto &sub) {
                           return sub.first == listener;
                       }),
        subscriptions.end());
    rebuildDispatch();
}

void
Machine::rebuildDispatch()
{
    listeners.clear();
    loadListeners.clear();
    storeListeners.clear();
    storeValuesWanted = false;
    for (const auto &[listener, interest] : subscriptions) {
        listeners.push_back(listener);
        if (interest.loads)
            loadListeners.push_back(listener);
        if (interest.stores || interest.storeValues)
            storeListeners.push_back(listener);
        storeValuesWanted |= interest.storeValues;
    }
}

void
Machine::setRunStartHandler(std::function<void()> handler)
{
    runStartHandler = std::move(handler);
}

void
Machine::setCheckpointHandler(
    std::function<void(const CheckpointInfo &)> handler)
{
    checkpointHandler = std::move(handler);
}

void
Machine::setDecisionHandler(
    std::function<void(const std::vector<ThreadId> &)> handler)
{
    decisionHandler = std::move(handler);
}

hashing::FpRoundMode
Machine::effectiveFpMode() const
{
    return cfg.fpRoundingEnabled ? cfg.mhmCfg.fpMode
                                 : hashing::FpRoundMode::none();
}

HashWord
Machine::threadHash(ThreadId tid) const
{
    ICHECK_ASSERT(tid < threads.size(), "bad thread id");
    return threads[tid]->savedTh;
}

std::uint64_t
Machine::threadProgress(ThreadId tid) const
{
    ICHECK_ASSERT(tid < threads.size(), "bad thread id");
    return threads[tid]->progress;
}

std::uint64_t
Machine::stateSignature() const
{
    // A sound (modulo hash collisions) fingerprint of the whole simulated
    // state while every thread is parked: memory (sum of TH registers),
    // each thread's local state (progress + load history + scheduling
    // state), and the synchronization-object states.
    std::uint64_t sig = 0x1c5;
    std::uint64_t th_sum = 0;
    for (const auto &thread : threads) {
        th_sum += thread->savedTh;
        sig = mixSig(sig, thread->progress);
        sig = mixSig(sig, thread->loadHash);
        sig = mixSig(sig, static_cast<std::uint64_t>(thread->state));
        sig = mixSig(sig, thread->randCalls);
        sig = mixSig(sig, thread->timeCalls);
    }
    sig = mixSig(sig, th_sum);
    for (const auto &mutex : mutexes) {
        sig = mixSig(sig, mutex.owner);
        for (ThreadId waiter : mutex.waiters)
            sig = mixSig(sig, waiter + 1);
    }
    for (const auto &barrier : barriers) {
        sig = mixSig(sig, barrier.arrived);
        sig = mixSig(sig, barrier.epoch);
        for (ThreadId waiter : barrier.waiters)
            sig = mixSig(sig, waiter + 1);
    }
    for (const auto &cond : conds) {
        sig = mixSig(sig, cond.waiters.size());
        for (ThreadId waiter : cond.waiters)
            sig = mixSig(sig, waiter + 1);
    }
    return sig;
}

MutexId
Machine::createMutex()
{
    mutexes.emplace_back();
    return static_cast<MutexId>(mutexes.size() - 1);
}

BarrierId
Machine::createBarrier(std::uint32_t parties)
{
    ICHECK_ASSERT(parties > 0, "barrier needs parties");
    SimBarrier barrier;
    barrier.parties = parties;
    barriers.push_back(barrier);
    return static_cast<BarrierId>(barriers.size() - 1);
}

CondId
Machine::createCond()
{
    conds.emplace_back();
    return static_cast<CondId>(conds.size() - 1);
}

void
Machine::beginRun(Program &prog)
{
    ICHECK_ASSERT(!ran, "a Machine executes exactly one run");
    ran = true;
    program = &prog;

    // Phase 1: single-threaded setup builds the input state.
    {
        SetupCtx sctx(*this);
        prog.setup(sctx);
    }

    // Phase 2: arm hashing hardware.
    for (auto &core : cores) {
        core->mhm->reset();
        if (cfg.hashingArmed)
            core->mhm->startHashing();
        if (cfg.fpRoundingEnabled)
            core->mhm->startFpRounding();
        else
            core->mhm->stopFpRounding();
    }
    if (runStartHandler)
        runStartHandler();

    // Phase 3: spawn simulated threads.
    if (!scheduler) {
        scheduler = std::make_unique<RandomScheduler>(
            cfg.schedSeed, cfg.minQuantum, cfg.maxQuantum, cfg.migrateProb);
    }
    const ThreadId n_threads = prog.numThreads();
    ICHECK_ASSERT(n_threads > 0, "program needs threads");
    threads.clear();
    for (ThreadId tid = 0; tid < n_threads; ++tid)
        threads.push_back(std::make_unique<SimThread>(tid));
    threadsLive = true;
    for (ThreadId tid = 0; tid < n_threads; ++tid)
        threads[tid]->fiber.start([this, tid] { threadEntry(tid); });
}

RunResult
Machine::finishRun()
{
    ICHECK_ASSERT(ran && program != nullptr,
                  "finishRun() before beginRun()");

    // Phase 4: the serializing scheduler loop. Alive/runnable are derived
    // from the thread states each iteration (not carried across
    // iterations), so the loop resumes correctly from any restored
    // mid-run state.
    std::vector<ThreadId> runnable;
    for (;;) {
        std::uint32_t alive = 0;
        runnable.clear();
        for (const auto &thread : threads) {
            if (thread->state != ThreadState::Finished)
                ++alive;
            if (thread->state == ThreadState::Ready)
                runnable.push_back(thread->tid);
        }
        if (alive == 0)
            break;
        if (runnable.empty()) {
            abortAll();
            throw SimError("deadlock: no runnable thread (" +
                           std::to_string(alive) + " alive)");
        }
        if (decisionHandler)
            decisionHandler(runnable);
        const ThreadId tid = scheduler->pick(runnable);
        SimThread &thread = *threads[tid];
        const CoreId home = tid % cfg.numCores;
        const CoreId core_id = scheduler->coreFor(tid, home, cfg.numCores);

        switchIn(tid, core_id);
        emitSlice(tid, core_id, /*begin=*/true, SliceEnd::Running);
        thread.quantum = static_cast<std::int64_t>(scheduler->quantum());
        thread.state = ThreadState::Running;
        thread.fiber.resume();
        switchOut(tid);
        emitSlice(tid, core_id, /*begin=*/false,
                  sliceEndFor(thread.lastReason));

        switch (thread.lastReason) {
          case YieldReason::Quantum:
          case YieldReason::Sync:
            thread.state = ThreadState::Ready;
            break;
          case YieldReason::BlockedMutex:
            thread.state = ThreadState::BlockedMutex;
            break;
          case YieldReason::BlockedBarrier:
            thread.state = ThreadState::BlockedBarrier;
            break;
          case YieldReason::BlockedCond:
            thread.state = ThreadState::BlockedCond;
            break;
          case YieldReason::Finished:
            thread.state = ThreadState::Finished;
            break;
        }
        statistics.add("slices");
    }

    for (auto &thread : threads)
        thread->fiber.join();
    threadsLive = false;

    // Phase 5: program-end determinism checkpoint.
    fireCheckpoint(CheckpointKind::ProgramEnd, invalidThreadId);

    RunResult result;
    result.checkpoints = checkpointIndex;
    for (const auto &core : cores) {
        result.nativeInstrs += core->nativeInstrs;
        result.overheadInstrs += core->overheadInstrs;
        result.cacheHits += core->l1.hits();
        result.cacheMisses += core->l1.misses();
        result.storesHashed += core->mhm->storesHashed();
    }
    return result;
}

RunResult
Machine::run(Program &prog)
{
    beginRun(prog);
    return finishRun();
}

bool
Machine::snapshotSupported()
{
    return SimFiber::snapshotSupported();
}

std::shared_ptr<const MachineSnapshot>
Machine::checkpoint()
{
    ICHECK_ASSERT(snapshotSupported(),
                  "checkpoint() in a build without fiber snapshots");
    ICHECK_ASSERT(ran && curTid == invalidThreadId,
                  "checkpoint() outside a quiescent point");
    ICHECK_ASSERT(usesPrivateLog,
                  "checkpoint() requires a private malloc-replay log");

    auto snap = std::make_shared<MachineSnapshot>();
    snap->mem = mem.fork();
    snap->logState = privateLog;
    snap->heapState = heap.saveState();

    snap->coreStates.reserve(cores.size());
    for (const auto &core : cores) {
        MachineSnapshot::CoreState cs;
        cs.nativeInstrs = core->nativeInstrs;
        cs.overheadInstrs = core->overheadInstrs;
        cs.l1 = core->l1;
        cs.wb = core->wb;
        cs.mhm = core->mhm->saveState();
        cs.currentThread = core->currentThread;
        snap->coreStates.push_back(std::move(cs));
    }

    snap->threadStates.reserve(threads.size());
    std::size_t fiber_bytes = 0;
    for (const auto &thread : threads) {
        MachineSnapshot::ThreadSnap ts;
        ts.state = thread->state;
        ts.lastReason = thread->lastReason;
        ts.hashingPaused = thread->hashingPaused;
        ts.quantum = thread->quantum;
        ts.savedTh = thread->savedTh;
        ts.lastCore = thread->lastCore;
        ts.randCalls = thread->randCalls;
        ts.timeCalls = thread->timeCalls;
        ts.progress = thread->progress;
        ts.loadHash = thread->loadHash;
        ts.fiber = thread->fiber.snapshot();
        fiber_bytes += ts.fiber.bytes();
        snap->threadStates.push_back(std::move(ts));
    }

    snap->mutexes = mutexes;
    snap->barriers = barriers;
    snap->conds = conds;
    snap->outputBytes = outputBytes;
    snap->statistics = statistics;
    snap->checkpointIndex = checkpointIndex;

    // Footprint estimate for cache budgeting: fiber images and output
    // dominate; shared COW pages cost only their map entries until a
    // write clones them, and the allocator tables are approximated per
    // block.
    snap->footprint = sizeof(MachineSnapshot) + fiber_bytes +
                      snap->outputBytes.capacity() +
                      mem.mappedPages() * 64 +
                      snap->heapState.blocks.size() * 192;
    return snap;
}

void
Machine::restore(const MachineSnapshot &snap)
{
    ICHECK_ASSERT(ran && curTid == invalidThreadId,
                  "restore() while a thread is running");
    ICHECK_ASSERT(snap.coreStates.size() == cores.size() &&
                      snap.threadStates.size() == threads.size(),
                  "snapshot from a different machine shape");

    mem.restoreFrom(snap.mem);
    privateLog = snap.logState;
    heap.restoreState(snap.heapState);

    for (std::size_t i = 0; i < cores.size(); ++i) {
        const MachineSnapshot::CoreState &cs = snap.coreStates[i];
        cores[i]->nativeInstrs = cs.nativeInstrs;
        cores[i]->overheadInstrs = cs.overheadInstrs;
        cores[i]->l1 = cs.l1;
        cores[i]->wb = cs.wb;
        cores[i]->mhm->restoreState(cs.mhm);
        cores[i]->currentThread = cs.currentThread;
    }

    for (std::size_t i = 0; i < threads.size(); ++i) {
        const MachineSnapshot::ThreadSnap &ts = snap.threadStates[i];
        SimThread &thread = *threads[i];
        thread.state = ts.state;
        thread.lastReason = ts.lastReason;
        thread.aborting = false;
        thread.hashingPaused = ts.hashingPaused;
        thread.quantum = ts.quantum;
        thread.savedTh = ts.savedTh;
        thread.lastCore = ts.lastCore;
        thread.randCalls = ts.randCalls;
        thread.timeCalls = ts.timeCalls;
        thread.progress = ts.progress;
        thread.loadHash = ts.loadHash;
        thread.fiber.restore(ts.fiber);
    }

    mutexes = snap.mutexes;
    barriers = snap.barriers;
    conds = snap.conds;
    outputBytes = snap.outputBytes;
    statistics = snap.statistics;
    checkpointIndex = snap.checkpointIndex;

    curTid = invalidThreadId;
    curCore = invalidCoreId;
    threadsLive = true;
}

void
Machine::threadEntry(ThreadId tid)
{
    SimThread &thread = *threads[tid];
    if (thread.aborting)
        return;
    try {
        ThreadCtx ctx(*this, tid);
        emitSync(SyncKind::ThreadStart, tid);
        program->threadMain(ctx);
        emitSync(SyncKind::ThreadFinish, tid);
    } catch (const AbortRun &) {
        return;
    }
    // Returning ends the fiber's slice; the scheduler sees Finished.
    thread.lastReason = YieldReason::Finished;
}

void
Machine::yieldCurrent(YieldReason reason)
{
    SimThread &thread = cur();
    thread.lastReason = reason;
    thread.fiber.yield();
    if (thread.aborting)
        throw AbortRun{};
}

void
Machine::step()
{
    SimThread &thread = cur();
    if (--thread.quantum <= 0)
        yieldCurrent(YieldReason::Quantum);
}

SimThread &
Machine::cur()
{
    ICHECK_ASSERT(curTid != invalidThreadId, "no current thread");
    return *threads[curTid];
}

Core &
Machine::curCoreRef()
{
    ICHECK_ASSERT(curCore != invalidCoreId, "no current core");
    return *cores[curCore];
}

void
Machine::switchIn(ThreadId tid, CoreId core_id)
{
    SimThread &thread = *threads[tid];
    Core &core = *cores[core_id];
    // restore_hash: the thread's TH becomes architectural on this core.
    core.mhm->restoreHash(thread.savedTh);
    if (thread.hashingPaused || !cfg.hashingArmed)
        core.mhm->stopHashing();
    else
        core.mhm->startHashing();
    core.currentThread = tid;
    if (thread.lastCore != invalidCoreId && thread.lastCore != core_id)
        statistics.add("migrations");
    thread.lastCore = core_id;
    curTid = tid;
    curCore = core_id;
}

void
Machine::switchOut(ThreadId tid)
{
    SimThread &thread = *threads[tid];
    Core &core = *cores[thread.lastCore];
    drainWriteBuffer(core);
    // save_hash: park the TH register value with the thread.
    thread.savedTh = core.mhm->saveHash();
    curTid = invalidThreadId;
    curCore = invalidCoreId;
}

void
Machine::drainWriteBuffer(Core &core)
{
    core.wb.drainAll([this, &core](const cache::WriteBufferEntry &entry) {
        drainEntry(core, entry);
    });
}

void
Machine::drainEntry(Core &core, const cache::WriteBufferEntry &entry)
{
    // The write updates the L1 (write-allocate: hit or fill, either way
    // Data_old is available to the MHM without an extra access).
    core.l1.access(entry.paddr, true);
    // Stores retired inside a stop_hashing window bypass the MHM.
    if (entry.hashed) {
        core.mhm->observeStore(entry.vaddr(), entry.oldBits,
                               entry.newBits, entry.width, entry.cls);
    }
}

std::uint64_t
Machine::loadAccess(Addr addr, unsigned width)
{
    Core &core = curCoreRef();
    SimThread &thread = cur();
    const std::uint64_t bits = mem.readValue(addr, width);
    ++core.nativeInstrs;
    ++thread.progress;
    thread.loadHash = mixSig(thread.loadHash, bits);
    core.l1.access(cache::translate(addr), false);
    if (!loadListeners.empty()) {
        const LoadEvent event{curTid, core.id, addr, width};
        for (auto *listener : loadListeners)
            listener->onLoad(event);
    }
    step();
    return bits;
}

void
Machine::storeAccess(Addr addr, unsigned width, std::uint64_t bits,
                     hashing::ValueClass cls, CostDomain domain)
{
    Core &core = curCoreRef();
    SimThread &thread = cur();
    const bool hashed = cfg.hashingArmed && !thread.hashingPaused;
    // The old value is consumed only by the MHM and by listeners that
    // declared storeValues. When the hash gate is closed and no listener
    // wants values, skip the read entirely — safe because write buffers
    // are drained before the gate ever flips, so no hashed=true entry can
    // be in flight while hashed is false here.
    const std::uint64_t old_bits =
        hashed || storeValuesWanted ? mem.readValue(addr, width) : 0;
    mem.writeValue(addr, width, bits);
    if (domain == CostDomain::Native) {
        ++core.nativeInstrs;
        ++thread.progress;
        cache::WriteBufferEntry entry;
        entry.paddr = cache::translate(addr);
        entry.vpn = addr / cache::vpnPageSize;
        entry.width = width;
        entry.oldBits = old_bits;
        entry.newBits = bits;
        entry.cls = cls;
        entry.hashed = hashed;
        core.wb.push(entry,
                     [this, &core](const cache::WriteBufferEntry &e) {
                         drainEntry(core, e);
                     });
    } else {
        // InstantCheck-added store (zeroing/scrubbing): modeled as software
        // writes, so they bypass the cache model but still update the hash.
        ++core.overheadInstrs;
        core.mhm->observeStore(addr, old_bits, bits, width, cls);
    }

    if (!storeListeners.empty()) {
        const StoreEvent event{curTid, core.id, addr, old_bits, bits,
                               width, cls, domain, hashed};
        for (auto *listener : storeListeners)
            listener->onStore(event);
    }

    if (domain == CostDomain::Native)
        step();
}

void
Machine::tick(InstCount n)
{
    curCoreRef().nativeInstrs += n;
}

void
Machine::zeroRange(Addr addr, std::size_t len)
{
    Addr cursor = addr;
    std::size_t remaining = len;
    while (remaining > 0) {
        const unsigned width =
            remaining >= 8 ? 8 : static_cast<unsigned>(remaining);
        storeAccess(cursor, width, 0, hashing::ValueClass::Integer,
                    CostDomain::Overhead);
        cursor += width;
        remaining -= width;
    }
}

void
Machine::scrubTyped(Addr addr, const mem::TypeRef &type)
{
    // Scrubbing must cancel exactly what incremental hashing accumulated:
    // FP fields were hashed through the round-off unit, so their zeroing
    // stores must carry the same value class (old value rounded, new value
    // 0.0 — which rounds to itself).
    type->forEachScalar([&](std::size_t offset, mem::ScalarKind kind,
                            unsigned width) {
        const Addr at = addr + offset;
        if (kind == mem::ScalarKind::Float ||
            kind == mem::ScalarKind::Double) {
            storeAccess(at, width, 0, mem::scalarClass(kind),
                        CostDomain::Overhead);
        } else {
            zeroRange(at, width);
        }
    });
}

Addr
Machine::allocBlock(const std::string &site, const mem::TypeRef &type)
{
    Core &core = curCoreRef();
    // A real allocator serializes internally; model its lock so the
    // happens-before race detector sees the edge that orders a block's
    // free (by one thread) before its reuse (by another).
    emitSync(SyncKind::LockAcquire, curTid, allocatorLockId);
    const Addr addr = heap.allocate(site, type);
    core.nativeInstrs += allocCost;
    const mem::Block *block = heap.findLive(addr);
    ICHECK_ASSERT(block != nullptr, "allocation lost");
    for (auto *listener : listeners)
        listener->onAlloc(*block);
    if (instrumentation)
        zeroRange(addr, type->size());
    emitSync(SyncKind::LockRelease, curTid, allocatorLockId);
    statistics.add("allocs");
    return addr;
}

void
Machine::freeBlock(Addr addr)
{
    Core &core = curCoreRef();
    emitSync(SyncKind::LockAcquire, curTid, allocatorLockId);
    const mem::Block *block = heap.findLive(addr);
    ICHECK_ASSERT(block != nullptr, "free of unknown block at ", addr);
    for (auto *listener : listeners)
        listener->onFree(*block);
    // Scrub the freed contents through the hashed store path so that freed
    // memory leaves the tracked state (and the hash never sees stale
    // garbage on reuse).
    if (instrumentation)
        scrubTyped(addr, block->type);
    heap.free(addr);
    emitSync(SyncKind::LockRelease, curTid, allocatorLockId);
    core.nativeInstrs += allocCost / 2;
    statistics.add("frees");
}

void
Machine::lockMutex(MutexId id)
{
    ICHECK_ASSERT(id < mutexes.size(), "bad mutex id");
    // The pre-acquire switch point executes nothing, but it moves this
    // thread to a new resume position; count it so state signatures can
    // tell "parked at the acquire" from "not yet called lock" (otherwise
    // state pruning merges the two and silently drops schedules).
    ++cur().progress;
    yieldCurrent(YieldReason::Sync);
    SimThread &thread = cur();
    SimMutex &mutex = mutexes[id];
    while (mutex.owner != invalidThreadId) {
        ICHECK_ASSERT(mutex.owner != thread.tid,
                      "recursive lock of mutex ", id);
        mutex.waiters.push_back(thread.tid);
        yieldCurrent(YieldReason::BlockedMutex);
    }
    mutex.owner = thread.tid;
    ++thread.progress;
    curCoreRef().nativeInstrs += syncCost;
    emitSync(SyncKind::LockAcquire, thread.tid, id);
}

void
Machine::unlockMutex(MutexId id)
{
    ICHECK_ASSERT(id < mutexes.size(), "bad mutex id");
    SimThread &thread = cur();
    SimMutex &mutex = mutexes[id];
    ICHECK_ASSERT(mutex.owner == thread.tid,
                  "unlock by non-owner of mutex ", id);
    emitSync(SyncKind::LockRelease, thread.tid, id);
    mutex.owner = invalidThreadId;
    ++thread.progress;
    for (ThreadId waiter : mutex.waiters)
        threads[waiter]->state = ThreadState::Ready;
    mutex.waiters.clear();
    curCoreRef().nativeInstrs += syncCost;
}

void
Machine::barrierWait(BarrierId id)
{
    ICHECK_ASSERT(id < barriers.size(), "bad barrier id");
    // Pre-arrival switch point: same progress accounting as lockMutex.
    ++cur().progress;
    yieldCurrent(YieldReason::Sync);
    SimThread &thread = cur();
    SimBarrier &barrier = barriers[id];
    const std::uint64_t epoch = barrier.epoch;
    emitSync(SyncKind::BarrierArrive, thread.tid, id, epoch);
    ++thread.progress;
    curCoreRef().nativeInstrs += syncCost;
    ++barrier.arrived;
    if (barrier.arrived == barrier.parties) {
        barrier.arrived = 0;
        ++barrier.epoch;
        // The last arriver computes the determinism checkpoint while every
        // other participant is parked — the state is quiescent, and the
        // hash gathering overlaps the barrier as described in Section 2.2.
        fireCheckpoint(CheckpointKind::Barrier, thread.tid);
        for (ThreadId waiter : barrier.waiters)
            threads[waiter]->state = ThreadState::Ready;
        barrier.waiters.clear();
        emitSync(SyncKind::BarrierLeave, thread.tid, id, epoch);
        yieldCurrent(YieldReason::Sync);
    } else {
        barrier.waiters.push_back(thread.tid);
        yieldCurrent(YieldReason::BlockedBarrier);
        emitSync(SyncKind::BarrierLeave, thread.tid, id, epoch);
    }
}

void
Machine::condWait(CondId cond, MutexId mutex)
{
    ICHECK_ASSERT(cond < conds.size(), "bad cond id");
    SimThread &thread = cur();
    emitSync(SyncKind::CondWait, thread.tid, cond);
    unlockMutex(mutex);
    conds[cond].waiters.push_back(thread.tid);
    yieldCurrent(YieldReason::BlockedCond);
    lockMutex(mutex);
}

void
Machine::condSignal(CondId cond)
{
    ICHECK_ASSERT(cond < conds.size(), "bad cond id");
    emitSync(SyncKind::CondSignal, cur().tid, cond);
    auto &waiters = conds[cond].waiters;
    if (!waiters.empty()) {
        threads[waiters.front()]->state = ThreadState::Ready;
        waiters.erase(waiters.begin());
    }
    curCoreRef().nativeInstrs += syncCost;
}

void
Machine::condBroadcast(CondId cond)
{
    ICHECK_ASSERT(cond < conds.size(), "bad cond id");
    emitSync(SyncKind::CondSignal, cur().tid, cond);
    for (ThreadId waiter : conds[cond].waiters)
        threads[waiter]->state = ThreadState::Ready;
    conds[cond].waiters.clear();
    curCoreRef().nativeInstrs += syncCost;
}

void
Machine::manualCheckpoint()
{
    fireCheckpoint(CheckpointKind::Manual, cur().tid);
}

void
Machine::setThreadHashing(bool enabled)
{
    // start_hashing / stop_hashing (Fig 4): tool code running in the
    // checked thread's address space is excluded from hashing. Applies to
    // the current core's MHM immediately and travels with the thread
    // across context switches.
    SimThread &thread = cur();
    thread.hashingPaused = !enabled;
    Core &core = curCoreRef();
    // Drain buffered (hashed) stores before flipping the gate so they
    // still reach the MHM with their original status.
    drainWriteBuffer(core);
    if (enabled && cfg.hashingArmed)
        core.mhm->startHashing();
    else
        core.mhm->stopHashing();
}

void
Machine::fireCheckpoint(CheckpointKind kind, ThreadId tid)
{
    if (tid != invalidThreadId) {
        // Make the current thread's TH architectural before summing: drain
        // its write buffer and save the register.
        SimThread &thread = *threads[tid];
        Core &core = *cores[thread.lastCore];
        drainWriteBuffer(core);
        thread.savedTh = core.mhm->saveHash();
    }
    CheckpointInfo info{kind, checkpointIndex++, tid};
    statistics.add("checkpoints");
    for (auto *listener : listeners)
        listener->onCheckpoint(info);
    if (checkpointHandler)
        checkpointHandler(info);
}

void
Machine::emitSync(SyncKind kind, ThreadId tid, std::uint32_t object,
                  std::uint64_t epoch)
{
    if (!listeners.empty()) {
        SyncEvent event{kind, tid, object, epoch};
        for (auto *listener : listeners)
            listener->onSync(event);
    }
}

void
Machine::emitSlice(ThreadId tid, CoreId core_id, bool begin,
                   SliceEnd reason)
{
    if (!listeners.empty()) {
        SliceEvent event{tid, core_id, begin, reason};
        for (auto *listener : listeners)
            listener->onSlice(event);
    }
}

std::uint64_t
Machine::interceptedRand()
{
    // Section 5: results of nondeterministic library calls are treated as
    // input and repeat across runs — keyed by (input seed, tid, call #) so
    // each thread's sequence is schedule-independent.
    SimThread &thread = cur();
    SplitMix64 gen(cfg.inputSeed ^ (0x517cc1b727220a95ULL *
                                    (thread.tid + 1)) ^
                   thread.randCalls);
    ++thread.randCalls;
    curCoreRef().nativeInstrs += libCallCost;
    const std::uint64_t value = gen.next();
    thread.loadHash = mixSig(thread.loadHash, value);
    return value;
}

std::uint64_t
Machine::interceptedTimeUs()
{
    SimThread &thread = cur();
    const std::uint64_t value = 1'000'000'000ULL +
        static_cast<std::uint64_t>(thread.tid) * 1'000'000ULL +
        thread.timeCalls * 37ULL;
    ++thread.timeCalls;
    curCoreRef().nativeInstrs += libCallCost;
    return value;
}

void
Machine::writeOutput(const std::uint8_t *data, std::size_t len)
{
    outputBytes.insert(outputBytes.end(), data, data + len);
    for (auto *listener : listeners)
        listener->onOutput(curTid, data, len);
    curCoreRef().nativeInstrs += len / 8 + 1;
}

std::string
Machine::renderStats() const
{
    std::ostringstream os;
    os << "---------- machine ----------\n";
    os << statistics.render();
    os << "memory.mapped_pages=" << mem.mappedPages() << "\n";
    os << "memory.static_bytes=" << statics.bytes() << "\n";
    os << "heap.live_bytes=" << heap.liveBytes() << "\n";
    os << "heap.allocations=" << heap.allocationCount() << "\n";
    os << "output.bytes=" << outputBytes.size() << "\n";
    for (const auto &core : cores) {
        os << "---------- core " << core->id << " ----------\n";
        os << "instrs.native=" << core->nativeInstrs << "\n";
        os << "instrs.overhead=" << core->overheadInstrs << "\n";
        os << "l1.hits=" << core->l1.hits() << "\n";
        os << "l1.misses=" << core->l1.misses() << "\n";
        os << "l1.writebacks=" << core->l1.writebacks() << "\n";
        os << "mhm.stores_hashed=" << core->mhm->storesHashed() << "\n";
        os << "mhm.bytes_hashed=" << core->mhm->bytesHashed() << "\n";
        os << "mhm.th=" << core->mhm->th().raw() << "\n";
    }
    return os.str();
}

void
Machine::abortAll()
{
    // Resume every unfinished body once with the abort flag set: a parked
    // one throws AbortRun from its yield and unwinds its stack (running
    // destructors of everything it holds); a never-started one sees the
    // flag on entry and returns immediately.
    for (auto &thread : threads) {
        if (thread->state != ThreadState::Finished &&
            !thread->fiber.finished()) {
            thread->aborting = true;
            thread->fiber.resume();
        }
    }
    for (auto &thread : threads)
        thread->fiber.join();
    threadsLive = false;
}

} // namespace icheck::sim
