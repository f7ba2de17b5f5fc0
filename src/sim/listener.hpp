#ifndef ICHECK_SIM_LISTENER_HPP
#define ICHECK_SIM_LISTENER_HPP

/**
 * @file
 * Observation interface onto a simulated run.
 *
 * Software InstantCheck schemes, the race detector, and ad-hoc analysis
 * tools subscribe here. This is the repo's substitute for Pin
 * instrumentation callbacks: every simulated memory access, allocation,
 * synchronization operation, and output write is reported.
 */

#include <cstdint>

#include "hashing/state_hash.hpp"
#include "mem/alloc.hpp"
#include "support/types.hpp"

namespace icheck::sim
{

/** Whose cost account an access belongs to. */
enum class CostDomain : std::uint8_t
{
    Native,   ///< The program under test.
    Overhead, ///< Instrumentation added by InstantCheck (zeroing etc.).
};

/**
 * One store, observed after the value is in simulated memory.
 *
 * A plain aggregate: the machine builds one on the stack per store and
 * hands it by reference to every listener that declared store interest.
 * oldBits is 0 for an unhashed store when no listener asked for store
 * values (see ListenerInterest).
 */
struct StoreEvent
{
    ThreadId tid;
    CoreId core;
    Addr addr;
    std::uint64_t oldBits;
    std::uint64_t newBits;
    unsigned width;
    hashing::ValueClass cls;
    CostDomain domain;

    /**
     * False when the store happened inside a stop_hashing window
     * (Section 3.3): software incremental checkers must skip it, exactly
     * as the MHM does.
     */
    bool hashed;
};

/** One load, built the same way as StoreEvent. */
struct LoadEvent
{
    ThreadId tid;
    CoreId core;
    Addr addr;
    unsigned width;
};

/** Synchronization event kinds. */
enum class SyncKind : std::uint8_t
{
    LockAcquire,
    LockRelease,
    BarrierArrive,
    BarrierLeave,
    CondWait,
    CondSignal,
    ThreadStart,
    ThreadFinish,
};

/** One synchronization operation. */
struct SyncEvent
{
    SyncKind kind;
    ThreadId tid = 0;
    std::uint32_t object = 0; ///< Mutex/barrier/cond id (0 for thread ops).
    std::uint64_t epoch = 0;  ///< Barrier epoch, when applicable.
};

/** Kind of a determinism checkpoint (Section 2.3). */
enum class CheckpointKind : std::uint8_t
{
    Barrier,    ///< A pthread-style barrier completed.
    Manual,     ///< Programmer-specified point (e.g., loop iteration end).
    ProgramEnd, ///< All threads finished.
};

/** Information passed to the checkpoint handler and onCheckpoint(). */
struct CheckpointInfo
{
    CheckpointKind kind;
    std::uint64_t index; ///< 0-based sequence number within the run.
    ThreadId tid;        ///< Thread at the checkpoint (invalid at end).
};

/** How a schedule slice ended (mapped from the thread's YieldReason). */
enum class SliceEnd : std::uint8_t
{
    Running,   ///< Slice-begin events: nothing ended yet.
    Preempted, ///< Quantum expiry while still runnable.
    Yielded,   ///< Voluntary yield at a sync point.
    Blocked,   ///< Blocked on a mutex/barrier/condvar.
    Finished,  ///< The thread body returned.
};

/** One schedule slice boundary: a thread switching onto or off a core. */
struct SliceEvent
{
    ThreadId tid = 0;
    CoreId core = 0;
    bool begin = true; ///< True at switch-in, false at switch-out.
    SliceEnd reason = SliceEnd::Running; ///< Why it ended (end events).
};

/**
 * Which part of the access stream a listener consumes. Loads and stores
 * dominate event volume, so the machine delivers each only to the
 * listeners that asked for it; every other event kind (sync, slice,
 * alloc/free, output, checkpoint) reaches every listener.
 */
struct ListenerInterest
{
    bool loads = true;
    bool stores = true;

    /** Stores must carry the old value even when the hash gate is
     *  closed (the machine otherwise skips that memory read). Implies
     *  stores. */
    bool storeValues = true;
};

/** Neither loads nor stores: the listener consumes only the other events. */
inline constexpr ListenerInterest noAccessInterest{false, false, false};

/** Loads and stores by address; old store values are not needed. */
inline constexpr ListenerInterest addressInterest{true, true, false};

/**
 * Subscriber to run events. All callbacks fire synchronously on the
 * currently running simulated thread, in program order; because
 * execution is serialized, no locking is needed.
 */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    /** What this listener consumes; read once, by Machine::addListener.
     *  The default is everything. */
    virtual ListenerInterest interest() const { return {}; }

    virtual void onStore(const StoreEvent &) {}
    virtual void onLoad(const LoadEvent &) {}
    virtual void onSync(const SyncEvent &) {}
    virtual void onAlloc(const mem::Block &) {}
    virtual void onFree(const mem::Block &) {}
    virtual void onOutput(ThreadId, const std::uint8_t *, std::size_t) {}
    virtual void onSlice(const SliceEvent &) {}
    virtual void onCheckpoint(const CheckpointInfo &) {}
};

} // namespace icheck::sim

#endif // ICHECK_SIM_LISTENER_HPP
