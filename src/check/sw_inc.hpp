#ifndef ICHECK_CHECK_SW_INC_HPP
#define ICHECK_CHECK_SW_INC_HPP

/**
 * @file
 * SW-InstantCheck_Inc: software incremental hashing (Section 4.1).
 *
 * Every store is instrumented to subtract the hash of the old value and
 * add the hash of the new value. Under the serializing test scheduler the
 * instrumentation is atomic with the store for free (this is exactly how
 * the paper's prototype achieves atomicity "without using locks").
 * Cost model: 5 instructions per byte hashed; the non-ideal model adds a
 * fixed per-store instrumentation trampoline.
 */

#include <vector>

#include "check/checker.hpp"
#include "sim/listener.hpp"

namespace icheck::check
{

/**
 * Software incremental-hashing scheme. See file comment.
 */
class SwInstantCheckInc : public Checker, public sim::AccessListener
{
  public:
    SwInstantCheckInc(IgnoreSpec ignore_spec, bool ideal_cost_model)
        : Checker(std::move(ignore_spec)), ideal(ideal_cost_model)
    {}

    Scheme scheme() const override { return Scheme::SwInc; }

    void attach(sim::Machine &machine) override;

    /** Stores with their old values, to undo each old location hash. */
    sim::ListenerInterest
    interest() const override
    {
        return {/*loads=*/false, /*stores=*/true, /*storeValues=*/true};
    }

    void onStore(const sim::StoreEvent &event) override;

    /** Per-thread software Thread Hash (mirrors the TH registers). */
    hashing::ModHash threadHash(ThreadId tid) const;

  protected:
    hashing::ModHash rawStateHash() override;

    /** Two software passes at 5 instr/byte, plus reads. */
    double deletionCostPerByte() const override { return 10.0; }

  private:
    bool ideal;
    std::vector<hashing::ModHash> thByThread;
};

} // namespace icheck::check

#endif // ICHECK_CHECK_SW_INC_HPP
