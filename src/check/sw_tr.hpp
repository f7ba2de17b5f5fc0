#ifndef ICHECK_CHECK_SW_TR_HPP
#define ICHECK_CHECK_SW_TR_HPP

/**
 * @file
 * SW-InstantCheck_Tr: software traversal hashing (Section 4.2).
 *
 * At every checkpoint this scheme walks the entire state — static data and
 * the table of live allocated blocks — hashing each byte, with FP fields
 * located via the allocation-site type annotations and rounded before
 * hashing. Reported hashes are deltas from the initial-state traversal so
 * they are directly comparable (and, by construction, bit-identical) to
 * the incremental schemes' hashes.
 *
 * Cost model: 5 instructions per traversed byte; the non-ideal model adds
 * allocation-table maintenance (per malloc/free) and per-block lookups.
 */

#include "check/checker.hpp"
#include "sim/listener.hpp"

namespace icheck::check
{

/**
 * Software traversal scheme. See file comment.
 */
class SwInstantCheckTr : public Checker, public sim::AccessListener
{
  public:
    SwInstantCheckTr(IgnoreSpec ignore_spec, bool ideal_cost_model)
        : Checker(std::move(ignore_spec)), ideal(ideal_cost_model)
    {}

    Scheme scheme() const override { return Scheme::SwTr; }

    void attach(sim::Machine &machine) override;
    void onRunStart() override;

    /** Allocations and a traversal at checkpoints; no access stream. */
    sim::ListenerInterest
    interest() const override
    {
        return sim::noAccessInterest;
    }

    void onAlloc(const mem::Block &block) override;
    void onFree(const mem::Block &block) override;

    /** Bytes visited by the most recent traversal. */
    std::size_t lastTraversalBytes() const { return lastBytes; }

  protected:
    hashing::ModHash rawStateHash() override;

    /** Deletion is a skip during traversal; already paid for. */
    double deletionCostPerByte() const override { return 0.0; }

  private:
    /** Hash statics plus all live blocks out of current memory. */
    hashing::ModHash traverse();

    bool ideal;
    hashing::ModHash initialHash;
    std::size_t lastBytes = 0;
};

} // namespace icheck::check

#endif // ICHECK_CHECK_SW_TR_HPP
