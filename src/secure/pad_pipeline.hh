/**
 * @file
 * The pad staging pipeline for one (peer, direction) pair.
 *
 * An OTP buffer entry is the staging slot in which one pad is
 * generated and parked until its message consumes it. With quota N,
 * pads for the next N counters of the pair are in flight or ready;
 * consuming the front pad immediately re-tasks its slot with the
 * next counter in sequence. A pair-direction therefore sustains at
 * most quota/latency messages per cycle — the mechanism behind the
 * paper's Fig. 8 sensitivity to the number of OTP entries.
 *
 * With quota 0 the pair owns no staging slot and every pad is
 * generated on demand, serialized (there is nowhere to overlap
 * generations), which is the worst case.
 */

#ifndef MGSEC_SECURE_PAD_PIPELINE_HH
#define MGSEC_SECURE_PAD_PIPELINE_HH

#include <cstdint>

#include "secure/otp_types.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"

namespace mgsec
{

class PadPipeline
{
  public:
    PadPipeline() = default;

    /**
     * (Re)initialize: @p quota slots begin generating pads for
     * counters @p next_ctr, next_ctr+1, ... at time @p now.
     */
    void init(Tick now, Cycles latency, std::uint32_t quota,
              std::uint64_t next_ctr);

    struct Claim
    {
        std::uint64_t ctr = 0;
        Tick ready = 0;   ///< when the pad exists (claim time)
    };

    /**
     * Consume the pad for the next counter in sequence. The freed
     * slot immediately starts generating the pad quota counters
     * ahead. With quota 0, generation happens on demand and
     * serializes on the single implicit generation context.
     */
    Claim claim(Tick now);

    /**
     * Change the slot count. Growth adds slots that start
     * generating now; shrinkage drops the highest-counter pads
     * (their work is wasted, as in a real reallocation).
     */
    void resize(Tick now, std::uint32_t new_quota);

    /**
     * Counter discontinuity (Shared/Cached fallback): all staged
     * pads are useless. Restart the pipeline at @p next_ctr; the
     * first claim after a resync pays the full latency.
     */
    void resync(Tick now, std::uint64_t next_ctr);

    std::uint32_t quota() const { return quota_; }
    /** Counter the next claim will return. */
    std::uint64_t nextCtr() const { return front_ctr_; }

    /**
     * Pad generations discarded before any message consumed them:
     * slots dropped by a shrinking resize plus staged pads
     * invalidated by a resync. Wasted crypto work — the attribution
     * layer surfaces it as a run-level gauge.
     */
    std::uint64_t wastedGenerations() const { return wasted_; }
    /** Ready tick of the front pad (MaxTick when quota is 0). */
    Tick frontReady() const;

    /** Staged pads already generated at @p now (occupancy gauge). */
    std::uint32_t
    readyAt(Tick now) const
    {
        std::uint32_t n = 0;
        for (Tick t : ready_)
            n += t <= now ? 1 : 0;
        return n;
    }

    /** Classify a claim the way Fig. 10 does. */
    static OtpOutcome
    classify(Tick now, Tick ready, Cycles latency)
    {
        if (ready <= now)
            return OtpOutcome::Hit;
        if (ready - now < latency)
            return OtpOutcome::Partial;
        return OtpOutcome::Miss;
    }

  private:
    Cycles latency_ = 40;
    std::uint32_t quota_ = 0;
    std::uint64_t front_ctr_ = 0;
    /** ready_[k] = ready tick of the pad for counter front_ctr_+k. */
    RingQueue<Tick> ready_;
    /** Serialization point for quota-0 on-demand generation. */
    Tick ondemand_free_ = 0;
    /** Generations discarded unconsumed (resize shrink, resync). */
    std::uint64_t wasted_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SECURE_PAD_PIPELINE_HH
