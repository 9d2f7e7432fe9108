/**
 * @file
 * Compute unit front end (Table III): each of a GPU's 64 CUs owns a
 * private L1 vector cache and a private L1 TLB. The node model
 * deals memory operations to CUs round-robin (the wavefront
 * scheduler's view) and consults the CU for translation and L1
 * filtering before anything reaches the L2 / remote-access path.
 */

#ifndef MGSEC_GPU_COMPUTE_UNIT_HH
#define MGSEC_GPU_COMPUTE_UNIT_HH

#include <string>

#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/sim_object.hh"

namespace mgsec
{

struct ComputeUnitParams
{
    CacheParams l1{16 * 1024, 4, kBlockBytes, 1};
    TlbParams l1Tlb{64, 1};
};

class ComputeUnit : public SimObject
{
  public:
    ComputeUnit(const std::string &name, EventQueue &eq,
                ComputeUnitParams params);

    /**
     * Translate the page of @p addr through the private L1 TLB.
     * @retval true the translation was resident.
     */
    bool translate(std::uint64_t addr);

    /**
     * Run a local access through the private L1 vector cache.
     * @retval true the block was resident.
     */
    bool l1Access(std::uint64_t addr, bool write);

    Cache &l1() { return l1_; }
    Tlb &l1Tlb() { return tlb_; }

  private:
    Cache l1_;
    Tlb tlb_;
};

} // namespace mgsec

#endif // MGSEC_GPU_COMPUTE_UNIT_HH
