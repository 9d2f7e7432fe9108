#include "gpu/compute_unit.hh"

namespace mgsec
{

ComputeUnit::ComputeUnit(const std::string &name, EventQueue &eq,
                         ComputeUnitParams params)
    : SimObject(name, eq), l1_(name + ".l1", eq, params.l1),
      tlb_(name + ".tlb", eq, params.l1Tlb)
{
}

bool
ComputeUnit::translate(std::uint64_t addr)
{
    return tlb_.lookup(addr / kPageBytes);
}

bool
ComputeUnit::l1Access(std::uint64_t addr, bool write)
{
    return l1_.access(addr, write).hit;
}

} // namespace mgsec
