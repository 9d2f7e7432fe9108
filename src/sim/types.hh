/**
 * @file
 * Fundamental scalar types shared by every mgsec library.
 */

#ifndef MGSEC_SIM_TYPES_HH
#define MGSEC_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace mgsec
{

/** Simulated time, in cycles of the 1 GHz system clock (Table III). */
using Tick = std::uint64_t;

/** A duration measured in ticks. */
using Cycles = std::uint64_t;

/** Sentinel for "never" / "no deadline". */
constexpr Tick MaxTick = std::numeric_limits<Tick>::max();

/**
 * Identifier of a processor node in the system. Node 0 is always the
 * CPU; nodes 1..numGpus are GPUs, matching the paper's convention of a
 * CPU plus N GPUs sharing one unified address space.
 */
using NodeId = std::uint32_t;

/** Sentinel node id. */
constexpr NodeId InvalidNode = static_cast<NodeId>(-1);

/**
 * Identifier of an event domain (sim/domain.hh). Domain 0 is the
 * host/fabric domain; domains 1..numGpus are the per-GPU domains.
 */
using DomainId = std::uint32_t;

/** Byte count. */
using Bytes = std::uint64_t;

/** Cache-block (and secure-message payload) size in bytes. */
constexpr Bytes kBlockBytes = 64;

/** Page size for the unified-memory page table / migration engine. */
constexpr Bytes kPageBytes = 4096;

/** Blocks per page. */
constexpr std::uint32_t kBlocksPerPage =
    static_cast<std::uint32_t>(kPageBytes / kBlockBytes);

} // namespace mgsec

#endif // MGSEC_SIM_TYPES_HH
