#include "memsec/mem_protect.hh"

#include <algorithm>

#include "sim/latency_attr.hh"
#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace mgsec
{

MemProtectEngine::MemProtectEngine(const std::string &name,
                                   EventQueue &eq,
                                   MemProtectParams params, Hbm &dram)
    : SimObject(name, eq), params_(params), dram_(dram),
      counter_cache_(name + ".ctrcache", eq,
                     TlbParams{params.counterCacheEntries, 1})
{
    MGSEC_ASSERT(params_.treeArity >= 2, "tree arity must be >= 2");
    MGSEC_ASSERT(params_.counterCoverage >= kBlockBytes,
                 "counter coverage below a block");

    // Depth: counter blocks fan in by treeArity until one node
    // (the on-chip root) covers the whole protected region.
    std::uint64_t nodes =
        std::max<std::uint64_t>(1, params_.protectedBytes /
                                       params_.counterCoverage);
    while (nodes > 1) {
        nodes = (nodes + params_.treeArity - 1) / params_.treeArity;
        ++levels_;
    }
    for (std::uint32_t l = 0; l < levels_; ++l) {
        level_caches_.push_back(std::make_unique<Tlb>(
            strformat("%s.tree%u", name.c_str(), l), eq,
            TlbParams{params_.treeCacheEntries, 1}));
    }

    regStat(counter_hits_);
    regStat(counter_misses_);
    regStat(meta_fetches_);
    regStat(mac_checks_);
    regStat(walk_depth_);
}

Tick
MemProtectEngine::access(std::uint64_t addr, bool write,
                         Tick data_ready)
{
    if (!params_.enabled)
        return data_ready;

    const std::uint64_t ctr_block = addr / params_.counterCoverage;
    Tick meta_ready = now();

    if (counter_cache_.lookup(ctr_block)) {
        ++counter_hits_;
        walk_depth_.record(0);
    } else {
        ++counter_misses_;
        // Fetch the counter block, then authenticate ancestors until
        // a cached (already-trusted) tree node is found.
        meta_ready = dram_.access(kBlockBytes);
        ++meta_fetches_;
        std::uint32_t walked = 1;
        std::uint64_t node = ctr_block;
        for (std::uint32_t l = 0; l < levels_; ++l) {
            node /= params_.treeArity;
            if (level_caches_[l]->lookup(node))
                break;
            meta_ready = std::max(meta_ready, dram_.access(kBlockBytes));
            ++meta_fetches_;
            ++walked;
        }
        walk_depth_.record(walked);
        // One pipelined MAC pass authenticates the fetched chain.
        meta_ready += params_.macLatency;
        mac_checks_ += static_cast<double>(walked);
        if (TraceSink *ts = eventq().traceSink()) {
            ts->complete(0, "memprot", "walk", now(),
                         meta_ready - now(), "levels", walked);
        }
        if (LatencyAttribution *attr = eventq().attribution())
            attr->recordMetaWalk(meta_ready - now());
    }

    // Decryption (read) or MAC update (write) cannot finish before
    // both the data and its counter are available; with the counter
    // on chip the pad is precomputable, so only the XOR remains.
    const Tick both = std::max(data_ready, meta_ready);
    ++mac_checks_;
    return both + (write ? 1 : 1);
}

} // namespace mgsec
