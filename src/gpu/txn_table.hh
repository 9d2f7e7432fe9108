/**
 * @file
 * A node's outstanding transactions, keyed by their sequential id.
 *
 * Ids are handed out 1, 2, 3, ... and live only while a request is
 * in flight, so the live ids span roughly the issue window. The
 * table is a power-of-two slot array indexed by `id & mask`; when a
 * new id lands on a live slot the array doubles (ids distinct modulo
 * n stay distinct modulo 2n, so the rehash never collides). Once it
 * has grown to cover the window, insert / find / erase are one index
 * and allocate nothing.
 */

#ifndef MGSEC_GPU_TXN_TABLE_HH
#define MGSEC_GPU_TXN_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace mgsec
{

struct Txn
{
    std::uint64_t id = 0; ///< 0 = free slot
    Tick issued = 0;
    std::uint64_t page = 0;
    std::uint32_t blocksLeft = 0;
    bool migration = false;
    bool translation = false;
};

class TxnTable
{
  public:
    explicit TxnTable(std::size_t capacity)
        : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1)))
    {
    }

    /** Open transaction @p id (non-zero, not already open). */
    Txn &insert(std::uint64_t id)
    {
        MGSEC_ASSERT(id != 0, "txn id 0 is reserved");
        while (slots_[slotOf(id)].id != 0)
            grow();
        Txn &txn = slots_[slotOf(id)];
        txn = Txn{};
        txn.id = id;
        ++size_;
        return txn;
    }

    /** The open transaction @p id, or null. */
    Txn *find(std::uint64_t id)
    {
        Txn &txn = slots_[slotOf(id)];
        return id != 0 && txn.id == id ? &txn : nullptr;
    }

    void erase(Txn &txn)
    {
        txn.id = 0;
        --size_;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

  private:
    std::size_t slotOf(std::uint64_t id) const
    {
        return static_cast<std::size_t>(id & (slots_.size() - 1));
    }

    void grow()
    {
        std::vector<Txn> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Txn &txn : old)
            if (txn.id != 0)
                slots_[slotOf(txn.id)] = txn;
    }

    std::vector<Txn> slots_;
    std::size_t size_ = 0;
};

} // namespace mgsec

#endif // MGSEC_GPU_TXN_TABLE_HH
