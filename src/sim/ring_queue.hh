/**
 * @file
 * FIFO of plain values in a power-of-two ring buffer.
 *
 * Pad pipelines and replay windows push at the back and pop at the
 * front for a whole run at a nearly constant depth. std::deque
 * allocates a fresh chunk every few dozen pushes in that pattern;
 * this ring allocates only when the depth reaches a new peak and
 * otherwise reuses its buffer (clear() keeps it too).
 */

#ifndef MGSEC_SIM_RING_QUEUE_HH
#define MGSEC_SIM_RING_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace mgsec
{

template <typename T>
class RingQueue
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "RingQueue is restricted to plain values");

  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    /** Element @p i counted from the front. */
    T &operator[](std::size_t i) { return buf_[slot(i)]; }
    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }

    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[slot(size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = slot(1);
        --size_;
    }

    void pop_back() { --size_; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Front-to-back iteration (range-for). */
    class const_iterator
    {
      public:
        const_iterator(const RingQueue *q, std::size_t i) : q_(q), i_(i)
        {}
        const T &operator*() const { return (*q_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const RingQueue *q_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (buf_.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> next(std::max<std::size_t>(8, 2 * buf_.size()));
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mgsec

#endif // MGSEC_SIM_RING_QUEUE_HH
