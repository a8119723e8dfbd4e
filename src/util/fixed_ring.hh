/**
 * @file
 * FixedRing: a fixed-capacity FIFO ring buffer backing the
 * simulator's hot-loop queues (fetch buffer, ROB, FTQ). The storage
 * is allocated exactly once, at construction, and every subsequent
 * operation is a couple of index updates — unlike std::deque, which
 * allocates and frees chunk blocks as elements migrate across chunk
 * boundaries. The capacity is a hard bound from the machine
 * configuration (ROB size, FTQ depth), so overflow is a modelling
 * bug: push_back asserts in debug builds.
 */

#ifndef SFETCH_UTIL_FIXED_RING_HH
#define SFETCH_UTIL_FIXED_RING_HH

#include <cassert>
#include <cstddef>
#include <memory>

namespace sfetch
{

/**
 * Fixed-capacity FIFO over default-constructible T. Indexing
 * (`at(i)`) is relative to the front, supporting the ROB's
 * seqNo-offset lookups.
 */
template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(std::size_t capacity = 0) { reallocate(capacity); }

    FixedRing(const FixedRing &other) { *this = other; }

    FixedRing &
    operator=(const FixedRing &other)
    {
        if (this != &other) {
            reallocate(other.capacity_);
            for (std::size_t i = 0; i < other.size_; ++i)
                push_back(other.at(i));
        }
        return *this;
    }

    FixedRing(FixedRing &&) = default;
    FixedRing &operator=(FixedRing &&) = default;

    /**
     * Drop all elements and reallocate for @p capacity. This is the
     * only allocating operation; it is meant for construction and
     * reconfiguration, never for the per-cycle path.
     */
    void
    reallocate(std::size_t capacity)
    {
        capacity_ = capacity;
        std::size_t pow2 = 1;
        while (pow2 < capacity)
            pow2 <<= 1;
        mask_ = pow2 - 1;
        slots_ = capacity ? std::make_unique<T[]>(pow2) : nullptr;
        head_ = size_ = 0;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= capacity_; }

    void
    push_back(const T &v)
    {
        assert(!full() && "FixedRing overflow");
        slots_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    /**
     * Append a slot and return it for in-place construction: the
     * hot-loop alternative to building a T on the stack and copying
     * it in. The slot holds whatever the last occupant left; the
     * caller must set every field it will read back.
     */
    T &
    push_back_slot()
    {
        assert(!full() && "FixedRing overflow");
        T &slot = slots_[(head_ + size_) & mask_];
        ++size_;
        return slot;
    }

    void
    pop_front()
    {
        assert(!empty());
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /**
     * Drop the @p n front elements at once: the batched commit and
     * dispatch drains retire whole runs with two index updates
     * instead of one pop per element.
     */
    void
    pop_front_n(std::size_t n)
    {
        assert(n <= size_);
        head_ = (head_ + n) & mask_;
        size_ -= n;
    }

    T &
    front()
    {
        assert(!empty());
        return slots_[head_];
    }

    const T &
    front() const
    {
        assert(!empty());
        return slots_[head_];
    }

    T &
    back()
    {
        assert(!empty());
        return slots_[(head_ + size_ - 1) & mask_];
    }

    const T &
    back() const
    {
        assert(!empty());
        return slots_[(head_ + size_ - 1) & mask_];
    }

    /** Element @p i counted from the front (0 = front()). */
    T &
    at(std::size_t i)
    {
        assert(i < size_);
        return slots_[(head_ + i) & mask_];
    }

    const T &
    at(std::size_t i) const
    {
        assert(i < size_);
        return slots_[(head_ + i) & mask_];
    }

    void clear() { head_ = size_ = 0; }

  private:
    std::unique_ptr<T[]> slots_;
    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sfetch

#endif // SFETCH_UTIL_FIXED_RING_HH
