/**
 * @file
 * BoundedRing: the fixed-capacity history behind the span collector,
 * the flight recorder and the serve daemon's request lanes.
 *
 * A push into a full ring overwrites the oldest value and counts it as
 * dropped, so a long-lived process keeps its most recent history and
 * never grows. The ring is unsynchronised: each owner guards it with
 * its own ranked mutex.
 */

#ifndef COPERNICUS_TRACE_BOUNDED_RING_HH
#define COPERNICUS_TRACE_BOUNDED_RING_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace copernicus {

template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(std::size_t capacity) { setCapacity(capacity); }

    /** Resize (drops the contents and counters). Capacity >= 1. */
    void
    setCapacity(std::size_t capacity)
    {
        COPERNICUS_FATAL_IF(capacity == 0,
                            "BoundedRing capacity must be >= 1");
        cap = capacity;
        clear();
    }

    void
    push(T value)
    {
        ++total;
        if (slots.size() < cap) {
            slots.push_back(std::move(value));
            return;
        }
        slots[head] = std::move(value);
        head = (head + 1) % cap;
    }

    /** Every retained value, oldest first. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> values;
        values.reserve(slots.size());
        // Once the ring has lapped, head is the oldest retained slot.
        for (std::size_t i = 0; i < slots.size(); ++i)
            values.push_back(slots[(head + i) % slots.size()]);
        return values;
    }

    /** Values pushed since construction/clear (retained or not). */
    std::uint64_t recorded() const { return total; }

    /** Values overwritten by wrap-around. */
    std::uint64_t dropped() const { return total - slots.size(); }

    void
    clear()
    {
        slots.clear();
        head = 0;
        total = 0;
    }

  private:
    std::vector<T> slots; ///< size() < cap until the first lap
    std::size_t cap = 1;
    std::size_t head = 0; ///< next overwrite slot once full
    std::uint64_t total = 0;
};

} // namespace copernicus

#endif // COPERNICUS_TRACE_BOUNDED_RING_HH
