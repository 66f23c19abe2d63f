/**
 * @file
 * Heap-allocation counter for the benchmark binary.
 *
 * alloc_count.cc replaces the global operator new/delete family for
 * this executable only. Counting is off until a CountScope opens, so
 * the untraced timed runs pay one relaxed atomic load per allocation;
 * a thread can mute itself with PauseScope so that work the
 * benchmark does on the simulator's thread (capturing an observed
 * access) is not charged to the simulator.
 */

#ifndef BMC_PERFBENCH_ALLOC_COUNT_HH
#define BMC_PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench
{

/** Counts every operator new call made while it is alive. */
class CountScope
{
  public:
    CountScope();
    ~CountScope();
    CountScope(const CountScope &) = delete;
    CountScope &operator=(const CountScope &) = delete;

    /** Allocations counted since construction. */
    std::uint64_t count() const;

  private:
    std::uint64_t start_;
};

/** Mutes counting on the calling thread while it is alive. */
class PauseScope
{
  public:
    PauseScope();
    ~PauseScope();
    PauseScope(const PauseScope &) = delete;
    PauseScope &operator=(const PauseScope &) = delete;

  private:
    bool was_;
};

} // namespace perfbench

#endif // BMC_PERFBENCH_ALLOC_COUNT_HH
