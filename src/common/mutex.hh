/**
 * @file
 * Annotated mutex wrappers: the capability layer of the thread-safety
 * contract rollout.
 *
 * libstdc++'s std::mutex carries no clang capability annotations, so
 * `-Wthread-safety` cannot see through std::lock_guard at all. These
 * wrappers are the thinnest possible annotated shim: Mutex is a
 * std::mutex declared as a capability, MutexLock is an annotated
 * scoped acquisition, and both compile to exactly the std:: equivalents
 * (everything inlines; no state beyond the optional lock-order rank).
 *
 * Members protected by a Mutex are declared with
 * COPERNICUS_GUARDED_BY(mutex) (common/thread_annotations.hh); private
 * helpers that expect the lock held take COPERNICUS_REQUIRES(mutex).
 * The CI thread-safety job (clang, -Wthread-safety -Werror) then
 * rejects any access that cannot prove its capability.
 *
 * Debug builds additionally assert the global lock hierarchy: a Mutex
 * constructed with a rank (common/lock_order.hh) panics when acquired
 * out of order, so a latent deadlock fails deterministically in tests
 * instead of intermittently in production.
 *
 * Condition-variable-paired mutexes (thread_pool's queue mutex, the
 * server's admission mutex) keep std::mutex + std::unique_lock: the
 * wait/notify dance releases and reacquires inside the waiter, which
 * clang's static analysis cannot model without lying to it. Those two
 * sites are documented exclusions, still covered by tsan.
 */

#ifndef COPERNICUS_COMMON_MUTEX_HH
#define COPERNICUS_COMMON_MUTEX_HH

#include <mutex>

#include "common/lock_order.hh"
#include "common/thread_annotations.hh"

namespace copernicus {

/** An annotated std::mutex with an optional lock-order rank. */
class COPERNICUS_CAPABILITY("mutex") Mutex
{
  public:
    /** @param rank Lock-order rank (lock_order.hh); 0 = unranked. */
    explicit Mutex(int rank = 0) : orderRank(rank) {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() COPERNICUS_ACQUIRE()
    {
        noteLockAcquired(orderRank);
        m.lock();
    }

    void
    unlock() COPERNICUS_RELEASE()
    {
        m.unlock();
        noteLockReleased(orderRank);
    }

    bool
    try_lock() COPERNICUS_TRY_ACQUIRE(true)
    {
        if (!m.try_lock())
            return false;
        noteLockAcquired(orderRank);
        return true;
    }

    int rank() const { return orderRank; }

  private:
    std::mutex m;
    const int orderRank;
};

/** RAII scoped acquisition of a Mutex (std::lock_guard equivalent). */
class COPERNICUS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) COPERNICUS_ACQUIRE(mutex)
        : mu(mutex)
    {
        mu.lock();
    }

    ~MutexLock() COPERNICUS_RELEASE() { mu.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu;
};

} // namespace copernicus

#endif // COPERNICUS_COMMON_MUTEX_HH
