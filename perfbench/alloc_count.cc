#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_paused = false;

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed) && !t_paused)
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes ? bytes : 1);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed) && !t_paused)
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (bytes + a - 1) / a * a;
    return std::aligned_alloc(a, rounded ? rounded : a);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return operator new(bytes, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

CountScope::CountScope()
    : start_(g_allocs.load(std::memory_order_relaxed))
{
    g_counting.store(true, std::memory_order_relaxed);
}

CountScope::~CountScope()
{
    g_counting.store(false, std::memory_order_relaxed);
}

std::uint64_t
CountScope::count() const
{
    return g_allocs.load(std::memory_order_relaxed) - start_;
}

PauseScope::PauseScope() : was_(t_paused)
{
    t_paused = true;
}

PauseScope::~PauseScope()
{
    t_paused = was_;
}

} // namespace perfbench
