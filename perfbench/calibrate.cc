#include "calibrate.hh"

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "layers.hh"

namespace perfbench
{

namespace
{

/** Events one calibration runs. */
constexpr int kEvents = 400'000;
/** Tag-table entries (16 MiB). */
constexpr std::size_t kTags = (16u << 20) / sizeof(std::uint64_t);

/** Keeps the kernel's work observable so it is not optimised away. */
volatile std::uint64_t g_sink = 0;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

double
calibrate()
{
    static std::vector<std::uint64_t> tags(kTags, 0);
    using Event = std::pair<std::uint64_t, std::function<void()>>;
    auto later = [](const Event &a, const Event &b) {
        return a.first > b.first;
    };

    std::uint64_t hits = 0;
    const std::uint64_t t0 = nowNs();
    std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(
        later);
    std::uint64_t rng = 88172645463325252ULL;
    for (int i = 0; i < 64; ++i)
        queue.push({xorshift(rng) % 100, {}});
    for (int i = 0; i < kEvents; ++i) {
        Event ev = queue.top();
        queue.pop();
        if (ev.second)
            ev.second();
        const std::uint64_t r = xorshift(rng);
        std::uint64_t &tag = tags[(r >> 8) % kTags];
        if ((tag & 0xff) == (r & 0xff))
            ++hits;
        else
            tag = r;
        auto payload = std::make_shared<std::uint64_t>(r);
        queue.push({ev.first + 1 + r % 97,
                    [payload, &hits] { hits += *payload & 1; }});
    }
    const std::uint64_t t1 = nowNs();
    g_sink = hits;
    return static_cast<double>(t1 - t0) * 1e-9;
}

} // namespace perfbench
