/**
 * @file
 * Per-layer replays for the traced benchmark run.
 *
 * A traced cell run records the organization-level access stream
 * through DramCacheController::setAccessObserver (tick, address,
 * kind and a digest of the org's LookupResult). Each layer is then
 * re-driven from outside through its own public functions, on the
 * inputs that layer saw in the run:
 *
 *  - trace:     TraceGenerator::next on fresh generators, for the
 *               records each core consumed;
 *  - cache:     SramCache::access (private L1s + shared LLSC) on
 *               that record stream, interleaved record by record;
 *  - dramcache: DramCacheOrg::access on an organization in the
 *               cell's start state, compared access by access with
 *               the run's LookupResults;
 *  - dram:      DramSystem::enqueue plus EventQueue::run on the
 *               stacked and off-chip requests derived from those
 *               LookupResults, issued as DramCacheController::access
 *               issues them: from the tick the run issued the access,
 *               in the controller's order and with its tag->data,
 *               demand->fill dependencies and credit throttles.
 *
 * Replays run in fixed-size chunks so memory stays bounded; a
 * layer's time is the sum of its chunk times.
 */

#ifndef BMC_PERFBENCH_LAYERS_HH
#define BMC_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "dramcache/org.hh"
#include "sim/schemes.hh"

namespace perfbench
{

/** Host steady-clock nanoseconds (arbitrary epoch). */
std::uint64_t nowNs();

/** 64-bit FNV-1a over a byte range, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = 1469598103934665603ULL);

/** Digest of every field of an organization's access descriptor. */
std::uint64_t lookupDigest(const bmc::dramcache::LookupResult &r);

/** One access in the org-level stream of a run, in org order. */
struct OrgAccess
{
    bmc::Tick tick = 0;
    bmc::Addr addr = 0;
    bool write = false;
    bool prefetch = false;
    std::uint64_t digest = 0;
};

/** Work counts and host time of the layer replays (summed). */
struct LayerTotals
{
    std::uint64_t records = 0;
    std::uint64_t traceNs = 0;

    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheNs = 0;

    std::uint64_t orgAccesses = 0;
    std::uint64_t orgHits = 0;
    std::uint64_t orgSramTagHits = 0;
    std::uint64_t orgNs = 0;
    std::uint64_t orgAllocs = 0;
    std::uint64_t mismatches = 0;

    std::uint64_t stackedRequests = 0;
    std::uint64_t offchipRequests = 0;
    std::uint64_t dramNs = 0;
    std::uint64_t dramEvents = 0;
    /** Off-chip bytes served by the end of each run. */
    std::uint64_t memBytesRead = 0;
    std::uint64_t memBytesWritten = 0;
    /** Deepest channel queue of any replay (a maximum, not a sum). */
    std::uint64_t peakQueue = 0;
};

/**
 * Replay the trace generators and the SRAM hierarchy of @p cfg for
 * @p programs: core c first consumes warm_records[c] records untimed
 * (the functional warm-up that preceded System::run), then
 * run_records[c] records that are timed and counted.
 */
void replayTraceAndCache(const bmc::sim::MachineConfig &cfg,
                         const std::vector<std::string> &programs,
                         const std::vector<std::uint64_t> &warm_records,
                         const std::vector<std::uint64_t> &run_records,
                         LayerTotals &out);

/**
 * Replay @p stream on @p org (which must be in the state the run's
 * organization started from) and count descriptor mismatches. With
 * @p run_end (the run's RunStats::simTicks), also drive fresh stacked
 * and off-chip DramSystems of @p cfg with the derived requests, and
 * add the off-chip bytes they serve by that tick to @p out.
 */
void replayOrgAndDram(const bmc::sim::MachineConfig &cfg,
                      bmc::dramcache::DramCacheOrg &org,
                      const std::vector<OrgAccess> &stream,
                      std::optional<bmc::Tick> run_end,
                      LayerTotals &out);

} // namespace perfbench

#endif // BMC_PERFBENCH_LAYERS_HH
