#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "alloc_count.hh"
#include "cache/sram_cache.hh"
#include "common/bitops.hh"
#include "common/event_queue.hh"
#include "dram/dram_system.hh"
#include "sim/dramcache_controller.hh"
#include "trace/workload.hh"

namespace perfbench
{

using namespace bmc;

namespace
{

/** Accesses (or records per core) replayed per chunk. */
constexpr std::size_t kChunk = 4096;

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

std::uint64_t
mixLoc(std::uint64_t h, const dram::Location &loc)
{
    h = mix(h, loc.channel);
    h = mix(h, loc.bank);
    return mix(h, loc.row);
}

std::uint64_t
mixTag(std::uint64_t h, const dramcache::TagAccess &t)
{
    h = mix(h, t.needed);
    h = mixLoc(h, t.loc);
    h = mix(h, t.bytes);
    h = mix(h, t.parallelData);
    h = mix(h, t.sameRowAsData);
    return mix(h, t.isWrite);
}

std::uint64_t
mixData(std::uint64_t h, const dramcache::DataAccess &d)
{
    h = mix(h, d.needed);
    h = mixLoc(h, d.loc);
    return mix(h, d.bytes);
}

std::uint64_t
mixTransfers(std::uint64_t h, const std::vector<dramcache::Transfer> &v)
{
    h = mix(h, v.size());
    for (const auto &t : v) {
        h = mix(h, t.addr);
        h = mix(h, t.bytes);
    }
    return h;
}

/** Main-memory timing preset of @p cfg, as System picks it. */
dram::TimingParams
memParams(const sim::MachineConfig &cfg)
{
    if (sim::schemeInfo(cfg.scheme).memBackend ==
        dramcache::MemBackend::Nvm) {
        return dram::TimingParams::xpoint(cfg.memChannels,
                                          cfg.memBanksPerChannel);
    }
    auto p = dram::TimingParams::ddr3_1600h(cfg.memChannels,
                                            cfg.memBanksPerChannel);
    p.commandLevel = cfg.commandLevelDram;
    return p;
}

/**
 * The controller's background flow control: at most kCredits requests
 * in flight, the rest queued (DramCacheController::issueLowXfer and
 * issueStackedBg). A stacked backlog beyond 1024 drops its
 * oldest entry, as the controller coalesces metadata updates.
 */
class Throttle
{
  public:
    Throttle(dram::DramSystem &sys, std::size_t backlog_cap)
        : sys_(sys), cap_(backlog_cap)
    {
    }

    void
    push(dram::Request req)
    {
        if (queue_.size() >= cap_)
            queue_.pop_front();
        queue_.push_back(std::move(req));
        pump();
    }

  private:
    static constexpr unsigned kCredits = 64;

    void
    pump()
    {
        while (credits_ > 0 && !queue_.empty()) {
            dram::Request req = std::move(queue_.front());
            queue_.pop_front();
            --credits_;
            req.onComplete = [this](Tick) {
                ++credits_;
                pump();
            };
            sys_.enqueue(std::move(req));
        }
    }

    dram::DramSystem &sys_;
    std::size_t cap_;
    unsigned credits_ = kCredits;
    std::deque<dram::Request> queue_;
};

/**
 * Issues the DRAM requests of DramCacheController::access for one
 * org descriptor, in the controller's order and with its
 * dependencies: a DRAM-tag hit's data access waits for the tag read
 * and compare, a miss's demand fetch waits for the tag read or TAD
 * probe, the rest of the fill streams behind the demand line, and the
 * fill write waits for the demand line. Background traffic goes
 * through the controller's credit throttles.
 */
class ControllerReplica
{
  public:
    ControllerReplica(EventQueue &eq, dram::DramSystem &stacked,
                      dram::DramSystem &mem, LayerTotals &out)
        : eq_(eq), stacked_(stacked), mem_(mem), out_(out),
          stackedBg_(stacked, 1024), memLow_(mem, SIZE_MAX)
    {
    }

    void
    access(Addr addr, bool write, dramcache::LookupResult r)
    {
        for (const auto &bg : r.backgroundTags) {
            if (bg.needed) {
                stackedBg(bg.loc,
                          bg.isWrite ? dram::ReqKind::Write
                                     : dram::ReqKind::Read,
                          bg.bytes, true);
            }
        }
        const Tick t1 = eq_.now() + kDcc.controllerCycles + r.sramCycles;
        const dram::ReqKind data_kind =
            write ? dram::ReqKind::Write : dram::ReqKind::Read;

        if (r.tagWithData) {
            eq_.scheduleAtBoxed(t1, [this, r = std::move(r), addr,
                                     data_kind]() mutable {
                tadAccess(std::move(r), addr, data_kind);
            });
            return;
        }
        if (!r.tag.needed) {
            if (r.hit) {
                const dram::Location loc = r.data.loc;
                const std::uint32_t bytes = r.data.bytes;
                eq_.scheduleAtBoxed(t1, [this, loc, bytes, data_kind] {
                    stacked(loc, data_kind, bytes, false);
                });
            } else {
                startMiss(t1, std::move(r), addr);
            }
            return;
        }
        eq_.scheduleAtBoxed(t1, [this, r = std::move(r), addr,
                                 data_kind]() mutable {
            if (r.tag.parallelData && (r.hit || r.fill.fillWrite.needed)) {
                stacked(r.hit ? r.data.loc : r.fill.fillWrite.loc,
                        dram::ReqKind::ActivateOnly, 0, false);
            }
            const dram::Location tag_loc = r.tag.loc;
            const std::uint32_t tag_bytes = r.tag.bytes;
            stacked(tag_loc, dram::ReqKind::Read, tag_bytes, true,
                    [this, r = std::move(r), addr,
                     data_kind](Tick done) mutable {
                        const Tick after = done + kDcc.tagCompareCycles;
                        if (!r.hit) {
                            startMiss(after, std::move(r), addr);
                            return;
                        }
                        const dram::Location loc = r.data.loc;
                        const std::uint32_t bytes = r.data.bytes;
                        eq_.scheduleAtBoxed(
                            after, [this, loc, bytes, data_kind] {
                                stacked(loc, data_kind, bytes, false);
                            });
                    });
        });
    }

  private:
    using Done = std::function<void(Tick)>;

    /** The controller's defaults, which System keeps. */
    inline static const sim::DramCacheController::Params kDcc{};

    void
    stacked(const dram::Location &loc, dram::ReqKind kind,
            std::uint32_t bytes, bool meta, Done done = nullptr)
    {
        ++out_.stackedRequests;
        stacked_.enqueue(stackedReq(loc, kind, bytes, meta,
                                    std::move(done)));
    }

    void
    stackedBg(const dram::Location &loc, dram::ReqKind kind,
              std::uint32_t bytes, bool meta)
    {
        ++out_.stackedRequests;
        dram::Request req = stackedReq(loc, kind, bytes, meta, nullptr);
        req.lowPriority = true;
        stackedBg_.push(std::move(req));
    }

    static dram::Request
    stackedReq(const dram::Location &loc, dram::ReqKind kind,
               std::uint32_t bytes, bool meta, Done done)
    {
        dram::Request req;
        req.loc = loc;
        req.kind = kind;
        req.bytes = bytes;
        req.isMetadata = meta;
        req.onComplete = std::move(done);
        return req;
    }

    dram::Request
    memReq(Addr addr, std::uint32_t bytes, bool write)
    {
        ++out_.offchipRequests;
        dram::Request req;
        req.loc = mem_.addressMap().locate(addr);
        req.kind = write ? dram::ReqKind::Write : dram::ReqKind::Read;
        req.bytes = bytes;
        return req;
    }

    /** A demand read (MainMemory::read, normal priority). */
    void
    memRead(Addr addr, std::uint32_t bytes, Done done)
    {
        dram::Request req = memReq(addr, bytes, false);
        req.onComplete = std::move(done);
        mem_.enqueue(std::move(req));
    }

    /** A fill remainder or writeback behind the fill-buffer credits. */
    void
    lowXfer(Addr addr, std::uint32_t bytes, bool write)
    {
        dram::Request req = memReq(addr, bytes, write);
        req.lowPriority = true;
        memLow_.push(std::move(req));
    }

    /** The Alloy TAD path, at tag-issue time. */
    void
    tadAccess(dramcache::LookupResult r, Addr addr,
              dram::ReqKind data_kind)
    {
        const Addr line = roundDown(addr, kLineBytes);
        if (r.hit) {
            if (r.predictedMiss)
                memRead(line, kLineBytes, nullptr);
            stacked(r.data.loc, data_kind, r.data.bytes, false);
            return;
        }
        if (r.predictedMiss) {
            stacked(r.data.loc, dram::ReqKind::Read, r.data.bytes, false);
            for (const auto &wb : r.fill.writebacks)
                lowXfer(wb.addr, wb.bytes, true);
            const dram::Location fill_loc = r.fill.fillWrite.loc;
            const std::uint32_t fill_bytes = r.fill.fillWrite.bytes;
            memRead(line, kLineBytes, [this, fill_loc, fill_bytes](Tick) {
                stacked(fill_loc, dram::ReqKind::Write, fill_bytes, false);
            });
            return;
        }
        const dram::Location probe = r.data.loc;
        const std::uint32_t probe_bytes = r.data.bytes;
        stacked(probe, dram::ReqKind::Read, probe_bytes, false,
                [this, r = std::move(r), addr](Tick done) mutable {
                    startMiss(done + kDcc.tagCompareCycles, std::move(r),
                              addr);
                });
    }

    /** DramCacheController::startMiss: writebacks now, the demand
     *  line at @p when, the rest of the fill behind it. */
    void
    startMiss(Tick when, dramcache::LookupResult r, Addr addr)
    {
        for (const auto &wb : r.fill.writebacks) {
            for (std::uint32_t off = 0; off < wb.bytes; off += kLineBytes) {
                lowXfer(wb.addr + off,
                        std::min<std::uint32_t>(kLineBytes, wb.bytes - off),
                        true);
            }
        }
        if (r.fill.fetches.empty())
            return;
        const Addr demand = roundDown(addr, kLineBytes);
        std::vector<dramcache::Transfer> rest;
        bool found = false;
        for (const auto &f : r.fill.fetches) {
            if (!found && demand >= f.addr &&
                demand + kLineBytes <= f.addr + f.bytes) {
                found = true;
                if (demand > f.addr) {
                    rest.push_back(
                        {f.addr, static_cast<std::uint32_t>(demand - f.addr)});
                }
                const Addr after = demand + kLineBytes;
                if (after < f.addr + f.bytes) {
                    rest.push_back({after, static_cast<std::uint32_t>(
                                               f.addr + f.bytes - after)});
                }
            } else {
                rest.push_back(f);
            }
        }
        const bool fill = !r.fill.bypass && r.fill.fillWrite.needed;
        const dram::Location fill_loc = r.fill.fillWrite.loc;
        const std::uint32_t fill_bytes = r.fill.fillWrite.bytes;
        eq_.scheduleAtBoxed(when, [this, demand, rest = std::move(rest),
                                   fill, fill_loc, fill_bytes] {
            memRead(demand, kLineBytes,
                    [this, fill, fill_loc, fill_bytes](Tick) {
                        if (fill) {
                            stackedBg(fill_loc, dram::ReqKind::Write,
                                      fill_bytes, false);
                        }
                    });
            for (const auto &f : rest) {
                for (std::uint32_t off = 0; off < f.bytes;
                     off += kLineBytes) {
                    lowXfer(f.addr + off,
                            std::min<std::uint32_t>(kLineBytes,
                                                    f.bytes - off),
                            false);
                }
            }
        });
    }

    EventQueue &eq_;
    dram::DramSystem &stacked_;
    dram::DramSystem &mem_;
    LayerTotals &out_;
    Throttle stackedBg_;
    Throttle memLow_;
};

std::size_t
peakQueue(const dram::DramSystem &sys)
{
    std::size_t peak = 0;
    for (unsigned c = 0; c < sys.numChannels(); ++c)
        peak = std::max(peak, sys.channel(c).peakQueueDepth());
    return peak;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
lookupDigest(const dramcache::LookupResult &r)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    h = mix(h, r.hit);
    h = mix(h, r.sramTagHit);
    h = mix(h, r.sramCycles);
    h = mix(h, r.tagWithData);
    h = mix(h, r.predictedMiss);
    h = mixTag(h, r.tag);
    h = mixData(h, r.data);
    h = mixTransfers(h, r.fill.fetches);
    h = mixTransfers(h, r.fill.writebacks);
    h = mixData(h, r.fill.fillWrite);
    h = mix(h, r.fill.bypass);
    h = mix(h, r.backgroundTags.size());
    for (const auto &t : r.backgroundTags)
        h = mixTag(h, t);
    return h;
}

void
replayTraceAndCache(const sim::MachineConfig &cfg,
                    const std::vector<std::string> &programs,
                    const std::vector<std::uint64_t> &warm_records,
                    const std::vector<std::uint64_t> &run_records,
                    LayerTotals &out)
{
    const unsigned cores = static_cast<unsigned>(programs.size());
    // Same footprint reference and generator identities as System.
    const std::uint64_t footprint_ref =
        cfg.footprintRefBytes
            ? cfg.footprintRefBytes
            : cfg.dramCacheBytes * 4 / std::max(4u, cfg.cores);
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
    for (unsigned c = 0; c < cores; ++c) {
        gens.push_back(trace::makeProgram(programs[c],
                                          static_cast<CoreId>(c),
                                          footprint_ref, cfg.seed));
    }

    stats::StatGroup root("replay");
    std::vector<std::unique_ptr<cache::SramCache>> l1;
    for (unsigned c = 0; c < cores; ++c) {
        cache::SramCache::Params p;
        p.name = "l1d" + std::to_string(c);
        p.sizeBytes = cfg.l1Bytes;
        p.assoc = cfg.l1Assoc;
        p.hitLatency = cfg.l1Latency;
        p.seed = cfg.seed + 101;
        l1.push_back(std::make_unique<cache::SramCache>(p, root));
    }
    cache::SramCache::Params lp;
    lp.name = "llsc";
    lp.sizeBytes = cfg.llscBytes;
    lp.assoc = cfg.llscAssoc;
    lp.hitLatency = cfg.llscLatency;
    lp.seed = cfg.seed + 201;
    cache::SramCache llsc(lp, root);

    std::vector<std::vector<trace::TraceRecord>> buf(
        cores, std::vector<trace::TraceRecord>(kChunk));
    std::vector<std::uint64_t> left = warm_records;
    bool timed = false;
    std::vector<std::size_t> n(cores, 0);
    for (;;) {
        std::size_t widest = 0;
        const std::uint64_t t0 = nowNs();
        for (unsigned c = 0; c < cores; ++c) {
            n[c] = static_cast<std::size_t>(
                std::min<std::uint64_t>(kChunk, left[c]));
            for (std::size_t k = 0; k < n[c]; ++k)
                buf[c][k] = gens[c]->next();
            left[c] -= n[c];
            widest = std::max(widest, n[c]);
        }
        const std::uint64_t t1 = nowNs();
        if (widest == 0) {
            if (timed)
                break;
            left = run_records;
            timed = true;
            continue;
        }
        std::uint64_t accesses = 0;
        for (std::size_t k = 0; k < widest; ++k) {
            for (unsigned c = 0; c < cores; ++c) {
                if (k >= n[c])
                    continue;
                // The functional chain of MemHierarchy::warmAccess,
                // stopping at the DRAM cache.
                const trace::TraceRecord &rec = buf[c][k];
                const auto o1 = l1[c]->access(rec.addr, rec.write);
                ++accesses;
                if (o1.writeback) {
                    llsc.access(o1.victimAddr, true);
                    ++accesses;
                }
                if (!o1.hit) {
                    llsc.access(rec.addr, rec.write);
                    ++accesses;
                }
            }
        }
        const std::uint64_t t2 = nowNs();
        if (!timed)
            continue;
        out.traceNs += t1 - t0;
        out.cacheNs += t2 - t1;
        for (unsigned c = 0; c < cores; ++c)
            out.records += n[c];
        out.cacheAccesses += accesses;
    }
}

void
replayOrgAndDram(const sim::MachineConfig &cfg,
                 dramcache::DramCacheOrg &org,
                 const std::vector<OrgAccess> &stream,
                 std::optional<Tick> run_end, LayerTotals &out)
{
    const bool with_dram = run_end.has_value();
    EventQueue eq;
    stats::StatGroup root("replay");
    auto stacked_params = dram::TimingParams::stacked(
        cfg.stackedChannels, cfg.stackedBanksPerChannel);
    stacked_params.commandLevel = cfg.commandLevelDram;
    dram::DramSystem stacked(eq, stacked_params, "stacked", root);
    dram::DramSystem mem(eq, memParams(cfg), "main_memory", root);
    ControllerReplica dcc(eq, stacked, mem, out);

    std::vector<dramcache::LookupResult> res(kChunk);
    std::uint64_t scaffolding = 0;
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
        const std::size_t j = std::min(stream.size(), i + kChunk);
        {
            CountScope allocs;
            const std::uint64_t t0 = nowNs();
            for (std::size_t k = i; k < j; ++k) {
                const OrgAccess &a = stream[k];
                res[k - i] = org.access(a.addr, a.write, a.prefetch);
            }
            out.orgNs += nowNs() - t0;
            out.orgAllocs += allocs.count();
        }
        for (std::size_t k = i; k < j; ++k) {
            const dramcache::LookupResult &r = res[k - i];
            out.mismatches += lookupDigest(r) != stream[k].digest;
            out.orgHits += r.hit;
            out.orgSramTagHits += r.sramTagHit;
        }
        out.orgAccesses += j - i;
        if (!with_dram)
            continue;
        // Every access event of the chunk runs before the next chunk
        // overwrites res, so the events may point into it.
        const std::uint64_t t0 = nowNs();
        for (std::size_t k = i; k < j; ++k) {
            const OrgAccess *a = &stream[k];
            dramcache::LookupResult *r = &res[k - i];
            eq.scheduleAt(a->tick, [&dcc, a, r] {
                dcc.access(a->addr, a->write, std::move(*r));
            });
            ++scaffolding;
        }
        eq.run(stream[j - 1].tick);
        out.dramNs += nowNs() - t0;
    }
    if (!with_dram)
        return;
    const std::uint64_t t0 = nowNs();
    eq.run(*run_end);
    const dram::ActivityCounters served = mem.totalActivity();
    eq.run();
    out.dramNs += nowNs() - t0;
    out.memBytesRead += served.bytesRead;
    out.memBytesWritten += served.bytesWritten;
    out.peakQueue = std::max<std::uint64_t>(
        out.peakQueue, std::max(peakQueue(stacked), peakQueue(mem)));
    // The access events are benchmark scaffolding, not DRAM work.
    out.dramEvents += eq.numExecuted() - scaffolding;
}

} // namespace perfbench
