/**
 * @file
 * End-to-end simulator benchmark: host time to turn simulated
 * DRAM-cache accesses into results, on four fixed workloads, through
 * the library's public API (sim::System, sim::runSweep).
 *
 *   perfbench --workload=<name> --seed=<n> --seconds=<s>
 *             [--trace=0|1] [--trace-out=<file>]
 *
 * Untraced (--trace=0): repeats the workload until --seconds have
 * passed (at least kMinReps times) and reports medians over the
 * repetitions of accesses_per_s, wall_s and setup_s, each scaled to
 * the reference host's speed by the calibration kernel timed between
 * repetitions (calibrate.hh), plus the process's peak RSS after the
 * first repetition. One untimed
 * observed pass then replays every cell's org-level access stream and
 * counts descriptor mismatches.
 *
 * Traced (--trace=1): in rounds until --seconds have passed (at least
 * kMinReps), runs the workload once serially without observation and
 * once with the org-level access stream captured, then replays each
 * layer from outside (layers.hh). It reports the per-layer metrics:
 * host-time ones as medians over the rounds, counts only if every
 * round repeats them exactly. Spans of the first round are kept in
 * memory and written at exit as Chrome trace JSON (host ns as ticks)
 * to --trace-out.
 *
 * The last stdout line is one JSON object: per-cell result digests
 * (FNV-1a of runResultToJsonLine, timing and profile off), execution
 * and failure counts, and the metrics. perfbench/run.py checks the
 * digests against the recorded references.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "calibrate.hh"
#include "common/chrome_trace.hh"
#include "common/logging.hh"
#include "layers.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace perfbench
{
namespace
{

using namespace bmc;

/** Fewest repetitions an untraced run reports a median over. */
constexpr int kMinReps = 3;
/** Worker threads of the campaign sweep. */
constexpr unsigned kSweepThreads = 2;
/**
 * Largest share by which a cell's DRAM replay may serve more or fewer
 * off-chip bytes by the run's end than the run did. The replay issues
 * the controller's requests at the run's ticks, but same-tick events
 * can run in another order, which moves which fill reads are still in
 * flight when the run ends (up to 0.9% on bimodal, none on the other
 * schemes, at seed 1).
 */
constexpr double kReplayTrafficTolerance = 0.02;

// Instruction budgets per core (the in-run warm-up gets the same
// budget again). Shrunk from the presets (3M for 4 cores, 1.5M for 8)
// so one repetition of a workload takes one to two seconds on a
// 4-core host and a run reports a median over several; q5_hits and
// e3_misses keep the hit rates that make them hit- and miss-bound.
constexpr std::uint64_t kQ5Instrs = 2'000'000;
constexpr std::uint64_t kE3Instrs = 750'000;
constexpr std::uint64_t kCommandInstrs = 300'000;
constexpr std::uint64_t kCampaignInstrs = 600'000;
constexpr std::uint64_t kCampaignWarm = 600'000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload=<q5_hits|e3_misses|"
                 "q5_command|campaign> --seed=<n> --seconds=<s> "
                 "[--trace=0|1] [--trace-out=<file>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + arg);
        }
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            o.trace = value == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = value;
        } else {
            usage("unknown option " + arg);
        }
        if (end && *end != '\0')
            usage("bad number '" + value + "' for " + arg);
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

bool
isCampaign(const Options &o)
{
    return o.workload == "campaign";
}

/** The workload's cells, in the order they run. */
std::vector<sim::RunSpec>
buildCells(const Options &o)
{
    sim::SweepSpec spec;
    spec.seed = o.seed;
    const std::vector<std::string> four = {"bimodal", "alloy",
                                           "loh_hill", "banshee"};
    bool command = false;
    if (o.workload == "q5_hits") {
        spec.cores = 4;
        spec.workloads = {"Q5"};
        spec.schemes = four;
        spec.instrs = kQ5Instrs;
    } else if (o.workload == "e3_misses") {
        spec.cores = 8;
        spec.workloads = {"E3"};
        spec.schemes = four;
        spec.instrs = kE3Instrs;
    } else if (o.workload == "q5_command") {
        spec.cores = 4;
        spec.workloads = {"Q5"};
        spec.schemes = {"bimodal", "alloy"};
        spec.instrs = kCommandInstrs;
        command = true;
    } else if (o.workload == "campaign") {
        spec.cores = 4;
        spec.workloads = {"Q3", "Q5"};
        spec.schemes = {"alloy", "bimodal"};
        spec.mlp = {4, 8, 16};
        spec.instrs = kCampaignInstrs;
        spec.warmInsts = kCampaignWarm;
    } else {
        usage("unknown workload '" + o.workload + "'");
    }
    std::vector<sim::RunSpec> cells = sim::buildSweepRuns(spec);
    for (sim::RunSpec &c : cells)
        c.cfg.commandLevelDram = command;
    return cells;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
digestOf(const sim::RunResult &r)
{
    const std::string row = sim::runResultToJsonLine(r);
    return strfmt("%016" PRIx64, fnv1a(row.data(), row.size()));
}

sim::RunResult
okResult(const sim::RunSpec &spec, std::size_t index,
         const sim::RunStats &stats)
{
    sim::RunResult r = sim::failedRunResult(spec, index, "");
    r.ok = true;
    r.stats = stats;
    return r;
}

/** Execution and failure accounting of one benchmark invocation. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
};

/** One untimed-overhead repetition of a workload. */
struct Rep
{
    double wallS = 0.0;
    double setupS = 0.0;
    double timedS = 0.0;
    std::uint64_t accesses = 0;
    std::vector<sim::RunResult> results;
};

/** Single-run workloads: cells one after another on this thread. */
Rep
serialRep(const std::vector<sim::RunSpec> &cells)
{
    Rep rep;
    const std::uint64_t start = nowNs();
    std::uint64_t setup = 0;
    std::uint64_t timed = 0;
    std::uint64_t end = start;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::RunSpec &spec = cells[i];
        try {
            const std::uint64_t t0 = nowNs();
            sim::System sys(spec.cfg, spec.programs);
            const std::uint64_t t1 = nowNs();
            const sim::RunStats stats = sys.run();
            end = nowNs();
            setup += t1 - t0;
            timed += end - t1;
            rep.accesses += stats.dccAccesses;
            rep.results.push_back(okResult(spec, i, stats));
        } catch (const std::exception &e) {
            end = nowNs();
            rep.results.push_back(sim::failedRunResult(spec, i, e.what()));
        }
    }
    rep.wallS = seconds(end - start);
    rep.setupS = seconds(setup);
    rep.timedS = seconds(timed);
    return rep;
}

/** Campaign: the whole matrix through runSweep on kSweepThreads. */
Rep
sweepRep(const std::vector<sim::RunSpec> &cells)
{
    Rep rep;
    sim::SweepOptions opts;
    opts.threads = kSweepThreads;
    opts.shareWarmups = true;
    const std::uint64_t t0 = nowNs();
    rep.results = sim::runSweep(cells, opts);
    const std::uint64_t t1 = nowNs();
    rep.wallS = rep.timedS = seconds(t1 - t0);
    for (const sim::RunResult &r : rep.results)
        rep.accesses += r.stats.dccAccesses;
    // runSweep builds its Systems internally; construction is timed
    // here on the same configurations, outside the sweep's wall time.
    std::uint64_t setup = 0;
    for (const sim::RunSpec &spec : cells) {
        const std::uint64_t s0 = nowNs();
        {
            sim::System sys(spec.cfg, spec.programs);
        }
        setup += nowNs() - s0;
    }
    rep.setupS = seconds(setup);
    return rep;
}

/** In-memory span store, written as Chrome trace JSON at exit. */
class Spans
{
  public:
    explicit Spans(std::uint64_t epoch) : epoch_(epoch) {}

    void
    add(const char *name, const char *cat, std::uint64_t tid,
        std::uint64_t start, std::uint64_t end, std::string args = "")
    {
        spans_.push_back(
            {name, cat, tid, start - epoch_, end - epoch_,
             std::move(args)});
    }

    void
    write(const std::string &path) const
    {
        ChromeTracer tracer(path, 1);
        for (const Span &s : spans_) {
            tracer.completeEvent(s.name, s.cat, 1, s.tid, s.start, s.end,
                                 s.args);
        }
    }

  private:
    struct Span
    {
        const char *name;
        const char *cat;
        std::uint64_t tid;
        std::uint64_t start;
        std::uint64_t end;
        std::string args;
    };

    std::uint64_t epoch_;
    std::vector<Span> spans_;
};

/** How much of the layer stack an orchestrated pass replays. */
enum class Replay
{
    None,    //!< plain runs, nothing observed
    OrgOnly, //!< capture + org replay (the output check)
    All,     //!< capture + every layer replay (traced run)
};

/** Everything one orchestrated pass measured. */
struct Pass
{
    std::vector<sim::RunResult> results;
    /** Construction + warm-up + checkpoint + run, summed. */
    std::uint64_t workNs = 0;
    std::uint64_t runNs = 0;
    std::uint64_t warmNs = 0;
    std::uint64_t serializeNs = 0;
    std::uint64_t restoreNs = 0;
    std::uint64_t warmGroups = 0;
    std::uint64_t fallbackCells = 0;

    std::uint64_t accesses = 0; //!< org accesses observed in runs
    std::uint64_t events = 0;
    std::uint64_t heapEvents = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t mshrPeakLive = 0;
    std::uint64_t peakQueue = 0;
    std::uint64_t runAllocs = 0;
    double llscMissRate = 0.0;  //!< summed over cells
    double dataRowHit = 0.0;    //!< summed over cells
    double metaRowHit = 0.0;    //!< summed over cells
    LayerTotals layers;
    /** Cells whose DRAM replay served other off-chip traffic by the
     *  run's end than the run did. */
    std::vector<std::string> replayTrafficErrors;
};

/**
 * Run @p cells serially through System's public API, sharing one
 * functional warm-up per warm identity exactly as runSweep does, and
 * replay the layers of each cell per @p replay. Spans go to @p spans
 * when non-null.
 */
Pass
orchestrate(const std::vector<sim::RunSpec> &cells, Replay replay,
            Spans *spans)
{
    Pass pass;
    const bool capture = replay != Replay::None;

    // Warm groups: same key and leader rule as runSweep.
    std::map<std::string, std::size_t> group_of;
    std::vector<std::size_t> leaders;
    std::vector<std::size_t> cell_group(cells.size(), SIZE_MAX);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].warmInsts == 0)
            continue;
        std::string key =
            sim::warmIdentityBlob(cells[i].cfg, cells[i].programs, {});
        key += strfmt("|warm=%" PRIu64, cells[i].warmInsts);
        const auto [it, inserted] =
            group_of.emplace(std::move(key), leaders.size());
        if (inserted)
            leaders.push_back(i);
        cell_group[i] = it->second;
    }
    std::vector<std::string> blobs(leaders.size());
    std::vector<char> shared(leaders.size(), 0);
    for (std::size_t g = 0; g < leaders.size(); ++g) {
        const sim::RunSpec &spec = cells[leaders[g]];
        const std::uint64_t t0 = nowNs();
        sim::System sys(spec.cfg, spec.programs);
        const std::uint64_t t1 = nowNs();
        if (sys.supportsCheckpoint()) {
            sys.warmupFunctional(spec.warmInsts);
            const std::uint64_t t2 = nowNs();
            blobs[g] = sys.serializeWarmState();
            const std::uint64_t t3 = nowNs();
            shared[g] = 1;
            ++pass.warmGroups;
            pass.warmNs += t2 - t1;
            pass.serializeNs += t3 - t2;
            if (spans) {
                spans->add("sim.construct", "sim", 0, t0, t1);
                spans->add("ckpt.warmup", "ckpt", 0, t1, t2,
                           strfmt("{\"group\": %zu}", g));
                spans->add("ckpt.serialize", "ckpt", 0, t2, t3,
                           strfmt("{\"bytes\": %zu}", blobs[g].size()));
            }
        }
        pass.workNs += nowNs() - t0;
    }

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::RunSpec &spec = cells[i];
        const std::uint64_t tid = i + 1;
        const std::string *blob =
            cell_group[i] != SIZE_MAX && shared[cell_group[i]]
                ? &blobs[cell_group[i]]
                : nullptr;
        std::vector<OrgAccess> stream;
        std::vector<std::uint64_t> warm_records;
        std::vector<std::uint64_t> records;
        Tick run_end = 0;
        sim::RunStats stats;
        try {
            const std::uint64_t t0 = nowNs();
            sim::System sys(spec.cfg, spec.programs);
            const std::uint64_t t1 = nowNs();
            if (blob) {
                sys.restoreWarmState(*blob);
            } else if (spec.warmInsts) {
                sys.warmupFunctional(spec.warmInsts);
                ++pass.fallbackCells;
            }
            const std::uint64_t t2 = nowNs();
            if (capture) {
                EventQueue &eq = sys.eventQueue();
                sys.controller().setAccessObserver(
                    [&stream, &eq](Addr addr, bool is_write,
                                   bool is_prefetch,
                                   const dramcache::LookupResult &r) {
                        PauseScope quiet;
                        stream.push_back({eq.now(), addr, is_write,
                                          is_prefetch, lookupDigest(r)});
                    });
            }
            std::uint64_t allocs = 0;
            {
                CountScope count;
                stats = sys.run();
                allocs = count.count();
            }
            const std::uint64_t t3 = nowNs();
            run_end = stats.simTicks;
            const ProfileReport prof = sys.profile();
            for (unsigned c = 0; c < spec.cfg.cores; ++c) {
                warm_records.push_back(sys.core(c).warmRecords());
                records.push_back(sys.core(c).recordsFetched());
            }
            pass.workNs += t3 - t0;
            pass.runNs += t3 - t2;
            if (blob)
                pass.restoreNs += t2 - t1;
            else if (spec.warmInsts)
                pass.warmNs += t2 - t1;
            pass.events += prof.eventsExecuted;
            pass.heapEvents += prof.eventsHeap;
            pass.peakPending =
                std::max<std::uint64_t>(pass.peakPending,
                                        prof.peakPendingEvents);
            pass.mshrPeakLive =
                std::max<std::uint64_t>(pass.mshrPeakLive,
                                        prof.mshrPeakLive);
            pass.peakQueue = std::max<std::uint64_t>(
                pass.peakQueue, prof.peakChannelQueue);
            pass.runAllocs += allocs;
            pass.accesses += stream.size();
            pass.llscMissRate += stats.llscMissRate;
            pass.dataRowHit += stats.dataRowHitRate;
            pass.metaRowHit += stats.metaRowHitRate;
            pass.results.push_back(okResult(spec, i, stats));
            if (spans) {
                spans->add("sim.construct", "sim", tid, t0, t1);
                if (blob || spec.warmInsts) {
                    spans->add(blob ? "ckpt.restore"
                                    : "sweep.warm_fallback",
                               "ckpt", tid, t1, t2);
                }
                spans->add(
                    "sim.run", "run", tid, t2, t3,
                    strfmt("{\"cell\": \"%s\", \"events\": %" PRIu64
                           ", \"accesses\": %zu, \"allocs\": %" PRIu64
                           "}",
                           spec.label.c_str(), prof.eventsExecuted,
                           stream.size(), allocs));
            }
        } catch (const std::exception &e) {
            pass.results.push_back(
                sim::failedRunResult(spec, i, e.what()));
            continue;
        }
        if (!capture)
            continue;

        // Layer replays, one cell at a time so captures stay small.
        const LayerTotals before = pass.layers;
        const std::uint64_t r0 = nowNs();
        if (replay == Replay::All)
            replayTraceAndCache(spec.cfg, spec.programs, warm_records,
                                records, pass.layers);
        {
            // The org replay starts where the run's org started: cold,
            // or in the cell's warm state.
            stats::StatGroup sg("replay");
            std::unique_ptr<sim::System> twin;
            std::unique_ptr<dramcache::DramCacheOrg> cold;
            dramcache::DramCacheOrg *org = nullptr;
            if (spec.warmInsts) {
                twin = std::make_unique<sim::System>(spec.cfg,
                                                     spec.programs);
                if (blob)
                    twin->restoreWarmState(*blob);
                else
                    twin->warmupFunctional(spec.warmInsts);
                org = &twin->org();
            } else {
                cold = sim::buildOrg(spec.cfg, sg);
                org = cold.get();
            }
            replayOrgAndDram(spec.cfg, *org, stream,
                             replay == Replay::All
                                 ? std::optional<Tick>(run_end)
                                 : std::nullopt,
                             pass.layers);
        }
        if (replay == Replay::All) {
            const std::uint64_t rd =
                pass.layers.memBytesRead - before.memBytesRead;
            const std::uint64_t wr =
                pass.layers.memBytesWritten - before.memBytesWritten;
            auto differs = [](std::uint64_t replayed, std::uint64_t run) {
                return std::abs(static_cast<double>(replayed) -
                                static_cast<double>(run)) >
                       kReplayTrafficTolerance * static_cast<double>(run);
            };
            if (differs(rd, stats.memBytesRead) ||
                differs(wr, stats.memBytesWritten)) {
                pass.replayTrafficErrors.push_back(strfmt(
                    "%s: DRAM replay served %" PRIu64 "/%" PRIu64
                    " off-chip bytes read/written by the run's end, "
                    "the run %" PRIu64 "/%" PRIu64,
                    spec.label.c_str(), rd, wr, stats.memBytesRead,
                    stats.memBytesWritten));
            }
        }
        const std::uint64_t r1 = nowNs();
        if (spans && replay == Replay::All) {
            // Layer times are sums over replay chunks; their spans are
            // laid end to end from the start of the replay.
            const LayerTotals &now = pass.layers;
            std::uint64_t at = r0;
            auto layer = [&](const char *name, std::uint64_t ns,
                             std::string args) {
                spans->add(name, "layer", tid, at, at + ns,
                           std::move(args));
                at += ns;
            };
            layer("trace", now.traceNs - before.traceNs,
                  strfmt("{\"records\": %" PRIu64 "}",
                         now.records - before.records));
            layer("cache", now.cacheNs - before.cacheNs,
                  strfmt("{\"accesses\": %" PRIu64 "}",
                         now.cacheAccesses - before.cacheAccesses));
            layer("dramcache", now.orgNs - before.orgNs,
                  strfmt("{\"accesses\": %" PRIu64
                         ", \"allocs\": %" PRIu64
                         ", \"mismatches\": %" PRIu64 "}",
                         now.orgAccesses - before.orgAccesses,
                         now.orgAllocs - before.orgAllocs,
                         now.mismatches - before.mismatches));
            layer("dram", now.dramNs - before.dramNs,
                  strfmt("{\"stacked\": %" PRIu64 ", \"offchip\": %" PRIu64
                         ", \"events\": %" PRIu64 "}",
                         now.stackedRequests - before.stackedRequests,
                         now.offchipRequests - before.offchipRequests,
                         now.dramEvents - before.dramEvents));
            spans->add("replay", "layer", tid, r0, r1);
        }
    }
    return pass;
}

/** Count failed results and digest disagreements against @p ref. */
void
checkResults(const std::vector<sim::RunResult> &results,
             const std::vector<std::string> *ref, Tally &tally)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        ++tally.attempted;
        const sim::RunResult &r = results[i];
        if (!r.ok) {
            tally.fail(r.label + ": " + r.error);
        } else if (ref && i < ref->size() && digestOf(r) != (*ref)[i]) {
            tally.fail(r.label + ": results differ between executions");
        }
    }
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strfmt("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
emit(const Options &o, const std::vector<sim::RunResult> &cells,
     std::size_t reps, const Tally &tally,
     const std::vector<Metric> &metrics)
{
    std::string out = strfmt(
        "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
        "\"reps\": %zu, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"errors\": [",
        jsonString(o.workload).c_str(), o.seed, o.trace ? 1 : 0, reps,
        tally.attempted, tally.failed);
    for (std::size_t i = 0; i < tally.errors.size(); ++i)
        out += (i ? ", " : "") + jsonString(tally.errors[i]);
    out += "], \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::RunResult &c = cells[i];
        out += strfmt("%s{\"label\": %s, \"ok\": %s, \"digest\": \"%s\", "
                      "\"accesses\": %" PRIu64 ", \"hit_rate\": %.4f}",
                      i ? ", " : "", jsonString(c.label).c_str(),
                      c.ok ? "true" : "false",
                      c.ok ? digestOf(c).c_str() : "",
                      c.stats.dccAccesses, c.stats.cacheHitRate);
    }
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += strfmt("%s%s: {\"value\": %.17g, \"unit\": %s}",
                      i ? ", " : "", jsonString(metrics[i].name).c_str(),
                      metrics[i].value,
                      jsonString(metrics[i].unit).c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
runUntraced(const Options &o, const std::vector<sim::RunSpec> &cells)
{
    Tally tally;
    std::vector<double> wall, setup, rate, speed;
    std::vector<std::string> first;
    std::vector<sim::RunResult> shown;
    double rss = 0.0;
    double cal_before = 0.0;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(std::max(0.0, o.seconds) * 1e9);
    do {
        Rep rep = isCampaign(o) ? sweepRep(cells) : serialRep(cells);
        if (wall.empty()) {
            // Peak memory of the workload alone, before the calibration
            // kernel first touches its table.
            rss = peakRssMiB();
            calibrate();
            cal_before = calibrate();
        }
        const double cal_after = calibrate();
        // Host seconds to seconds at the reference host's speed.
        const double scale =
            kCalibrationRefS / (0.5 * (cal_before + cal_after));
        cal_before = cal_after;
        if (first.empty()) {
            for (const sim::RunResult &r : rep.results)
                first.push_back(r.ok ? digestOf(r) : "");
            shown = rep.results;
        }
        checkResults(rep.results, &first, tally);
        wall.push_back(rep.wallS * scale);
        setup.push_back(rep.setupS * scale);
        rate.push_back(
            ratio(static_cast<double>(rep.accesses), rep.timedS * scale));
        speed.push_back(scale);
    } while (nowNs() < deadline || wall.size() < kMinReps);

    // Untimed: replay every cell's org-level stream on a fresh
    // organization and count descriptor mismatches.
    const Pass pass = orchestrate(cells, Replay::OrgOnly, nullptr);
    checkResults(pass.results, &first, tally);
    if (pass.layers.mismatches) {
        tally.fail(strfmt("org replay disagreed with the run on %" PRIu64
                          " accesses",
                          pass.layers.mismatches));
    }

    emit(o, shown, wall.size(), tally,
         {{"accesses_per_s", median(rate), "accesses/s"},
          {"wall_s", median(wall), "s"},
          {"setup_s", median(setup), "s"},
          {"peak_rss_mib", rss, "MiB"},
          {"host_speed", median(speed), "ratio"}});
    return 0;
}

/** The per-layer metrics of one traced round. */
std::vector<Metric>
layerMetrics(bool campaign, std::size_t cells, double busy,
             const Pass &plain, const Pass &traced)
{
    const LayerTotals &l = traced.layers;
    const double n_cells = static_cast<double>(cells);
    const double acc = static_cast<double>(traced.accesses);
    const double events = static_cast<double>(traced.events);
    const double requests =
        static_cast<double>(l.stackedRequests + l.offchipRequests);
    const double attributed = static_cast<double>(l.traceNs + l.cacheNs +
                                                  l.orgNs + l.dramNs);
    auto num = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"run.events", events, "count"},
        {"run.events_per_access", ratio(events, acc), "ratio"},
        {"run.ns_per_event", ratio(num(traced.runNs), events), "ns"},
        {"run.allocs_per_access", ratio(num(traced.runAllocs), acc),
         "ratio"},
        {"kernel.heap_frac", ratio(num(traced.heapEvents), events), "ratio"},
        {"kernel.peak_pending", num(traced.peakPending), "count"},
        {"trace.records", num(l.records), "count"},
        {"trace.ns_per_record", ratio(num(l.traceNs), num(l.records)),
         "ns"},
        {"cache.ns_per_access", ratio(num(l.cacheNs), num(l.cacheAccesses)),
         "ns"},
        {"cache.llsc_miss_rate", traced.llscMissRate / n_cells, "ratio"},
        {"cache.mshr_peak_live", num(traced.mshrPeakLive), "count"},
        {"dramcache.accesses", num(l.orgAccesses), "count"},
        {"dramcache.hit_rate", ratio(num(l.orgHits), num(l.orgAccesses)),
         "ratio"},
        {"dramcache.sram_tag_hit_rate",
         ratio(num(l.orgSramTagHits), num(l.orgAccesses)), "ratio"},
        {"dramcache.ns_per_access", ratio(num(l.orgNs), num(l.orgAccesses)),
         "ns"},
        {"dramcache.allocs_per_access",
         ratio(num(l.orgAllocs), num(l.orgAccesses)), "ratio"},
        {"dram.stacked_requests", num(l.stackedRequests), "count"},
        {"dram.offchip_requests", num(l.offchipRequests), "count"},
        {"dram.ns_per_request", ratio(num(l.dramNs), requests), "ns"},
        {"dram.events_per_request", ratio(num(l.dramEvents), requests),
         "ratio"},
        {"dram.data_row_hit", traced.dataRowHit / n_cells, "ratio"},
        {"dram.meta_row_hit", traced.metaRowHit / n_cells, "ratio"},
        {"dram.peak_queue", num(traced.peakQueue), "count"},
        {"dram.replay_peak_queue", num(l.peakQueue), "count"},
        {"sim.unattributed_frac", 1.0 - ratio(attributed, num(traced.runNs)),
         "ratio"},
        {"sweep.cells", campaign ? n_cells : 0.0, "count"},
        {"sweep.warm_groups", num(traced.warmGroups), "count"},
        {"sweep.warm_fallback_cells", num(traced.fallbackCells), "count"},
        {"sweep.busy_frac", busy, "ratio"},
        {"sweep.warm_s", seconds(traced.warmNs), "s"},
        {"ckpt.serialize_s", seconds(traced.serializeNs), "s"},
        {"ckpt.restore_s", seconds(traced.restoreNs), "s"},
        {"tracing.overhead_s", seconds(traced.workNs) - seconds(plain.workNs),
         "s"},
    };
}

/** Whether @p m depends on host time; every other metric is a count
 *  or a ratio of counts and must repeat exactly between rounds. */
bool
isHostTime(const Metric &m)
{
    const std::string unit = m.unit;
    return unit == "ns" || unit == "s" || m.name == "sim.unattributed_frac" ||
           m.name == "sweep.busy_frac";
}

int
runTraced(const Options &o, const std::vector<sim::RunSpec> &cells,
          std::uint64_t epoch)
{
    Tally tally;
    Spans spans(epoch);
    const bool campaign = isCampaign(o);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(std::max(0.0, o.seconds) * 1e9);
    std::vector<std::string> ref;
    std::vector<sim::RunResult> shown;
    std::vector<std::vector<Metric>> rounds;
    // One round: the campaign's real sweep (for its busy fraction), a
    // plain serial pass and a traced one. Spans come from the first
    // round only; host-time metrics are medians over the rounds.
    do {
        Spans *round_spans = rounds.empty() ? &spans : nullptr;
        std::vector<sim::RunResult> sweep_results;
        double busy = 0.0;
        if (campaign) {
            const std::uint64_t s0 = nowNs();
            const Rep rep = sweepRep(cells);
            if (round_spans) {
                round_spans->add(
                    "sweep.run", "sweep", 0, s0,
                    s0 + static_cast<std::uint64_t>(rep.wallS * 1e9),
                    strfmt("{\"cells\": %zu, \"threads\": %u}",
                           cells.size(), kSweepThreads));
            }
            double cell_wall = 0.0;
            for (const sim::RunResult &r : rep.results)
                cell_wall += r.wallSeconds;
            busy = ratio(cell_wall, kSweepThreads * rep.wallS);
            sweep_results = rep.results;
        }
        const Pass plain = orchestrate(cells, Replay::None, nullptr);
        const Pass traced = orchestrate(cells, Replay::All, round_spans);

        // The first traced pass is the reference every later execution
        // (plain, swept, later rounds) must reproduce.
        if (rounds.empty()) {
            for (const sim::RunResult &r : traced.results)
                ref.push_back(r.ok ? digestOf(r) : "");
            shown = traced.results;
        }
        checkResults(traced.results, &ref, tally);
        checkResults(plain.results, &ref, tally);
        if (!sweep_results.empty())
            checkResults(sweep_results, &ref, tally);
        if (traced.layers.mismatches) {
            tally.fail(strfmt("org replay disagreed with the run on %" PRIu64
                              " accesses",
                              traced.layers.mismatches));
        }
        for (const std::string &e : traced.replayTrafficErrors)
            tally.fail(e);
        rounds.push_back(
            layerMetrics(campaign, cells.size(), busy, plain, traced));
    } while (nowNs() < deadline || rounds.size() < kMinReps);
    if (!o.traceOut.empty())
        spans.write(o.traceOut);

    std::vector<Metric> metrics = rounds.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
        std::vector<double> values;
        for (const std::vector<Metric> &round : rounds)
            values.push_back(round[m].value);
        if (isHostTime(metrics[m])) {
            metrics[m].value = median(values);
        } else if (std::count(values.begin(), values.end(), values[0]) !=
                   static_cast<std::ptrdiff_t>(values.size())) {
            tally.fail(metrics[m].name + " differs between rounds");
        }
    }
    emit(o, shown, rounds.size(), tally, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const std::uint64_t epoch = nowNs();
    const Options o = parseArgs(argc, argv);
    // bmc_fatal inside a cell becomes an exception the cell's result
    // records, instead of ending the benchmark.
    bmc::ScopedThrowErrors throw_errors;
    const std::vector<bmc::sim::RunSpec> cells = buildCells(o);
    return o.trace ? runTraced(o, cells, epoch) : runUntraced(o, cells);
}
