/**
 * @file
 * In-process half of the benchmark: runs one workload's fixed, seeded work
 * through the library's public entry points and prints one JSON object on
 * stdout with its timings, counts, correctness checks and golden values.
 * perfbench/run.py drives it; see perfbench/README.md for the metrics.
 *
 *   perfbench_work dse_paper72|map_g72|sa_walk157 --seed N --dir DIR
 *                  [--seconds S] [--trace FILE] [--smoke]
 *   perfbench_work store_probe --result FILE --dir DIR
 *   perfbench_work stamp        (only the build's SIMD level)
 *
 * With --trace, spans (name, start, end, parent, job) are kept in memory
 * and written to FILE when the run ends, and the per-layer probes run.
 */

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/service.hh"
#include "src/api/spec.hh"
#include "src/api/store.hh"
#include "src/arch/presets.hh"
#include "src/common/json.hh"
#include "src/common/simd.hh"
#include "src/cost/analytic_bound.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/dse.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/graph_partition.hh"
#include "src/mapping/sa.hh"
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** OS-accounted user+sys seconds of this process (all threads). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * SA seed of a workload seed: seed 0 keeps the library default, and every
 * seed fits the spec's 53-bit integer range.
 */
std::uint64_t
saSeedOf(std::uint64_t seed)
{
    return (mapping::SaOptions{}.seed ^ (seed * 0x9E3779B97F4A7C15ull)) &
           ((1ull << 53) - 1);
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** In-memory span recorder; inert unless tracing was requested. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    int
    open(const std::string &name, int parent = -1, int job = 0)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, now(), -1.0, parent, job});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end = now();
    }

    double
    duration(int id) const
    {
        if (id < 0)
            return 0.0;
        const Span &s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n " : "") << "{\"name\": \"" << s.name
                << "\", \"start\": " << exact(s.start)
                << ", \"end\": " << exact(s.end)
                << ", \"parent\": " << s.parent << ", \"job\": " << s.job
                << "}";
        }
        out << "]\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
        int job;
    };

    double now() const { return secondsBetween(t0_, Clock::now()); }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

/** Everything one workload run reports back to run.py. */
struct Report
{
    std::map<std::string, double> metrics;
    std::map<std::string, std::size_t> samples; ///< sample counts
    std::map<std::string, std::string> golden;
    std::vector<std::string> failures;
    int attempted = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }

    void
    print(const Tracer &tracer, const std::string &trace_path) const
    {
        using common::json::Value;
        Value v = Value::object();
        Value m = Value::object();
        for (const auto &[k, x] : metrics)
            m.set(k, x);
        v.set("metrics", std::move(m));
        Value n = Value::object();
        for (const auto &[k, x] : samples)
            n.set(k, static_cast<double>(x));
        v.set("samples", std::move(n));
        Value g = Value::object();
        for (const auto &[k, x] : golden)
            g.set(k, x);
        v.set("golden", std::move(g));
        Value f = Value::array();
        for (const std::string &s : failures)
            f.push(s);
        v.set("failures", std::move(f));
        v.set("attempted", attempted);
        v.set("simd_level",
              std::string(common::simdLevelName(common::activeSimdLevel())));
        if (tracer.on() && !tracer.write(trace_path))
            std::fprintf(stderr, "cannot write trace %s\n",
                         trace_path.c_str());
        std::printf("%s\n", v.dump().c_str());
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    std::string tracePath;
    bool smoke = false;
    double seconds = 10.0;
    std::string resultPath;
    std::string storeDir;
};

/**
 * Repeat `once` `reps` times and return the median duration; `once`
 * leaves its last product in place for the caller.
 */
double
medianSeconds(int reps, const std::function<void()> &once)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        once();
        times.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(times);
}

/** Median seconds to build a workload's zoo models. */
double
modelBuildSeconds(const std::vector<std::string> &names, int reps)
{
    return medianSeconds(reps, [&] {
        for (const std::string &n : names)
            (void)dnn::zoo::byName(n);
    });
}

/**
 * Parse the workload's spec and resolve it (validation + model build);
 * the specs are the benchmark's own, so a failure ends the run.
 */
void
resolveSpec(const std::string &text, api::ExperimentSpec &spec,
            api::ResolvedExperiment &resolved)
{
    std::string error;
    std::optional<api::ExperimentSpec> parsed =
        api::ExperimentSpec::fromJsonText(text, &error);
    std::optional<api::ResolvedExperiment> r;
    if (parsed)
        r = api::resolveExperiment(*parsed, &error);
    if (!r) {
        std::fprintf(stderr, "bad workload spec: %s\n", error.c_str());
        std::exit(2);
    }
    spec = std::move(*parsed);
    resolved = std::move(*r);
}

// ---------------------------------------------------------------------------
// Decomposed mapping run: the engine's run()/runFrom() spelled out through
// the public partitioner, analyzer and SA engine, so a traced run can time
// each step and read the analyzer's counters. The walk is the engine's
// walk (same options, same seed), so its final cost must match.

struct ReplayStats
{
    double partitionSeconds = 0.0;
    int partitionCalls = 0;
    double saSeconds = 0.0;
    mapping::SaStats sa;
    double evalColdUs = 0.0; ///< summed over the final groups
    double evalWarmUs = 0.0;
    std::size_t groups = 0;
    std::uint64_t tileHits = 0, tileMisses = 0;
    std::uint64_t flowHits = 0, flowMisses = 0;
    std::uint64_t evalHits = 0, evalMisses = 0;
    std::uint64_t deltaApplies = 0;
    std::uint64_t allocEvents = 0;
    std::size_t groupLayersMax = 0;
    mapping::LpMapping mapping;

    void
    add(const ReplayStats &o)
    {
        partitionSeconds += o.partitionSeconds;
        partitionCalls += o.partitionCalls;
        saSeconds += o.saSeconds;
        sa.proposed += o.sa.proposed;
        sa.inapplicable += o.sa.inapplicable;
        sa.accepted += o.sa.accepted;
        sa.itersRun += o.sa.itersRun;
        evalColdUs += o.evalColdUs;
        evalWarmUs += o.evalWarmUs;
        groups += o.groups;
        tileHits += o.tileHits;
        tileMisses += o.tileMisses;
        flowHits += o.flowHits;
        flowMisses += o.flowMisses;
        evalHits += o.evalHits;
        evalMisses += o.evalMisses;
        deltaApplies += o.deltaApplies;
        allocEvents += o.allocEvents;
        groupLayersMax = std::max(groupLayersMax, o.groupLayersMax);
    }
};

/**
 * `start` null = partition first (MappingEngine::run), otherwise walk
 * from it (MappingEngine::runFrom). Spans nest under `parent`.
 */
ReplayStats
replayMapping(const dnn::Graph &graph, const arch::ArchConfig &arch,
              const mapping::MappingOptions &mo,
              const mapping::LpMapping *start, Tracer &tracer, int parent)
{
    ReplayStats out;
    noc::InterconnectModel noc(arch);
    intracore::Explorer explorer(arch.macsPerCore, arch.glbBytes(),
                                 arch.freqGHz, mo.tech);
    cost::CostStack costs(arch, mo.tech);
    mapping::Analyzer analyzer(graph, arch, noc, explorer);
    analyzer.setCacheCapacity(mo.analyzerCacheEntries);
    analyzer.setDeltaEval(mo.deltaEval);
    mapping::SaEngine sa(graph, arch, analyzer, costs);

    if (start) {
        out.mapping = *start;
    } else {
        mapping::PartitionOptions popt;
        popt.batch = mo.batch;
        popt.maxGroupLayers = mo.maxGroupLayers;
        popt.batchUnits = mo.batchUnits;
        popt.beta = mo.beta;
        popt.gamma = mo.gamma;
        const int span = tracer.open("mapping.partition", parent);
        const auto t0 = Clock::now();
        out.mapping = mapping::partitionGraph(graph, arch, analyzer, costs,
                                              popt);
        out.partitionSeconds = secondsBetween(t0, Clock::now());
        out.partitionCalls = 1;
        tracer.close(span);
    }

    mapping::SaOptions so = mo.sa;
    so.beta = mo.beta;
    so.gamma = mo.gamma;
    const int span = tracer.open("mapping.sa", parent);
    const auto t0 = Clock::now();
    sa.optimize(out.mapping, so, &out.sa);
    out.saSeconds = secondsBetween(t0, Clock::now());
    tracer.close(span);

    out.tileHits = analyzer.tileCacheHits();
    out.tileMisses = analyzer.tileCacheMisses();
    out.flowHits = analyzer.flowCacheHits();
    out.flowMisses = analyzer.flowCacheMisses();
    out.evalHits = analyzer.evalCacheHits();
    out.evalMisses = analyzer.evalCacheMisses();
    out.deltaApplies = analyzer.deltaApplies();
    out.allocEvents = analyzer.totalAllocEvents();

    // One evaluateGroup per final group: cold on a fresh analyzer, then
    // warm on the same analyzer.
    intracore::Explorer fresh_explorer(arch.macsPerCore, arch.glbBytes(),
                                       arch.freqGHz, mo.tech);
    mapping::Analyzer fresh(graph, arch, noc, fresh_explorer);
    fresh.setCacheCapacity(mo.analyzerCacheEntries);
    fresh.setDeltaEval(mo.deltaEval);
    const mapping::LpMapping &m = out.mapping;
    auto lookup = [&m](LayerId layer) { return m.ofmapDramOf(layer); };
    for (int pass = 0; pass < 2; ++pass) {
        const int espan = tracer.open(
            pass ? "mapping.eval_group_warm" : "mapping.eval_group_cold",
            parent);
        const auto e0 = Clock::now();
        for (const auto &group : m.groups)
            (void)fresh.evaluateGroup(group, m.batch, lookup, costs);
        (pass ? out.evalWarmUs : out.evalColdUs) +=
            1e6 * secondsBetween(e0, Clock::now());
        tracer.close(espan);
    }
    out.groups = m.groups.size();
    for (const auto &group : m.groups)
        out.groupLayersMax = std::max(out.groupLayersMax,
                                      group.layers.size());
    return out;
}

void
reportReplay(Report &r, const ReplayStats &s)
{
    auto frac = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    r.metrics["mapping.sa_s"] = s.saSeconds;
    r.metrics["mapping.sa_iters"] = static_cast<double>(s.sa.itersRun);
    r.metrics["mapping.sa_accept_frac"] =
        frac(s.sa.accepted, s.sa.proposed);
    r.metrics["mapping.sa_inapplicable_frac"] =
        frac(s.sa.inapplicable, s.sa.proposed);
    const double groups = static_cast<double>(s.groups);
    r.metrics["mapping.eval_group_cold_us"] = frac(s.evalColdUs, groups);
    r.metrics["mapping.eval_group_warm_us"] = frac(s.evalWarmUs, groups);
    r.metrics["mapping.tile_hit_frac"] = frac(
        static_cast<double>(s.tileHits),
        static_cast<double>(s.tileHits + s.tileMisses));
    r.metrics["mapping.flow_hit_frac"] = frac(
        static_cast<double>(s.flowHits),
        static_cast<double>(s.flowHits + s.flowMisses));
    r.metrics["mapping.eval_hit_frac"] = frac(
        static_cast<double>(s.evalHits),
        static_cast<double>(s.evalHits + s.evalMisses));
    r.metrics["mapping.delta_apply_frac"] =
        frac(static_cast<double>(s.deltaApplies), s.sa.proposed);
    r.metrics["mapping.group_layers_max"] =
        static_cast<double>(s.groupLayersMax);
    r.metrics["mapping.alloc_events"] = static_cast<double>(s.allocEvents);
}

void
checkFinalCost(Report &r, const std::string &name, double replayed,
               double engine_cost)
{
    r.check(replayed == engine_cost,
            name + ": decomposed walk cost " + exact(replayed) +
                " != engine cost " + exact(engine_cost));
}

// ---------------------------------------------------------------------------
// Repetitions and samples. A run repeats its workload's computed job until
// --seconds have passed (once in smoke mode). Meanwhile a sampler thread
// takes one set-up sample every kSamplePeriod and, once the first job has
// finished, one cached repeat of it. The host's speed drifts over seconds,
// so short timings taken in one burst would sample a single moment; spread
// over the run they see the same mix of moments as the long job.

constexpr std::chrono::milliseconds kSamplePeriod{100};
constexpr std::size_t kMinHits = 20;

/** Background sampler of set-up and cached-repeat latencies. */
class Sampler
{
  public:
    /** One cached repeat; returns whether it reproduced the job. */
    using Hit = std::function<bool()>;

    explicit Sampler(std::function<void()> setup)
        : setup_(std::move(setup)), thread_([this] { loop(); })
    {
    }

    ~Sampler() { stop(); }

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    void
    enableHits(Hit hit)
    {
        std::lock_guard lock(mu_);
        hit_ = std::make_shared<Hit>(std::move(hit));
    }

    /** Block until at least `n` repeats were sampled (hits enabled). */
    void
    waitForHits(std::size_t n)
    {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return hitSeconds_.size() >= n || !hit_; });
    }

    /** OS-accounted CPU seconds of the sampler thread so far. */
    double
    cpuSeconds()
    {
        clockid_t id{};
        timespec ts{};
        if (pthread_getcpuclockid(thread_.native_handle(), &id) != 0 ||
            clock_gettime(id, &ts) != 0)
            return 0.0;
        return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    }

    void
    stop()
    {
        {
            std::lock_guard lock(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    // Valid after stop().
    const std::vector<double> &setupSeconds() const { return setupSeconds_; }
    const std::vector<double> &hitSeconds() const { return hitSeconds_; }
    int hitMismatches() const { return hitMismatches_; }

  private:
    void
    loop()
    {
        std::unique_lock lock(mu_);
        while (!stopping_) {
            const std::shared_ptr<Hit> hit = hit_;
            lock.unlock();
            auto t0 = Clock::now();
            setup_();
            const double setup = secondsBetween(t0, Clock::now());
            double hit_s = 0.0;
            bool ok = true;
            if (hit) {
                t0 = Clock::now();
                ok = (*hit)();
                hit_s = secondsBetween(t0, Clock::now());
            }
            lock.lock();
            setupSeconds_.push_back(setup);
            if (hit) {
                hitSeconds_.push_back(hit_s);
                hitMismatches_ += ok ? 0 : 1;
                cv_.notify_all();
            }
            cv_.wait_for(lock, kSamplePeriod, [&] { return stopping_; });
        }
    }

    std::function<void()> setup_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::shared_ptr<Hit> hit_;
    std::vector<double> setupSeconds_;
    std::vector<double> hitSeconds_;
    int hitMismatches_ = 0;
    std::thread thread_; ///< last: starts once the members above exist
};

/** What one computed job reports to the repetition loop. */
struct JobOutcome
{
    double saIters = 0.0;
    std::string fingerprint; ///< exact outcome; identical across reps

    /** Set by the first job: builds the sampler's cached repeats. */
    std::function<Sampler::Hit()> hits;
};

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Run `job(index)` repeatedly for the run's seconds, check every
 * repetition reproduces the first bit for bit, stop the sampler and
 * report the end-to-end metrics.
 */
void
repeatFor(const Args &a, Report &r, Sampler &sampler,
          const std::function<JobOutcome(int)> &job)
{
    std::vector<double> fresh, rate;
    std::string first;
    const double cpu0 = processCpuSeconds();
    const double sampler_cpu0 = sampler.cpuSeconds();
    const auto t0 = Clock::now();
    do {
        const int index = static_cast<int>(fresh.size());
        const auto j0 = Clock::now();
        const JobOutcome out = job(index);
        fresh.push_back(secondsBetween(j0, Clock::now()));
        rate.push_back(out.saIters / fresh.back());
        if (out.hits)
            sampler.enableHits(out.hits());
        if (index == 0)
            first = out.fingerprint;
        r.check(out.fingerprint == first,
                "repetition " + std::to_string(index) +
                    " is not bit-identical to the first: " +
                    out.fingerprint + " vs " + first);
    } while (!a.smoke && secondsBetween(t0, Clock::now()) < a.seconds);
    const double loop = secondsBetween(t0, Clock::now());
    const double cpu = (processCpuSeconds() - cpu0) -
                       (sampler.cpuSeconds() - sampler_cpu0);
    sampler.waitForHits(kMinHits);
    sampler.stop();

    const double n = static_cast<double>(fresh.size());
    r.check(sampler.hitSeconds().size() >= kMinHits,
            "too few cached repeats were sampled");
    r.check(sampler.hitMismatches() == 0,
            std::to_string(sampler.hitMismatches()) +
                " cached repeats differ from the computed job");
    r.metrics["wall_s"] = loop / n;
    r.metrics["cpu_s"] = cpu / n;
    r.metrics["fresh_p50_s"] = median(fresh);
    r.metrics["fresh_p90_s"] = quantile(fresh, 0.9);
    r.metrics["sa_iters_per_s"] = median(rate);
    r.metrics["setup_s"] = median(sampler.setupSeconds());
    r.metrics["hit_p50_s"] = median(sampler.hitSeconds());
    r.samples["reps"] = fresh.size();
    r.samples["setups"] = sampler.setupSeconds().size();
    r.samples["hits"] = sampler.hitSeconds().size();
}

/**
 * A service with a result store of its own (what `gemini run --store`
 * opens), in a fresh directory under --dir that is removed with it.
 */
struct StoredService
{
    StoredService(const Args &a, const std::string &name, int threads)
        : dir(a.storeDir + "/" + name),
          service(threads, std::make_shared<api::ResultStore>(dir))
    {
    }

    ~StoredService()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    StoredService(const StoredService &) = delete;
    StoredService &operator=(const StoredService &) = delete;

    std::string dir;
    api::ExplorationService service;
};

/**
 * Cached repeats of `result` for the sampler: a stored service of its own
 * holds the result on disk, and each repeat drops the service's memory
 * cache first, so it is answered from the ResultStore as a second
 * `gemini run --store` would be.
 */
template <typename Fingerprint>
Sampler::Hit
storeHits(const Args &a, const api::ExperimentSpec &spec,
          const std::shared_ptr<const api::ExperimentResult> &result,
          Fingerprint fingerprint)
{
    auto stored = std::make_shared<StoredService>(a, "hits", spec.threads);
    std::string error;
    if (!stored->service.store()->put(*result, &error))
        std::fprintf(stderr, "cannot store the result: %s\n", error.c_str());
    const std::string want = fingerprint(*result);
    return [stored, spec, want, fingerprint] {
        stored->service.clearCache();
        api::JobHandle job = stored->service.submit(spec);
        job.wait();
        const std::shared_ptr<const api::ExperimentResult> hit = job.result();
        return hit && hit->fromCache && fingerprint(*hit) == want;
    };
}

// ---------------------------------------------------------------------------
// dse_paper72: the paper's 72-TOPS Table-I space on `transformer`, one
// scheduled DSE job through an in-process ExplorationService with a store
// (what `gemini run --store` does), which calls dse::runDse.

std::string
dseSpecText(std::uint64_t seed, bool smoke)
{
    std::ostringstream s;
    s << R"({"schema_version": 1, "name": "perfbench-dse-paper72",
      "mode": "dse", "models": [{"zoo": "transformer"}],
      "axes": {"tops_target": 72, "x_cuts": [1, 2, 3, 6],
               "y_cuts": [1, 2, 3, 6]},
      "schedule": {"enabled": true, "rungs": 3, "keep_fraction": 0.4,
                   "base_iters": 128, "min_keep": 3},
      "max_candidates": )"
      << (smoke ? 12 : 96) << R"(, "threads": 2,
      "mapping": {"max_group_layers": 6, "analytic_seed": true,
                  "sa": {"iterations": )"
      << (smoke ? 256 : 2048) << R"(, "plateau_window": )"
      << (smoke ? 192 : 1536) << R"(, "seed": )" << saSeedOf(seed)
      << "}}}";
    return s.str();
}

std::string
dseFingerprint(const api::ExperimentResult &result)
{
    const dse::DseResult &res = result.dse;
    if (res.bestIndex < 0)
        return "no winner";
    long iters = 0;
    for (const dse::DseRecord &rec : res.records)
        iters += rec.saIters;
    return res.best().arch.toString() + " " + exact(res.best().objective) +
           " iters " + std::to_string(iters);
}

void
checkDse(Report &r, const dse::DseResult &res)
{
    for (const dse::DseRecord &rec : res.records)
        if (rec.feasible && !rec.prunedByBound && !rec.poisoned)
            r.check(rec.objectiveLowerBound <= rec.objective,
                    "screen bound " + exact(rec.objectiveLowerBound) +
                        " above achieved objective " +
                        exact(rec.objective) + " on " +
                        rec.arch.toString());
    r.check(res.bestIndex >= 0, "dse found no feasible winner");
    r.check(!res.stats.cancelled && !res.stats.truncated,
            "dse run did not complete");
}

void
runDsePaper72(const Args &a, Report &r, Tracer &tracer)
{
    const std::string text = dseSpecText(a.seed, a.smoke);
    api::ExperimentSpec spec;
    api::ResolvedExperiment resolved;
    resolveSpec(text, spec, resolved);
    Sampler sampler([&text] {
        api::ExperimentSpec s;
        api::ResolvedExperiment r;
        resolveSpec(text, s, r);
    });

    // Rung spans from the progress stream (RungEntered -> RungFinished).
    std::map<std::string, int> rung_span;
    std::map<std::string, double> rung_seconds;
    int job_span = -1, job_index = 0;
    const api::ProgressFn progress = [&](const dse::DseProgressEvent &e) {
        if (e.kind == dse::DseProgressEvent::Kind::RungEntered) {
            rung_span[e.rung] =
                tracer.open("dse." + e.rung, job_span, job_index);
        } else {
            const int id = rung_span[e.rung];
            tracer.close(id);
            rung_seconds[e.rung] += tracer.duration(id);
        }
    };

    std::shared_ptr<const api::ExperimentResult> first;
    repeatFor(a, r, sampler, [&](int index) {
        StoredService stored(a, "rep" + std::to_string(index), spec.threads);
        job_index = index;
        job_span = tracer.open("dse.job", -1, index);
        api::JobHandle job = stored.service.submit(
            spec, tracer.on() ? progress : api::ProgressFn{});
        job.wait();
        const std::shared_ptr<const api::ExperimentResult> res =
            job.result();
        tracer.close(job_span);
        JobOutcome out;
        r.check(res && !res->failed(), "dse job failed");
        if (!res || res->failed())
            return out;
        checkDse(r, res->dse);
        for (const dse::DseRecord &rec : res->dse.records)
            out.saIters += rec.saIters;
        out.fingerprint = dseFingerprint(*res);
        if (!first) {
            first = res;
            out.hits = [&a, &spec, res] {
                return storeHits(a, spec, res, dseFingerprint);
            };
        }
        return out;
    });
    if (!first || first->dse.bestIndex < 0)
        return;
    const dse::DseResult &res = first->dse;
    r.golden["dse_paper72.winner_arch"] = res.best().arch.toString();
    r.golden["dse_paper72.winner_objective"] = exact(res.best().objective);

    if (!tracer.on())
        return;
    const double reps = static_cast<double>(r.samples["reps"]);
    double race = 0.0;
    for (const auto &[name, secs] : rung_seconds)
        if (name.rfind("race", 0) == 0)
            race += secs;
    r.metrics["dse.screen_s"] = rung_seconds["screen"] / reps;
    r.metrics["dse.race_s"] = race / reps;
    r.metrics["dse.polish_s"] = rung_seconds["polish"] / reps;
    int wasted = 0;
    for (const dse::DseRecord &rec : res.records)
        if (rec.prunedByBound && std::isfinite(rec.objective) &&
            rec.objective > 0.0)
            ++wasted;
    r.metrics["dse.screen_wasted_frac"] =
        static_cast<double>(wasted) / static_cast<double>(res.records.size());
    r.metrics["dse.pool_busy_frac"] =
        r.metrics["cpu_s"] /
        (r.metrics["wall_s"] * static_cast<double>(spec.threads));
    r.metrics["dse.ledger_cpu_s"] = res.stats.cpuSeconds();
    r.metrics["dnn.build_s"] = modelBuildSeconds({"transformer"}, 5);

    // Per-candidate replay of the screen's two analytical steps.
    std::vector<const dnn::Graph *> models;
    for (const dnn::Graph &g : resolved.models)
        models.push_back(&g);
    const mapping::MappingOptions &mo = spec.mapping;
    const int replay = tracer.open("dse.replay");
    double part_s = 0.0, bound_s = 0.0;
    int part_calls = 0, bound_calls = 0;
    for (const dse::DseRecord &rec : res.records) {
        const arch::ArchConfig &arch = rec.arch;
        const int bspan = tracer.open("cost.bound", replay);
        const auto b0 = Clock::now();
        (void)cost::analyticLowerBound(arch, mo.tech, models, mo.batch,
                                       mo.maxGroupLayers);
        bound_s += secondsBetween(b0, Clock::now());
        ++bound_calls;
        tracer.close(bspan);
        for (const dnn::Graph *g : models) {
            noc::InterconnectModel noc(arch);
            intracore::Explorer explorer(arch.macsPerCore, arch.glbBytes(),
                                         arch.freqGHz, mo.tech);
            cost::CostStack costs(arch, mo.tech);
            mapping::Analyzer analyzer(*g, arch, noc, explorer);
            analyzer.setCacheCapacity(mo.analyzerCacheEntries);
            mapping::PartitionOptions popt;
            popt.batch = mo.batch;
            popt.maxGroupLayers = mo.maxGroupLayers;
            popt.beta = spec.beta;
            popt.gamma = spec.gamma;
            const int pspan = tracer.open("mapping.partition", replay);
            const auto p0 = Clock::now();
            (void)mapping::partitionGraph(*g, arch, analyzer, costs, popt);
            part_s += secondsBetween(p0, Clock::now());
            ++part_calls;
            tracer.close(pspan);
        }
    }
    tracer.close(replay);
    r.metrics["mapping.partition_s"] = part_s;
    r.metrics["mapping.partition_calls"] = part_calls;
    r.metrics["cost.bound_s"] = bound_s;
    r.metrics["cost.bound_calls"] = bound_calls;
}

// ---------------------------------------------------------------------------
// map_g72: map mode, transformer + resnet50 on g_arch_72, one job through
// a stored in-process ExplorationService (one MappingEngine::run per
// model).

std::string
mapSpecText(std::uint64_t seed, bool smoke)
{
    std::ostringstream s;
    s << R"({"schema_version": 1, "name": "perfbench-map-g72",
      "mode": "map", "models": [{"zoo": "transformer"}, {"zoo": "resnet50"}],
      "arch": {"preset": "g_arch_72"}, "threads": 1,
      "mapping": {"sa_threads": 1, "sa": {"iterations": )"
      << (smoke ? 2000 : 80000) << R"(, "seed": )" << saSeedOf(seed)
      << "}}}";
    return s.str();
}

std::string
mapFingerprint(const api::ExperimentResult &res)
{
    std::string out;
    for (const mapping::MappingResult &mr : res.mappings)
        out += exact(mr.saStats.finalCost) + " ";
    return out;
}

void
runMapG72(const Args &a, Report &r, Tracer &tracer)
{
    const std::string text = mapSpecText(a.seed, a.smoke);
    api::ExperimentSpec spec;
    api::ResolvedExperiment resolved;
    resolveSpec(text, spec, resolved);
    const arch::ArchConfig &arch = *resolved.archConfig;
    Sampler sampler([&text] {
        api::ExperimentSpec s;
        api::ResolvedExperiment r;
        resolveSpec(text, s, r);
    });

    std::shared_ptr<const api::ExperimentResult> first;
    repeatFor(a, r, sampler, [&](int index) {
        StoredService stored(a, "rep" + std::to_string(index), spec.threads);
        const int span = tracer.open("map.job", -1, index);
        api::JobHandle job = stored.service.submit(spec);
        job.wait();
        const std::shared_ptr<const api::ExperimentResult> res =
            job.result();
        tracer.close(span);
        JobOutcome out;
        r.check(res && !res->failed() &&
                    res->mappings.size() == resolved.models.size(),
                "map job failed");
        if (!res || res->failed() ||
            res->mappings.size() != resolved.models.size())
            return out;
        for (std::size_t i = 0; i < res->mappings.size(); ++i) {
            const dnn::Graph &g = resolved.models[i];
            const std::string err =
                mapping::checkMappingValid(g, arch, res->mappings[i].mapping);
            r.check(err.empty(), g.name() + ": invalid mapping: " + err);
            out.saIters +=
                static_cast<double>(res->mappings[i].saStats.itersRun);
        }
        out.fingerprint = mapFingerprint(*res);
        if (!first) {
            first = res;
            out.hits = [&a, &spec, res] {
                return storeHits(a, spec, res, mapFingerprint);
            };
        }
        return out;
    });
    if (!first)
        return;
    for (std::size_t i = 0; i < first->mappings.size(); ++i)
        r.golden["map_g72." + resolved.models[i].name() + ".final_cost"] =
            exact(first->mappings[i].saStats.finalCost);

    if (!tracer.on())
        return;
    r.metrics["dnn.build_s"] =
        modelBuildSeconds({"transformer", "resnet50"}, 5);
    ReplayStats total;
    for (std::size_t i = 0; i < resolved.models.size(); ++i) {
        const dnn::Graph &g = resolved.models[i];
        const int span = tracer.open("map." + g.name());
        const ReplayStats s =
            replayMapping(g, arch, spec.mapping, nullptr, tracer, span);
        tracer.close(span);
        checkFinalCost(r, g.name(), s.sa.finalCost,
                       first->mappings[i].saStats.finalCost);
        total.add(s);
    }
    reportReplay(r, total);
    r.metrics["mapping.partition_s"] = total.partitionSeconds;
    r.metrics["mapping.partition_calls"] = total.partitionCalls;
}

// ---------------------------------------------------------------------------
// sa_walk157: gpt2Medium(256) on the 256-core mesh, two 157-layer stripe
// groups, walked through MappingEngine::runFrom. A cached repeat
// re-evaluates the walk's final mapping on a warm engine (answered from
// its analyzer's memo).

struct Walk157
{
    dnn::Graph graph;
    arch::ArchConfig arch;
    mapping::LpMapping init;
};

Walk157
buildWalk157()
{
    constexpr std::size_t kLayersPerGroup = 157;
    Walk157 w{dnn::zoo::gpt2Medium(256), arch::largeGridArch(), {}};
    w.init.batch = 8;
    const std::size_t n = w.graph.size();
    for (std::size_t first = 0; first < n; first += kLayersPerGroup) {
        std::vector<LayerId> layers;
        for (std::size_t i = first; i < std::min(n, first + kLayersPerGroup);
             ++i)
            layers.push_back(static_cast<LayerId>(i));
        w.init.groups.push_back(
            mapping::stripeMapping(w.graph, w.arch, layers, 1));
    }
    return w;
}

std::string
evalFingerprint(const mapping::MappingResult &mr)
{
    return exact(mr.total.delay) + " " + exact(mr.total.totalEnergy());
}

void
runSaWalk157(const Args &a, Report &r, Tracer &tracer)
{
    mapping::MappingOptions mo;
    mo.batch = 8;
    mo.saThreads = 1;
    mo.sa.iterations = a.smoke ? 4000 : 175000;
    mo.sa.seed = saSeedOf(a.seed);

    const Walk157 w = buildWalk157();
    r.check(mapping::checkMappingValid(w.graph, w.arch, w.init).empty(),
            "initial 157-layer stripe mapping is invalid");
    Sampler sampler([&mo] {
        const Walk157 s = buildWalk157();
        mapping::MappingEngine engine(s.graph, s.arch, mo);
    });

    double final_cost = 0.0;
    repeatFor(a, r, sampler, [&](int index) {
        mapping::MappingEngine engine(w.graph, w.arch, mo);
        const int span = tracer.open("walk157.job", -1, index);
        const mapping::MappingResult res = engine.runFrom(w.init);
        tracer.close(span);
        const std::string err =
            mapping::checkMappingValid(w.graph, w.arch, res.mapping);
        r.check(err.empty(), "sa_walk157: invalid mapping: " + err);
        JobOutcome out;
        out.saIters = static_cast<double>(res.saStats.itersRun);
        out.fingerprint = evalFingerprint(res);
        if (index == 0) {
            final_cost = res.saStats.finalCost;
            out.hits = [&w, &mo, m = res.mapping, want = out.fingerprint] {
                auto warm = std::make_shared<mapping::MappingEngine>(
                    w.graph, w.arch, mo);
                return Sampler::Hit([warm, m, want] {
                    return evalFingerprint(warm->evaluateMapping(m)) == want;
                });
            };
        }
        return out;
    });
    r.golden["sa_walk157.final_cost"] = exact(final_cost);

    if (!tracer.on())
        return;
    r.metrics["dnn.build_s"] = medianSeconds(5, [] {
        (void)dnn::zoo::gpt2Medium(256);
    });
    const int span = tracer.open("walk157.replay");
    const ReplayStats s =
        replayMapping(w.graph, w.arch, mo, &w.init, tracer, span);
    tracer.close(span);
    checkFinalCost(r, "sa_walk157", s.sa.finalCost, final_cost);
    reportReplay(r, s);
    r.metrics["mapping.partition_s"] = 0.0;
    r.metrics["mapping.partition_calls"] = 0.0;
}

// ---------------------------------------------------------------------------
// store_probe: timed ResultStore put/get of one daemon result.

constexpr int kStoreProbeReps = 20;

void
runStoreProbe(const Args &a, Report &r, Tracer &)
{
    std::ifstream in(a.resultPath);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<common::json::Value> v =
        common::json::parse(text.str(), &error);
    std::optional<api::ExperimentResult> result;
    if (v)
        result = api::ExperimentResult::fromJson(*v, &error);
    r.check(result.has_value(), "unreadable daemon result: " + error);
    if (!result)
        return;

    api::ResultStore store(a.storeDir);
    const std::string canonical = result->spec.canonicalText();
    const std::uint64_t hash = result->spec.canonicalHash();
    bool put_ok = true, get_ok = true;
    r.metrics["store.put_s"] = medianSeconds(kStoreProbeReps, [&] {
        put_ok = store.put(*result, &error) && put_ok;
    });
    r.metrics["store.get_s"] = medianSeconds(kStoreProbeReps, [&] {
        get_ok = store.get(hash, canonical) != nullptr && get_ok;
    });
    r.check(put_ok, "store put failed: " + error);
    r.check(get_ok, "store get missed a stored result");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (!(v = next()))
            return false;
        if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--trace")
            a.tracePath = v;
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--result")
            a.resultPath = v;
        else if (k == "--dir")
            a.storeDir = v;
        else
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s dse_paper72|map_g72|sa_walk157|store_probe|stamp "
                     "[--seed N] [--dir DIR] [--seconds S] [--trace FILE] "
                     "[--smoke] [--result FILE]\n",
                     argv[0]);
        return 2;
    }
    const std::map<std::string,
                   std::function<void(const Args &, Report &, Tracer &)>>
        workloads = {{"dse_paper72", runDsePaper72},
                     {"map_g72", runMapG72},
                     {"sa_walk157", runSaWalk157},
                     {"store_probe", runStoreProbe},
                     {"stamp", [](const Args &, Report &, Tracer &) {}}};
    const auto it = workloads.find(a.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
        return 2;
    }
    Tracer tracer(!a.tracePath.empty());
    Report report;
    it->second(a, report, tracer);
    report.metrics["peak_rss_mib"] = peakRssMiB();
    report.print(tracer, a.tracePath);
    return 0;
}
