#include "src/dse/dse.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/cpu_time.hh"
#include "src/common/logging.hh"
#include "src/common/thread_pool.hh"
#include "src/cost/cost_stack.hh"
#include "src/dse/journal.hh"

namespace gemini::dse {

double
DseStats::cpuSeconds() const
{
    double total = 0.0;
    for (const DseRungStats &r : rungs)
        total += r.cpuSeconds;
    return total;
}

int
DseStats::poisonedCount() const
{
    int total = 0;
    for (const DseRungStats &r : rungs)
        total += r.poisoned;
    return total;
}

const DseRecord &
DseResult::best() const
{
    GEMINI_ASSERT(bestIndex >= 0 &&
                      static_cast<std::size_t>(bestIndex) < records.size(),
                  "DSE produced no feasible candidate");
    return records[static_cast<std::size_t>(bestIndex)];
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double
objectiveOf(const DseRecord &r, double alpha, double beta, double gamma)
{
    return cost::CostStack::dseObjective(r.mc.total(), r.energyGeo,
                                         r.delayGeo, alpha, beta, gamma);
}

/**
 * Fill the geometric means and objective of a record whose perModel list
 * is complete. A zero/degenerate delay or energy would feed std::log and
 * poison the geomeans with -inf/NaN — such records are marked infeasible
 * with an infinite objective instead, so bestUnder comparisons stay sound.
 */
void
finishRecord(DseRecord &rec, const DseOptions &options)
{
    rec.feasible = true;
    double log_delay = 0.0;
    double log_energy = 0.0;
    bool degenerate = false;
    for (const eval::EvalBreakdown &total : rec.perModel) {
        rec.feasible = rec.feasible && total.feasible();
        const double d = total.delay;
        const double e = total.totalEnergy();
        if (!(d > 0.0) || !(e > 0.0) || !std::isfinite(d) ||
            !std::isfinite(e)) {
            degenerate = true;
            continue;
        }
        log_delay += std::log(d);
        log_energy += std::log(e);
    }
    if (degenerate) {
        rec.feasible = false;
        rec.delayGeo = 0.0;
        rec.energyGeo = 0.0;
        rec.objective = kInf;
        return;
    }
    const double n = static_cast<double>(rec.perModel.size());
    rec.delayGeo = std::exp(log_delay / n);
    rec.energyGeo = std::exp(log_energy / n);
    rec.objective =
        objectiveOf(rec, options.alpha, options.beta, options.gamma);
}

/**
 * The clocks of one scheduler task: wall time for the record's
 * evalSeconds, thread CPU time for the rung ledger. A task runs on one
 * pool thread from start to finish and DSE runs pin saThreads = 1, so
 * the thread clock sees all of an in-process candidate's work.
 */
struct TaskTimer
{
    std::chrono::steady_clock::time_point wall0 =
        std::chrono::steady_clock::now();
    double cpu0 = common::threadCpuSeconds();

    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall0)
            .count();
    }

    double cpuSeconds() const { return common::threadCpuSeconds() - cpu0; }
};

/**
 * Reset a record to the shape of a candidate that was never evaluated:
 * infeasible with an infinite objective, so it can never look like a
 * winner. Its architecture, MC and lower-bound fields stay. Records
 * cancelled before their screen and records pruned by bound share this
 * shape, so a pruned record does not reveal whether its stripe mapping
 * happened to be computed before the prune could rule it out.
 */
void
markUnevaluated(DseRecord &rec)
{
    rec.feasible = false;
    rec.objective = kInf;
    rec.delayGeo = 0.0;
    rec.energyGeo = 0.0;
    rec.perModel.clear();
    rec.seededAnalytic = false;
}

/**
 * Fill the MC of a record's architecture, its objective lower bound and
 * the bound's explanatory components. The bound is the per-layer
 * segmentation-DP bound; maxGroupLayers caps the DP, mirroring the
 * partitioner.
 */
void
fillMcAndBound(DseRecord &rec, const DseOptions &options)
{
    const cost::CostStack stack(rec.arch, options.mapping.tech,
                                options.costParams);
    rec.mc = stack.mcBreakdown();
    cost::BoundComponents comps;
    rec.objectiveLowerBound = stack.dseObjectiveLowerBound(
        options.models, options.mapping.batch, rec.mc.total(),
        options.alpha, options.beta, options.gamma,
        options.mapping.maxGroupLayers, &comps);
    rec.boundComputeSeconds = comps.computeSeconds;
    rec.boundDramSeconds = comps.dramSeconds;
    rec.boundNocSeconds = comps.nocSeconds;
    rec.boundRefetchBytes = comps.refetchBytes;
}

/**
 * Sort candidate indices by key(i), ties by index: a deterministic order
 * for any completion order. key must never return NaN.
 */
template <typename KeyFn>
void
sortByKeyThenIndex(std::vector<std::size_t> &indices, KeyFn key)
{
    std::sort(indices.begin(), indices.end(),
              [&](std::size_t a, std::size_t b) {
                  const double ka = key(a), kb = key(b);
                  return ka < kb || (ka == kb && a < b);
              });
}

/**
 * The DSE driver. A scheduled run is multi-fidelity (screen -> race ->
 * polish); every other run takes the exhaustive shape: one cohort named
 * "exhaustive", which is also the final rung, whose task evaluates a
 * candidate at the full budget exactly like evaluateCandidate. All rungs
 * stream over one shared thread pool: a candidate's next-rung task is
 * submitted the moment its cohort's keep-decision resolves, so the pool
 * never drains between rungs. Keep-decisions are computed by whichever
 * worker finishes a cohort last, from per-candidate objectives that do
 * not depend on scheduling — the whole run is deterministic for any
 * thread count.
 *
 * The screen is bound-first: every candidate's MC and objective lower
 * bound are computed by one pool task each, and the last of them submits
 * the stripe-mapping tasks in (bound, index) order. A screen task whose
 * bound already exceeds the best stripe objective finished so far skips
 * partitioning — it would be pruned at resolve time anyway.
 */
class MultiFidelityScheduler
{
  public:
    MultiFidelityScheduler(const DseOptions &options,
                           std::vector<arch::ArchConfig> candidates,
                           std::size_t threads)
        : opts_(options), candidates_(std::move(candidates)),
          exhaustive_(!(options.schedule.enabled && options.mapping.runSa)),
          remote_(options.execution == ExecutionMode::Workers &&
                  options.remoteEval),
          ownedPool_(options.pool ? nullptr
                                  : std::make_unique<ThreadPool>(threads)),
          pool_(options.pool ? *options.pool : *ownedPool_)
    {
        // Candidate tasks each occupy one pool worker; chains run
        // serially inside them so candidate- and chain-level parallelism
        // never oversubscribe the machine (or stack a private chain pool
        // on a shared one).
        opts_.mapping.saThreads = 1;
        // Thread the run-level stop token into the mapping layer so a
        // cancelled polish run also stops at chain granularity.
        opts_.mapping.stop = opts_.stop;
    }

    DseResult
    run()
    {
        const std::size_t n = candidates_.size();
        result_.records.resize(n);
        states_.resize(n);

        const int n_rungs = polishRung() + 1;
        cohorts_.assign(static_cast<std::size_t>(n_rungs), {});
        done_.assign(static_cast<std::size_t>(n_rungs), 0);
        result_.stats.scheduled = !exhaustive_;
        result_.stats.numaNodes = pool_.numaNodeCount();
        result_.stats.pinnedWorkers = pool_.pinnedWorkers();
        result_.stats.rungs.resize(static_cast<std::size_t>(n_rungs));
        for (int r = 0; r < n_rungs; ++r) {
            DseRungStats &rs = result_.stats.rungs[static_cast<std::size_t>(r)];
            rs.name = rungName(r);
            rs.saIters = rungIters(r) * rungChains(r);
            rs.bestObjective = kInf;
        }

        int start = 0; // first rung whose cohort we evaluate
        journal_ = !opts_.journalPath.empty();
        if (journal_ && opts_.resume) {
            start = tryResume();
            if (resumedComplete_)
                return std::move(result_); // journal held the final record
        }
        if (journal_ && result_.stats.resumedRung < 0) {
            // Fresh (or failed-resume) run: any journal at this path is
            // stale — start over.
            std::string jerr;
            if (!journalStart(opts_.journalPath, &jerr)) {
                GEMINI_WARN("rung journal disabled: ", jerr);
                journal_ = false;
            }
        }

        if (start == 0) {
            auto &screen = cohorts_[0];
            screen.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                screen.push_back(i);
            result_.stats.rungs[0].entered = static_cast<int>(n);
        }
        // Resumed starts (> 0) found cohorts_[start] and the stats ledger
        // already restored from the journal snapshot by tryResume().

        DseProgressEvent entered;
        entered.kind = DseProgressEvent::Kind::RungEntered;
        entered.rung = rungName(start);
        entered.entered =
            static_cast<int>(cohorts_[static_cast<std::size_t>(start)].size());
        entered.bestObjective = bestSoFar_;
        emit(entered);

        for (std::size_t i : cohorts_[static_cast<std::size_t>(start)]) {
            if (exhaustive_)
                enqueue([this, i] { runExhaustive(i); });
            else if (start == 0)
                enqueue([this, i] { runBound(i); });
            else
                enqueue([this, start, i] { runSaRung(start, i); });
        }

        // Wait on the run's own task latch, not pool_.waitIdle(): a shared
        // pool carries other jobs' tasks, which are not ours to wait for.
        std::exception_ptr task_error;
        {
            std::unique_lock lock(waitMu_);
            allDone_.wait(lock, [this] { return pending_ == 0; });
            task_error = error_;
        }
        // A task that threw aborted the run: remaining tasks drained
        // without evaluating, nothing was journaled past the last clean
        // rung, and the error propagates to the caller (the service
        // preserves it through JobHandle::rethrow()).
        if (task_error)
            std::rethrow_exception(task_error);

        result_.stats.cancelled = opts_.stop.cancelRequested();
        result_.stats.truncated = opts_.stop.deadlineExpired();

        // The winner comes from the final cohort: only its members carry
        // a full-budget evaluation, so cross-fidelity objective
        // comparisons never decide the result. Ties go to the lowest
        // index (cohorts are in index order).
        result_.bestIndex = -1;
        double best_obj = kInf;
        for (std::size_t i : cohorts_[static_cast<std::size_t>(polishRung())]) {
            const DseRecord &rec = result_.records[i];
            if (!rec.feasible || !std::isfinite(rec.objective))
                continue;
            if (rec.objective < best_obj) {
                best_obj = rec.objective;
                result_.bestIndex = static_cast<int>(i);
            }
        }

        // A stopped run's last rungs resolved with skipped candidates —
        // not the deterministic resolution — so they are never journaled;
        // a later resume redoes them from the last clean record.
        if (journal_ && !opts_.stop.stopRequested())
            journalFinal();
        return std::move(result_);
    }

  private:
    struct CandState
    {
        std::vector<std::unique_ptr<mapping::MappingEngine>> engines;
        std::vector<mapping::LpMapping> mappings; ///< per-model warm starts
    };

    int raceRungs() const { return std::max(0, opts_.schedule.rungs); }

    /** The final rung: polish, or the exhaustive shape's only rung. */
    int polishRung() const { return exhaustive_ ? 0 : raceRungs() + 1; }

    void
    emit(const DseProgressEvent &event)
    {
        if (opts_.progress)
            opts_.progress(event);
    }

    /**
     * Submit a task with run-local completion tracking. Next-rung tasks
     * are enqueued from inside a running task (resolveLocked), i.e. the
     * increment happens before that task's own decrement — pending_
     * reaching zero therefore means the whole run has drained.
     */
    void
    enqueue(std::function<void()> fn)
    {
        {
            std::lock_guard lock(waitMu_);
            ++pending_;
        }
        pool_.submit([this, fn = std::move(fn)] {
            try {
                fn();
            } catch (...) {
                // Capture the first failure and abort the run: later
                // tasks short-circuit (see the aborted_ checks), the
                // drained latch releases run(), and run() rethrows.
                aborted_.store(true, std::memory_order_relaxed);
                std::lock_guard lock(waitMu_);
                if (!error_)
                    error_ = std::current_exception();
            }
            std::lock_guard lock(waitMu_);
            if (--pending_ == 0)
                allDone_.notify_all();
        });
    }

    std::string
    rungName(int rung) const
    {
        if (exhaustive_)
            return "exhaustive";
        if (rung == 0)
            return "screen";
        if (rung == polishRung())
            return "polish";
        return "race" + std::to_string(rung);
    }

    /**
     * Per-model SA budget of one rung: doubles every race round,
     * saturating (rather than overflowing) for absurd rung counts.
     */
    int
    rungIters(int rung) const
    {
        if (exhaustive_)
            return opts_.mapping.runSa ? opts_.mapping.sa.iterations : 0;
        if (rung == 0)
            return 0;
        if (rung == polishRung())
            return opts_.mapping.sa.iterations;
        const int shift = std::min(rung - 1, 30);
        const auto grown =
            static_cast<long long>(std::max(1, opts_.schedule.baseIters))
            << shift;
        return static_cast<int>(std::min<long long>(
            grown, std::numeric_limits<int>::max()));
    }

    int
    rungChains(int rung) const
    {
        if (exhaustive_)
            return std::max(1, opts_.mapping.sa.chains);
        if (rung != polishRung())
            return 1;
        return std::max({1, opts_.mapping.sa.chains,
                         opts_.schedule.polishChains});
    }

    /** Fresh deterministic SA seed per rung (chains derive from it). */
    std::uint64_t
    rungSeed(int rung) const
    {
        return mapping::SaEngine::chainSeed(opts_.mapping.sa.seed,
                                            0x5A + rung);
    }

    /** Append the keep-decision of `rung` to the journal (mu_ held). */
    void
    journalRungLocked(int rung, const std::vector<std::size_t> &survivors)
    {
        JournalRecord rec;
        rec.tag = opts_.journalTag;
        rec.rung = rung;
        rec.rungName = rungName(rung);
        rec.bestSoFar = bestSoFar_;
        rec.snapshot.records = result_.records;
        rec.snapshot.stats = result_.stats;
        rec.snapshot.bestIndex = -1; // no winner until polish resolves
        rec.survivors = survivors;
        rec.warmStarts.reserve(survivors.size());
        for (const std::size_t i : survivors)
            rec.warmStarts.push_back(states_[i].mappings);
        std::string jerr;
        if (!journalAppend(opts_.journalPath, rec, &jerr)) {
            GEMINI_WARN("rung journal disabled: ", jerr);
            journal_ = false; // run on; only resumability is lost
        }
    }

    /** Append the final record (complete result, winner included). */
    void
    journalFinal()
    {
        JournalRecord rec;
        rec.tag = opts_.journalTag;
        rec.rung = polishRung();
        rec.rungName = rungName(polishRung());
        rec.final = true;
        rec.bestSoFar = bestSoFar_;
        rec.snapshot = result_;
        std::string jerr;
        if (!journalAppend(opts_.journalPath, rec, &jerr))
            GEMINI_WARN("cannot journal final record: ", jerr);
    }

    /**
     * Replay the journal's valid prefix. Returns the first rung left to
     * evaluate (cohort and ledger restored), or 0 for a fresh run. When
     * the journal already holds the final record, result_ is rebuilt
     * wholesale and resumedComplete_ is set instead.
     */
    int
    tryResume()
    {
        const std::string &path = opts_.journalPath;
        JournalLoadResult loaded = journalLoad(path, opts_.journalTag);
        if (!loaded.error.empty()) {
            GEMINI_WARN("cannot resume from ", path, ": ", loaded.error,
                        "; starting fresh");
            return 0;
        }
        if (loaded.records.empty()) {
            if (loaded.droppedTail > 0)
                GEMINI_WARN("journal ", path, ": no valid records (",
                            loaded.droppedTail,
                            " corrupt line(s)); starting fresh");
            return 0;
        }
        if (loaded.droppedTail > 0)
            GEMINI_WARN("journal ", path, ": dropped ", loaded.droppedTail,
                        " torn/corrupt trailing line(s); falling back one "
                        "rung");

        JournalRecord &last = loaded.records.back();
        const int n_rungs = polishRung() + 1;
        if (last.snapshot.records.size() != candidates_.size() ||
            static_cast<int>(last.snapshot.stats.rungs.size()) != n_rungs) {
            GEMINI_WARN("journal ", path, ": shape mismatch (different "
                        "candidate list or schedule); starting fresh");
            return 0;
        }

        if (last.final) {
            result_ = std::move(last.snapshot);
            result_.stats.resumedRung = last.rung;
            resumedComplete_ = true;
            return 0;
        }

        if (last.rung < 0 || last.rung >= polishRung() ||
            last.survivors.empty()) {
            GEMINI_WARN("journal ", path,
                        ": malformed last record; starting fresh");
            return 0;
        }
        for (std::size_t k = 0; k < last.survivors.size(); ++k) {
            const std::size_t i = last.survivors[k];
            if (i >= candidates_.size() ||
                !(candidates_[i] == last.snapshot.records[i].arch) ||
                last.warmStarts[k].size() != opts_.models.size()) {
                GEMINI_WARN("journal ", path, ": survivor set does not "
                            "match this experiment; starting fresh");
                return 0;
            }
        }

        // Torn tail gone from memory; make the file agree before our own
        // appends, so garbage can never glue onto the next record.
        std::string terr;
        if (loaded.validBytes > 0 &&
            !journalTruncate(path, loaded.validBytes, &terr))
            GEMINI_WARN("journal ", path, ": ", terr);

        result_.records = std::move(last.snapshot.records);
        result_.stats.rungs = std::move(last.snapshot.stats.rungs);
        result_.stats.resumedRung = last.rung;
        bestSoFar_ = last.bestSoFar;
        const int next = last.rung + 1;
        cohorts_[static_cast<std::size_t>(next)] = last.survivors;
        for (std::size_t k = 0; k < last.survivors.size(); ++k)
            states_[last.survivors[k]].mappings =
                std::move(last.warmStarts[k]);
        return next;
    }

    /**
     * First screen stage: MC and the objective lower bound. Both are pure
     * arithmetic, so they are always computed locally, even in worker
     * mode. The last finisher submits the stripe-mapping stage.
     */
    void
    runBound(std::size_t i)
    {
        const TaskTimer timer;
        DseRecord &rec = result_.records[i];
        rec.arch = candidates_[i];
        if (!opts_.stop.stopRequested() && !abortRequested())
            fillMcAndBound(rec, opts_);
        const double cpu = timer.cpuSeconds();
        const double wall = timer.wallSeconds();
        std::lock_guard lock(mu_);
        result_.stats.rungs[0].cpuSeconds += cpu;
        rec.evalSeconds += wall;
        if (++boundsDone_ == cohorts_[0].size())
            enqueueScreenLocked();
    }

    /**
     * Submit the stripe-mapping stage in (bound, index) order (mu_ held).
     * The pool runs tasks FIFO, so the candidates most likely to win are
     * partitioned first and set a low incumbent early, which lets
     * runScreen skip the most candidates. The order only decides which
     * candidates skip work, never the result.
     */
    void
    enqueueScreenLocked()
    {
        std::vector<std::size_t> order = cohorts_[0];
        sortByKeyThenIndex(order, [this](std::size_t i) {
            const double b = result_.records[i].objectiveLowerBound;
            return std::isnan(b) ? kInf : b;
        });
        for (std::size_t i : order)
            enqueue([this, i] { runScreen(i); });
    }

    /**
     * True when the candidate's bound exceeds the incumbent: the lowest
     * feasible, finite stripe objective finished so far (the screen
     * rung's running bestObjective, maintained by finishTask). The
     * incumbent never drops below the screen's final best, so such a
     * candidate would be pruned at resolve time anyway.
     */
    bool
    ruledOutByBound(const DseRecord &rec)
    {
        if (!opts_.schedule.lowerBoundPrune)
            return false;
        std::lock_guard lock(mu_);
        return rec.objectiveLowerBound > result_.stats.rungs[0].bestObjective;
    }

    /** Second screen stage: the stripe-only T-Map of one candidate. */
    void
    runScreen(std::size_t i)
    {
        const TaskTimer timer;
        const arch::ArchConfig &cfg = candidates_[i];
        DseRecord &rec = result_.records[i];
        if (opts_.stop.stopRequested() || abortRequested()) {
            // Cancelled before evaluation: an unevaluated record must
            // never look like a winner. The cohort still resolves.
            markUnevaluated(rec);
            finishTask(0, i, timer);
            return;
        }
        if (ruledOutByBound(rec)) {
            // Skipped before partitioning (and before any worker
            // dispatch); resolveLocked records the prune.
            markUnevaluated(rec);
            finishTask(0, i, timer);
            return;
        }

        CandState &st = states_[i];
        double worker_cpu = 0.0;
        if (remote_) {
            RemoteEvalRequest rq;
            rq.index = i;
            rq.arch = &cfg;
            rq.rung = 0;
            RemoteEvalOutcome out = opts_.remoteEval(rq);
            worker_cpu = out.cpuSeconds;
            if (out.poisoned) {
                markPoisoned(rec, 0, std::move(out.poisonReason));
                finishTask(0, i, timer, worker_cpu);
                return;
            }
            st.mappings = std::move(out.mappings);
            rec.perModel = std::move(out.perModel);
            rec.seededAnalytic = out.seededAnalytic;
        } else {
            st.mappings.reserve(opts_.models.size());
            rec.perModel.reserve(opts_.models.size());
            for (const dnn::Graph *model : opts_.models) {
                // Screen engines are throwaway: only the stripe mapping
                // survives into the race rungs, so per-candidate analyzer
                // caches never pile up across the whole (possibly huge)
                // candidate list.
                mapping::MappingOptions mo = opts_.mapping;
                mo.runSa = false;
                mapping::MappingEngine engine(*model, cfg, mo);
                mapping::MappingResult res = engine.run();
                st.mappings.push_back(std::move(res.mapping));
                rec.perModel.push_back(res.total);
                rec.seededAnalytic =
                    rec.seededAnalytic || res.seededAnalytic;
            }
        }
        finishRecord(rec, opts_);
        rec.rungReached = 0;
        finishTask(0, i, timer, worker_cpu);
    }

    /**
     * The exhaustive shape's only task: MC, the lower bound and one
     * full-budget evaluation per model, exactly as evaluateCandidate
     * computes them (locally, or through the worker at rung -1).
     */
    void
    runExhaustive(std::size_t i)
    {
        const TaskTimer timer;
        const arch::ArchConfig &cfg = candidates_[i];
        DseRecord &rec = result_.records[i];
        rec.arch = cfg;
        double worker_cpu = 0.0;
        if (opts_.stop.stopRequested() || abortRequested()) {
            markUnevaluated(rec);
        } else if (remote_) {
            fillMcAndBound(rec, opts_);
            RemoteEvalRequest rq;
            rq.index = i;
            rq.arch = &cfg;
            rq.rung = -1;
            RemoteEvalOutcome out = opts_.remoteEval(rq);
            worker_cpu = out.cpuSeconds;
            if (out.poisoned) {
                markPoisoned(rec, 0, std::move(out.poisonReason));
            } else {
                rec.perModel = std::move(out.perModel);
                rec.seededAnalytic = out.seededAnalytic;
                rec.saIters = out.saIters;
                finishRecord(rec, opts_);
            }
        } else {
            rec = evaluateCandidate(cfg, opts_);
        }
        finishTask(0, i, timer, worker_cpu);
    }

    void
    ensureEngines(std::size_t i)
    {
        CandState &st = states_[i];
        if (!st.engines.empty())
            return;
        for (const dnn::Graph *model : opts_.models)
            st.engines.push_back(std::make_unique<mapping::MappingEngine>(
                *model, candidates_[i], opts_.mapping));
    }

    void
    runSaRung(int rung, std::size_t i)
    {
        const TaskTimer timer;
        DseRecord &rec = result_.records[i];
        CandState &st = states_[i];
        if (opts_.stop.stopRequested() || abortRequested()) {
            // Cancelled: keep the record's deepest completed evaluation
            // (screen or an earlier race rung — still a valid, comparable
            // result) and let the cohort resolve.
            finishTask(rung, i, timer);
            return;
        }
        const int iters = rungIters(rung);
        const int chains = rungChains(rung);
        double worker_cpu = 0.0;
        if (remote_) {
            RemoteEvalRequest rq;
            rq.index = i;
            rq.arch = &candidates_[i];
            rq.rung = rung;
            rq.iters = iters;
            rq.chains = chains;
            rq.seed = rungSeed(rung);
            rq.warmStarts = &st.mappings;
            RemoteEvalOutcome out = opts_.remoteEval(rq);
            worker_cpu = out.cpuSeconds;
            if (out.poisoned) {
                markPoisoned(rec, rung, std::move(out.poisonReason));
                finishTask(rung, i, timer, worker_cpu);
                return;
            }
            st.mappings = std::move(out.mappings);
            rec.perModel = std::move(out.perModel);
            rec.saIters += out.saIters;
        } else {
            ensureEngines(i);
            for (std::size_t m = 0; m < opts_.models.size(); ++m) {
                mapping::MappingEngine &engine = *st.engines[m];
                mapping::MappingOptions &mo = engine.mutableOptions();
                mo.runSa = true;
                mo.sa.iterations = iters;
                mo.sa.chains = chains;
                mo.sa.seed = rungSeed(rung);
                mapping::MappingResult res = engine.runFrom(st.mappings[m]);
                st.mappings[m] = std::move(res.mapping);
                rec.perModel[m] = res.total;
                // Actual executed iterations (all chains): with plateau
                // termination this undercuts the rung budget, and it is
                // still deterministic for any thread count.
                rec.saIters += res.saStats.itersRun;
            }
        }
        finishRecord(rec, opts_);
        rec.rungReached = rung;
        finishTask(rung, i, timer, worker_cpu);
    }

    bool
    abortRequested() const
    {
        return aborted_.load(std::memory_order_relaxed);
    }

    /**
     * Quarantine a candidate whose evaluation exhausted its worker
     * retries: infeasible-with-inf (so it can never rank or win), tagged
     * poisoned with the supervisor's reason, and counted in the rung
     * ledger. The run continues; resolveLocked drops poisoned records
     * from every survivor set.
     */
    void
    markPoisoned(DseRecord &rec, int rung, std::string reason)
    {
        rec.feasible = false;
        rec.objective = kInf;
        rec.poisoned = true;
        rec.poisonReason = std::move(reason);
        GEMINI_WARN("candidate ", rec.arch.toString(), " quarantined at ",
                    rungName(rung), ": ", rec.poisonReason);
        std::lock_guard lock(mu_);
        ++result_.stats.rungs[static_cast<std::size_t>(rung)].poisoned;
    }

    /**
     * Charge a finished task to the ledger and fold its objective into
     * the rung's running best. The rung is charged the task thread's CPU
     * plus `worker_cpu`, the CPU a worker process reported for the
     * evaluation it ran on the task's behalf. The cohort's last finisher
     * resolves it.
     */
    void
    finishTask(int rung, std::size_t i, const TaskTimer &timer,
               double worker_cpu = 0.0)
    {
        const double cpu = timer.cpuSeconds() + worker_cpu;
        const double wall = timer.wallSeconds();
        std::lock_guard lock(mu_);
        DseRungStats &rs = result_.stats.rungs[static_cast<std::size_t>(rung)];
        rs.cpuSeconds += cpu;
        DseRecord &rec = result_.records[i];
        rec.evalSeconds += wall;
        if (rec.feasible && std::isfinite(rec.objective))
            rs.bestObjective = std::min(rs.bestObjective, rec.objective);
        if (++done_[static_cast<std::size_t>(rung)] ==
            cohorts_[static_cast<std::size_t>(rung)].size())
            resolveLocked(rung);
    }

    /**
     * Cohort keep-decision, run by the cohort's last finisher (mu_ held):
     * the screen prunes by the objective lower bound, race rounds keep the
     * top keepFraction, and survivors' next-rung tasks are submitted
     * immediately onto the shared pool.
     */
    void
    resolveLocked(int rung)
    {
        DseRungStats &rs = result_.stats.rungs[static_cast<std::size_t>(rung)];
        const std::vector<std::size_t> &members =
            cohorts_[static_cast<std::size_t>(rung)];
        bestSoFar_ = std::min(bestSoFar_, rs.bestObjective);

        DseProgressEvent finished;
        finished.kind = DseProgressEvent::Kind::RungFinished;
        finished.rung = rs.name;
        finished.entered = rs.entered;
        finished.bestObjective = bestSoFar_;

        if (rung == polishRung()) {
            emit(finished);
            return;
        }

        std::vector<std::size_t> survivors;
        if (rung == 0) {
            // Sound prune: the screened best is achievable, so a candidate
            // whose lower bound exceeds it can never win, at any budget.
            // Every pruned record gets the unevaluated shape, whether
            // runScreen skipped it or partitioned it before the incumbent
            // was low enough: the output never depends on that timing.
            const double best_achievable = rs.bestObjective;
            for (std::size_t i : members) {
                DseRecord &rec = result_.records[i];
                if (rec.poisoned) {
                    // Quarantined: never a survivor (and not counted as a
                    // prune — the rung ledger tracks it separately).
                    states_[i] = CandState{};
                } else if (opts_.schedule.lowerBoundPrune &&
                           std::isfinite(best_achievable) &&
                           rec.objectiveLowerBound > best_achievable) {
                    markUnevaluated(rec);
                    rec.rungReached = 0;
                    rec.prunedByBound = true;
                    ++rs.prunedBound;
                    states_[i] = CandState{};
                } else {
                    survivors.push_back(i);
                }
            }
        } else {
            // Rank by objective (infeasible and non-finite last), ties by
            // candidate index: deterministic for any completion order.
            // Poisoned candidates are out of the race entirely: their
            // exclusion must not depend on how many healthy candidates
            // the keep-fraction would otherwise retain.
            std::vector<std::size_t> ranked;
            ranked.reserve(members.size());
            for (std::size_t i : members) {
                if (result_.records[i].poisoned)
                    states_[i] = CandState{};
                else
                    ranked.push_back(i);
            }
            sortByKeyThenIndex(ranked, [this](std::size_t i) {
                const DseRecord &rec = result_.records[i];
                return (rec.feasible && std::isfinite(rec.objective))
                           ? rec.objective
                           : kInf;
            });
            // minKeep may exceed the cohort (the screen prune has no
            // survivor floor), so clamp the floor itself before applying.
            const auto want = static_cast<std::size_t>(std::ceil(
                static_cast<double>(ranked.size()) *
                std::clamp(opts_.schedule.keepFraction, 0.0, 1.0)));
            const std::size_t floor_keep = std::max<std::size_t>(
                1, std::min(opts_.schedule.minKeep, ranked.size()));
            const std::size_t keep =
                std::min(ranked.size(), std::max(want, floor_keep));
            survivors.assign(ranked.begin(),
                             ranked.begin() + static_cast<long>(keep));
            std::sort(survivors.begin(), survivors.end());
            for (std::size_t k = keep; k < ranked.size(); ++k) {
                ++rs.prunedRank;
                states_[ranked[k]] = CandState{};
            }
        }

        rs.advanced = static_cast<int>(survivors.size());
        const int next = rung + 1;
        cohorts_[static_cast<std::size_t>(next)] = survivors;
        result_.stats.rungs[static_cast<std::size_t>(next)].entered =
            static_cast<int>(survivors.size());

        // Write-ahead: the keep-decision goes to stable storage before
        // any next-rung task is enqueued. A stopped (or error-aborted)
        // rung resolved with skipped candidates — not the deterministic
        // decision — so it is never journaled; resume redoes it from the
        // previous record.
        if (journal_ && !opts_.stop.stopRequested() && !abortRequested())
            journalRungLocked(rung, survivors);

        finished.advanced = rs.advanced;
        finished.prunedBound = rs.prunedBound;
        finished.prunedRank = rs.prunedRank;
        emit(finished);

        DseProgressEvent entered;
        entered.kind = DseProgressEvent::Kind::RungEntered;
        entered.rung = rungName(next);
        entered.entered = static_cast<int>(survivors.size());
        entered.bestObjective = bestSoFar_;
        emit(entered);

        for (std::size_t i : survivors)
            enqueue([this, next, i] { runSaRung(next, i); });
    }

    DseOptions opts_;
    std::vector<arch::ArchConfig> candidates_;
    DseResult result_;
    std::vector<CandState> states_;
    /**
     * The exhaustive shape: schedule disabled, or no SA (the race and
     * polish rungs are SA runs, so a schedule without SA is meaningless).
     */
    const bool exhaustive_;
    const bool remote_; ///< evaluate candidates via opts_.remoteEval
    std::unique_ptr<ThreadPool> ownedPool_; ///< null when opts_.pool set
    ThreadPool &pool_;
    std::mutex mu_;
    std::vector<std::vector<std::size_t>> cohorts_; ///< members per rung
    std::vector<std::size_t> done_;                 ///< finished per rung
    std::size_t boundsDone_ = 0; ///< screen candidates with their bound
    double bestSoFar_ = kInf; ///< best feasible objective, any rung

    bool journal_ = false; ///< journaling active (path set, no I/O error)
    bool resumedComplete_ = false; ///< journal held the final record

    // Run-local task latch (a shared pool cannot be waitIdle()d).
    std::mutex waitMu_;
    std::condition_variable allDone_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;        ///< first escaped task exception
    std::atomic<bool> aborted_{false}; ///< error seen; tasks short-circuit
};

} // namespace

int
DseResult::bestUnder(double alpha, double beta, double gamma) const
{
    int best = -1;
    double best_obj = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (!records[i].feasible)
            continue;
        const double obj = objectiveOf(records[i], alpha, beta, gamma);
        if (!std::isfinite(obj))
            continue;
        if (best < 0 || obj < best_obj) {
            best = static_cast<int>(i);
            best_obj = obj;
        }
    }
    return best;
}

DseRecord
evaluateCandidate(const arch::ArchConfig &cfg, const DseOptions &options)
{
    GEMINI_ASSERT(!options.models.empty(), "DSE needs at least one model");
    DseRecord rec;
    rec.arch = cfg;
    fillMcAndBound(rec, options);

    for (const dnn::Graph *model : options.models) {
        mapping::MappingEngine engine(*model, cfg, options.mapping);
        const mapping::MappingResult result = engine.run();
        rec.perModel.push_back(result.total);
        rec.seededAnalytic = rec.seededAnalytic || result.seededAnalytic;
        if (options.mapping.runSa)
            rec.saIters += result.saStats.itersRun;
    }
    finishRecord(rec, options);
    return rec;
}

DseResult
runDse(const DseOptions &user_options)
{
    // Arm the wall-clock deadline (if any) on a run-local token: every
    // stop check below — and in the mapping layer, which inherits this
    // token — then reports stop on cancel *or* expiry, while the two
    // causes stay distinguishable for the stats flags.
    DseOptions options = user_options;
    if (options.deadlineSeconds > 0.0) {
        options.stop = options.stop.withDeadline(
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.deadlineSeconds)));
    }

    GEMINI_ASSERT(!options.models.empty(), "DSE needs at least one model");
    std::vector<arch::ArchConfig> candidates =
        enumerateCandidates(options.axes);
    GEMINI_ASSERT(!candidates.empty(), "axis lists produced no candidates");

    if (options.maxCandidates > 0 &&
        candidates.size() > options.maxCandidates) {
        // Deterministic stride subsampling keeps every axis populated
        // because the enumeration order interleaves all axes.
        std::vector<arch::ArchConfig> picked;
        picked.reserve(options.maxCandidates);
        const double stride = static_cast<double>(candidates.size()) /
                              static_cast<double>(options.maxCandidates);
        for (std::size_t i = 0; i < options.maxCandidates; ++i) {
            picked.push_back(
                candidates[static_cast<std::size_t>(i * stride)]);
        }
        candidates.swap(picked);
    }

    const std::size_t threads =
        options.threads > 0
            ? static_cast<std::size_t>(options.threads)
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return MultiFidelityScheduler(options, std::move(candidates), threads)
        .run();
}

} // namespace gemini::dse
