/**
 * @file
 * Unit tests for the DSE driver: candidate enumeration against Table I,
 * core-grid selection, objective computation, subsampling, threading, and
 * the chiplet-reuse scaling of Sec. VII-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>

#include "src/api/results.hh"
#include "src/arch/presets.hh"
#include "src/common/thread_pool.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/candidates.hh"
#include "src/dse/dse.hh"
#include "src/dse/joint_reuse.hh"
#include "src/dse/records.hh"
#include "src/mapping/engine.hh"

namespace gemini::dse {
namespace {

TEST(CoreGrid, PaperArrangements)
{
    int x = 0, y = 0;
    // 72 TOPs / 1024 MACs -> 36 cores as 6x6 (the paper's example).
    chooseCoreGrid(72.0, 1024, {1, 2, 3, 6}, {1, 2, 3, 6}, x, y);
    EXPECT_EQ(x * y, 36);
    EXPECT_EQ(x, 6);
    EXPECT_EQ(y, 6);
    // 72 TOPs / 2048 -> 18 cores as 6x3.
    chooseCoreGrid(72.0, 2048, {1, 2, 3, 6}, {1, 2, 3, 6}, x, y);
    EXPECT_EQ(x * y, 18);
    EXPECT_EQ(std::max(x, y), 6);
    EXPECT_EQ(std::min(x, y), 3);
    // 128 TOPs / 1024 -> 64 cores (8x8).
    chooseCoreGrid(128.0, 1024, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
    EXPECT_EQ(x * y, 64);
    // 512 TOPs / 1024 -> 256 cores (16x16).
    chooseCoreGrid(512.0, 1024, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
    EXPECT_EQ(x * y, 256);
}

TEST(CoreGrid, TopsWithinTolerance)
{
    for (int macs : {512, 1024, 2048, 4096, 8192}) {
        int x = 0, y = 0;
        chooseCoreGrid(128.0, macs, {1, 2, 4, 8}, {1, 2, 4, 8}, x, y);
        const double tops = 2.0 * x * y * macs / 1000.0;
        EXPECT_NEAR(tops, 128.0, 128.0 * 0.16) << macs;
    }
}

TEST(Candidates, AllValidAndDistinct)
{
    DseAxes axes = DseAxes::paper72();
    // Shrink the axes for test speed but keep every dimension active.
    axes.nocGBps = {16, 32};
    axes.glbKiB = {512, 2048};
    axes.macsPerCore = {1024, 2048};
    const auto cands = enumerateCandidates(axes);
    EXPECT_GT(cands.size(), 50u);
    // toString() collapses (XCut, YCut) into a chiplet count, so build the
    // uniqueness key from the full geometry.
    std::set<std::string> seen;
    for (const auto &c : cands) {
        EXPECT_EQ(c.validate(), "");
        EXPECT_NEAR(c.tops(), 72.0, 72.0 * 0.16);
        seen.insert(c.toString() + "x" + std::to_string(c.xCut) + "y" +
                    std::to_string(c.yCut));
    }
    EXPECT_EQ(seen.size(), cands.size()); // no duplicates
}

TEST(Candidates, InvalidCutsAreDropped)
{
    DseAxes axes = DseAxes::paper72();
    axes.nocGBps = {32};
    axes.glbKiB = {1024};
    axes.macsPerCore = {2048}; // 18 cores -> 6x3 grid
    const auto cands = enumerateCandidates(axes);
    for (const auto &c : cands) {
        EXPECT_EQ(c.xCores % c.xCut, 0);
        EXPECT_EQ(c.yCores % c.yCut, 0);
        // YCut 6 cannot divide the 3-row dimension.
        EXPECT_NE(c.yCut, 6);
    }
}

TEST(Candidates, MonolithicSkipsD2dVariants)
{
    DseAxes axes = DseAxes::paper72();
    axes.nocGBps = {32};
    axes.glbKiB = {1024};
    axes.macsPerCore = {1024};
    axes.dramGBpsPerTops = {1.0};
    const auto cands = enumerateCandidates(axes);
    int monolithic = 0;
    for (const auto &c : cands)
        monolithic += (c.chipletCount() == 1);
    // Exactly one monolithic candidate (not one per D2D ratio).
    EXPECT_EQ(monolithic, 1);
}

class DseRunTest : public ::testing::Test
{
  protected:
    DseRunTest() : model_(dnn::zoo::tinyConvChain(3))
    {
        axes_.topsTarget = 1.0; // tiny: 2 cores x 256 MACs
        axes_.xCuts = {1, 2};
        axes_.yCuts = {1};
        axes_.dramGBpsPerTops = {2.0};
        axes_.nocGBps = {16, 32};
        axes_.d2dRatio = {0.5};
        axes_.glbKiB = {256, 512};
        axes_.macsPerCore = {256};

        options_.axes = axes_;
        options_.models = {&model_};
        options_.mapping.batch = 2;
        options_.mapping.sa.iterations = 60;
        options_.mapping.maxGroupLayers = 4;
        options_.threads = 2;
    }

    dnn::Graph model_;
    DseAxes axes_;
    DseOptions options_;
};

TEST_F(DseRunTest, LedgerChargesCpuTimeNotWorkerWaits)
{
    // A remote evaluator that only waits: it sleeps, then replays the
    // in-process result and reports no worker CPU. The rung ledger must
    // not count the sleep; the records' wall-clock evalSeconds must.
    const DseResult ref = runDse(options_);
    static constexpr double kSleep = 0.05;
    DseOptions o = options_;
    o.execution = ExecutionMode::Workers;
    o.remoteEval = [&ref](const RemoteEvalRequest &rq) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kSleep));
        const DseRecord &want = ref.records[rq.index];
        RemoteEvalOutcome out;
        out.perModel = want.perModel;
        out.seededAnalytic = want.seededAnalytic;
        out.saIters = want.saIters;
        out.cpuSeconds = 0.0;
        return out;
    };
    const DseResult got = runDse(o);
    ASSERT_EQ(got.records.size(), ref.records.size());
    for (const DseRecord &rec : got.records)
        EXPECT_GE(rec.evalSeconds, kSleep);
    const double slept = kSleep * static_cast<double>(got.records.size());
    EXPECT_LT(got.stats.cpuSeconds(), 0.25 * slept)
        << "the ledger counted time the task spent waiting";
}

TEST_F(DseRunTest, EvaluatesAllCandidatesAndPicksBest)
{
    const DseResult r = runDse(options_);
    EXPECT_GT(r.records.size(), 3u);
    const DseRecord &best = r.best();
    for (const auto &rec : r.records) {
        EXPECT_GT(rec.mc.total(), 0.0);
        EXPECT_GT(rec.delayGeo, 0.0);
        EXPECT_GT(rec.energyGeo, 0.0);
        if (rec.feasible)
            EXPECT_LE(best.objective, rec.objective);
    }
}

TEST_F(DseRunTest, ObjectiveExponentsChangeWinner)
{
    const DseResult r = runDse(options_);
    // MC-only and D-only objectives must both be answerable.
    const int mc_best = r.bestUnder(1.0, 0.0, 0.0);
    const int d_best = r.bestUnder(0.0, 0.0, 1.0);
    ASSERT_GE(mc_best, 0);
    ASSERT_GE(d_best, 0);
    const auto &mc_rec = r.records[static_cast<std::size_t>(mc_best)];
    for (const auto &rec : r.records) {
        if (rec.feasible)
            EXPECT_LE(mc_rec.mc.total(), rec.mc.total() * 1.0001);
    }
}

TEST_F(DseRunTest, SubsamplingBoundsWork)
{
    options_.maxCandidates = 3;
    const DseResult r = runDse(options_);
    EXPECT_EQ(r.records.size(), 3u);
}

TEST_F(DseRunTest, GeometricMeanOverTwoModels)
{
    const dnn::Graph second = dnn::zoo::tinyResidual();
    options_.models = {&model_, &second};
    options_.maxCandidates = 2;
    const DseResult r = runDse(options_);
    for (const auto &rec : r.records) {
        ASSERT_EQ(rec.perModel.size(), 2u);
        const double geo = std::sqrt(rec.perModel[0].delay *
                                     rec.perModel[1].delay);
        EXPECT_NEAR(rec.delayGeo, geo, geo * 1e-9);
    }
}

TEST_F(DseRunTest, RecordsCsvExport)
{
    options_.maxCandidates = 4;
    const dse::DseResult r = runDse(options_);
    const CsvTable table = recordsTable(r);
    EXPECT_EQ(table.rowCount(), r.records.size());
    const std::string text = table.toString();
    // Header columns and the winner flag are present.
    EXPECT_NE(text.find("objective"), std::string::npos);
    EXPECT_NE(text.find("best"), std::string::npos);
    const std::string path = "/tmp/gemini_dse_records_test.csv";
    EXPECT_TRUE(writeRecordsCsv(r, path));
}

// ------------------------------------------------- exhaustive shape ---

/**
 * The exhaustive shape (schedule disabled) must reproduce evaluateCandidate
 * on every candidate, bit for bit, on any pool.
 */
class ExhaustiveShapeTest : public DseRunTest
{
  protected:
    ExhaustiveShapeTest()
    {
        options_.mapping.analyticSeed = true;
        options_.mapping.sa.chains = 2;
        options_.mapping.sa.plateauWindow = 12;
    }

    /** One record as canonical JSON, minus its timing field. */
    static std::string
    recordJson(DseRecord rec)
    {
        rec.evalSeconds = 0.0;
        DseResult r;
        r.records.push_back(std::move(rec));
        return api::dseResultToJson(r).canonical();
    }

    void
    expectMatchesEvaluateCandidate(const DseOptions &o)
    {
        const std::vector<arch::ArchConfig> cands =
            enumerateCandidates(o.axes);
        std::vector<std::string> events;
        DseOptions run = o;
        run.progress = [&events](const DseProgressEvent &e) {
            events.push_back(
                std::string(e.kind == DseProgressEvent::Kind::RungEntered
                                ? "enter:"
                                : "finish:") +
                e.rung + ":" + std::to_string(e.entered) + ":" +
                std::to_string(e.bestObjective));
        };
        const DseResult r = runDse(run);
        ASSERT_EQ(r.records.size(), cands.size());

        double best = std::numeric_limits<double>::infinity();
        int best_index = -1;
        bool cut_short = false;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const DseRecord want = evaluateCandidate(cands[i], o);
            const DseRecord &got = r.records[i];
            EXPECT_EQ(got.objective, want.objective) << "candidate " << i;
            EXPECT_EQ(got.saIters, want.saIters) << "candidate " << i;
            EXPECT_EQ(got.seededAnalytic, want.seededAnalytic);
            EXPECT_EQ(got.rungReached, -1);
            ASSERT_EQ(got.perModel.size(), want.perModel.size());
            for (std::size_t m = 0; m < want.perModel.size(); ++m)
                EXPECT_EQ(
                    api::evalBreakdownToJson(got.perModel[m]).canonical(),
                    api::evalBreakdownToJson(want.perModel[m]).canonical());
            EXPECT_EQ(recordJson(got), recordJson(want)) << "candidate " << i;
            if (want.feasible && want.objective < best) {
                best = want.objective;
                best_index = static_cast<int>(i);
            }
            cut_short = cut_short ||
                        want.saIters < o.mapping.sa.iterations *
                                           o.mapping.sa.chains;
        }
        EXPECT_TRUE(cut_short) << "the plateau window must cut some chain";
        EXPECT_EQ(r.bestIndex, best_index);

        // The single-rung ledger.
        EXPECT_FALSE(r.stats.scheduled);
        ASSERT_EQ(r.stats.rungs.size(), 1u);
        const DseRungStats &rs = r.stats.rungs[0];
        EXPECT_EQ(rs.name, "exhaustive");
        EXPECT_EQ(rs.entered, static_cast<int>(cands.size()));
        EXPECT_EQ(rs.advanced, 0);
        EXPECT_EQ(rs.prunedBound + rs.prunedRank + rs.poisoned, 0);
        EXPECT_EQ(rs.saIters,
                  o.mapping.sa.iterations * o.mapping.sa.chains);
        EXPECT_EQ(rs.bestObjective, best);

        const std::string n = std::to_string(cands.size());
        const std::vector<std::string> want_events = {
            "enter:exhaustive:" + n + ":" +
                std::to_string(std::numeric_limits<double>::infinity()),
            "finish:exhaustive:" + n + ":" + std::to_string(best)};
        EXPECT_EQ(events, want_events);
    }
};

TEST_F(ExhaustiveShapeTest, RecordsEqualEvaluateCandidateOnAnyPool)
{
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        options_.threads = threads;
        expectMatchesEvaluateCandidate(options_);
    }
    // The API service's path: candidate tasks on a caller-owned pool.
    SCOPED_TRACE("external pool");
    ThreadPool pool(3);
    options_.pool = &pool;
    expectMatchesEvaluateCandidate(options_);
}

TEST_F(ExhaustiveShapeTest, JournaledRunResumesFromItsFinalRecord)
{
    // The exhaustive shape has no keep-decision to journal, only the
    // final record; resuming from it replays the whole result.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "gemini_dse_exhaustive_journal.jsonl")
            .string();
    options_.journalPath = path;
    options_.journalTag = 7;
    const DseResult ref = runDse(options_);
    ASSERT_EQ(ref.stats.resumedRung, -1);

    options_.resume = true;
    options_.progress = [](const DseProgressEvent &) {
        ADD_FAILURE() << "a replayed run evaluates nothing";
    };
    const DseResult got = runDse(options_);
    std::filesystem::remove(path);
    EXPECT_EQ(got.stats.resumedRung, 0);
    EXPECT_EQ(got.bestIndex, ref.bestIndex);
    ASSERT_EQ(got.records.size(), ref.records.size());
    for (std::size_t i = 0; i < ref.records.size(); ++i)
        EXPECT_EQ(recordJson(got.records[i]), recordJson(ref.records[i]));
}

// --------------------------------------------------------- scheduler ---

class SchedulerTest : public DseRunTest
{
  protected:
    SchedulerTest()
    {
        options_.schedule.enabled = true;
        options_.schedule.rungs = 2;
        options_.schedule.keepFraction = 0.5;
        options_.schedule.baseIters = 16;
        options_.schedule.minKeep = 2;
    }
};

TEST_F(SchedulerTest, DeterministicAcrossRunsAndThreadCounts)
{
    options_.threads = 1;
    const DseResult serial = runDse(options_);
    options_.threads = 3;
    const DseResult parallel1 = runDse(options_);
    const DseResult parallel2 = runDse(options_);

    ASSERT_EQ(serial.records.size(), parallel1.records.size());
    EXPECT_EQ(serial.bestIndex, parallel1.bestIndex);
    EXPECT_EQ(parallel1.bestIndex, parallel2.bestIndex);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.records[i].objective,
                         parallel1.records[i].objective);
        EXPECT_DOUBLE_EQ(parallel1.records[i].objective,
                         parallel2.records[i].objective);
        EXPECT_EQ(serial.records[i].rungReached,
                  parallel1.records[i].rungReached);
        EXPECT_EQ(serial.records[i].prunedByBound,
                  parallel1.records[i].prunedByBound);
        EXPECT_EQ(serial.records[i].saIters, parallel1.records[i].saIters);
    }
    ASSERT_EQ(serial.stats.rungs.size(), parallel1.stats.rungs.size());
    for (std::size_t r = 0; r < serial.stats.rungs.size(); ++r) {
        EXPECT_EQ(serial.stats.rungs[r].entered,
                  parallel1.stats.rungs[r].entered);
        EXPECT_EQ(serial.stats.rungs[r].advanced,
                  parallel1.stats.rungs[r].advanced);
        EXPECT_EQ(serial.stats.rungs[r].prunedBound,
                  parallel1.stats.rungs[r].prunedBound);
        EXPECT_EQ(serial.stats.rungs[r].prunedRank,
                  parallel1.stats.rungs[r].prunedRank);
    }
}

TEST_F(SchedulerTest, MatchesExhaustiveWinnerWithAndWithoutPruning)
{
    DseOptions flat = options_;
    flat.schedule.enabled = false;
    const DseResult full = runDse(flat);

    const DseResult pruned = runDse(options_);
    options_.schedule.lowerBoundPrune = false;
    const DseResult unpruned = runDse(options_);

    ASSERT_GE(full.bestIndex, 0);
    ASSERT_GE(pruned.bestIndex, 0);
    ASSERT_GE(unpruned.bestIndex, 0);
    // The scheduler's winner matches the exhaustive full-budget winner on
    // these small deterministic axes, and its polished objective is within
    // tolerance of (or better than) the exhaustive one.
    EXPECT_EQ(pruned.best().arch.toString(), full.best().arch.toString());
    EXPECT_LE(pruned.best().objective, full.best().objective * 1.05);
    EXPECT_LE(unpruned.best().objective, full.best().objective * 1.05);
    // Pruning only removes candidates that cannot win, so it must not
    // change the winner found by the unpruned schedule.
    EXPECT_EQ(pruned.best().arch.toString(),
              unpruned.best().arch.toString());
    EXPECT_NEAR(pruned.best().objective, unpruned.best().objective,
                0.05 * unpruned.best().objective);
}

TEST_F(SchedulerTest, RungLadderAccounting)
{
    const DseResult r = runDse(options_);
    ASSERT_TRUE(r.stats.scheduled);
    // screen + `rungs` race rounds + polish.
    ASSERT_EQ(r.stats.rungs.size(),
              static_cast<std::size_t>(options_.schedule.rungs) + 2);
    EXPECT_EQ(r.stats.rungs.front().name, "screen");
    EXPECT_EQ(r.stats.rungs.back().name, "polish");
    EXPECT_EQ(r.stats.rungs.front().entered,
              static_cast<int>(r.records.size()));
    for (std::size_t i = 0; i + 1 < r.stats.rungs.size(); ++i) {
        const DseRungStats &rs = r.stats.rungs[i];
        EXPECT_EQ(rs.advanced, r.stats.rungs[i + 1].entered);
        EXPECT_EQ(rs.entered - rs.advanced, rs.prunedBound + rs.prunedRank);
    }
    // Race budgets double round over round.
    EXPECT_EQ(r.stats.rungs[1].saIters, options_.schedule.baseIters);
    EXPECT_EQ(r.stats.rungs[2].saIters, 2 * options_.schedule.baseIters);
    EXPECT_GT(r.stats.cpuSeconds(), 0.0);
    // The winner must be a polished finalist.
    EXPECT_EQ(r.best().rungReached, options_.schedule.rungs + 1);
}

TEST_F(SchedulerTest, RunSaDisabledFallsBackToFlatDriver)
{
    // The race/polish rungs are SA runs; without SA the schedule is
    // bypassed and the flat stripe-only driver is honored.
    options_.mapping.runSa = false;
    const DseResult r = runDse(options_);
    ASSERT_FALSE(r.stats.scheduled);
    ASSERT_EQ(r.stats.rungs.size(), 1u);
    EXPECT_EQ(r.stats.rungs.front().name, "exhaustive");
    EXPECT_EQ(r.stats.rungs.front().saIters, 0);
    for (const auto &rec : r.records) {
        EXPECT_EQ(rec.rungReached, -1);
        EXPECT_EQ(rec.saIters, 0);
    }
}

TEST_F(SchedulerTest, CohortSmallerThanMinKeepIsHandled)
{
    // Two candidates with the default-sized minKeep floor: every race
    // cohort is smaller than minKeep, which must keep the whole cohort
    // rather than read past it.
    options_.axes.nocGBps = {32};
    options_.axes.glbKiB = {256, 512};
    options_.axes.xCuts = {1};
    options_.schedule.minKeep = 4;
    const DseResult r = runDse(options_);
    ASSERT_EQ(r.records.size(), 2u);
    ASSERT_GE(r.bestIndex, 0);
    for (std::size_t i = 0; i + 1 < r.stats.rungs.size(); ++i) {
        const DseRungStats &rs = r.stats.rungs[i];
        EXPECT_LE(rs.advanced, rs.entered);
        EXPECT_EQ(rs.entered - rs.advanced, rs.prunedBound + rs.prunedRank);
    }
    EXPECT_EQ(r.best().rungReached, options_.schedule.rungs + 1);
}

TEST_F(SchedulerTest, LowerBoundIsSoundOnEveryEvaluatedCandidate)
{
    DseOptions flat = options_;
    flat.schedule.enabled = false;
    const DseResult full = runDse(flat);
    for (const auto &rec : full.records) {
        if (!rec.feasible)
            continue;
        // No achievable mapping may score below the bound.
        EXPECT_LE(rec.objectiveLowerBound, rec.objective * (1.0 + 1e-9))
            << rec.arch.toString();
        // The kBoundSlack headroom must never be load-bearing: no
        // achieved objective may land inside [bound, bound / kBoundSlack)
        // — that band existing non-empty would mean the *unslacked*
        // analytical floor exceeded a real mapping's score.
        EXPECT_GE(rec.objective * cost::kBoundSlack,
                  rec.objectiveLowerBound * (1.0 - 1e-12))
            << rec.arch.toString();
    }
}

TEST(DseObjective, BestUnderSkipsNonFiniteObjectives)
{
    DseResult r;
    DseRecord good;
    good.feasible = true;
    good.mc.dram = 10.0;
    good.delayGeo = 1.0;
    good.energyGeo = 1.0;
    DseRecord poisoned; // a degenerate eval: zero geomeans, inf objective
    poisoned.feasible = true;
    poisoned.mc.dram = 1.0;
    poisoned.delayGeo = 0.0;
    poisoned.energyGeo =
        std::numeric_limits<double>::infinity();
    DseRecord infeasible = good;
    infeasible.feasible = false;
    infeasible.mc.dram = 0.1;
    r.records = {poisoned, good, infeasible};
    EXPECT_EQ(r.bestUnder(1.0, 1.0, 1.0), 1);
}

TEST_F(SchedulerTest, CsvExportCarriesRungColumns)
{
    const DseResult r = runDse(options_);
    const CsvTable records = recordsTable(r);
    EXPECT_EQ(records.rowCount(), r.records.size());
    const std::string text = records.toString();
    EXPECT_NE(text.find("rung"), std::string::npos);
    EXPECT_NE(text.find("obj_lower_bound"), std::string::npos);
    EXPECT_NE(text.find("norm_edp"), std::string::npos);
    const std::string stats_text = rungStatsTable(r.stats).toString();
    EXPECT_NE(stats_text.find("screen"), std::string::npos);
    EXPECT_NE(stats_text.find("polish"), std::string::npos);
    EXPECT_TRUE(r.writeCsv("/tmp/gemini_dse_sched_records.csv",
                           "/tmp/gemini_dse_sched_rungs.csv"));
}

// ------------------------------------------------ bound-first screen ---

/**
 * A spec whose screen prunes: wider NoC/GLB/DRAM axes spread the lower
 * bounds far enough apart that many candidates cannot beat the best
 * stripe objective.
 */
class BoundFirstScreenTest : public SchedulerTest
{
  protected:
    BoundFirstScreenTest()
    {
        options_.axes.nocGBps = {8, 16, 32};
        options_.axes.glbKiB = {128, 256, 512};
        options_.axes.dramGBpsPerTops = {0.5, 2.0};
        options_.mapping.analyticSeed = true;
        options_.mapping.sa.plateauWindow = 12;
    }

    /**
     * A remote evaluator that mirrors the worker's evaluation semantics
     * (src/api/worker.cc) in process, counting screen requests.
     */
    RemoteEvaluator
    workerMirror(std::atomic<int> *screened) const
    {
        return [this, screened](const RemoteEvalRequest &rq) {
            RemoteEvalOutcome out;
            mapping::MappingOptions mo = options_.mapping;
            mo.saThreads = 1;
            if (rq.rung == 0) {
                mo.runSa = false;
                if (screened)
                    ++*screened;
            } else if (rq.rung >= 1) {
                mo.runSa = true;
                mo.sa.iterations = rq.iters;
                mo.sa.chains = rq.chains;
                mo.sa.seed = rq.seed;
            }
            for (std::size_t m = 0; m < options_.models.size(); ++m) {
                mapping::MappingEngine engine(*options_.models[m], *rq.arch,
                                              mo);
                mapping::MappingResult res =
                    rq.rung >= 1 ? engine.runFrom((*rq.warmStarts)[m])
                                 : engine.run();
                out.mappings.push_back(std::move(res.mapping));
                out.perModel.push_back(res.total);
                out.seededAnalytic = out.seededAnalytic || res.seededAnalytic;
                if (mo.runSa)
                    out.saIters += res.saStats.itersRun;
            }
            return out;
        };
    }

    /** The result as canonical JSON, minus the timing fields. */
    static std::string
    untimedJson(DseResult r)
    {
        for (DseRecord &rec : r.records)
            rec.evalSeconds = 0.0;
        for (DseRungStats &rs : r.stats.rungs)
            rs.cpuSeconds = 0.0;
        return api::dseResultToJson(r).canonical();
    }

    /** Stripe-only objectives of every candidate, evaluated directly. */
    std::vector<double>
    stripeObjectives() const
    {
        DseOptions flat = options_;
        flat.schedule.enabled = false;
        flat.mapping.runSa = false;
        const DseResult r = runDse(flat);
        std::vector<double> out;
        for (const DseRecord &rec : r.records)
            out.push_back(rec.feasible ? rec.objective
                                       : std::numeric_limits<double>::
                                             infinity());
        return out;
    }
};

TEST_F(BoundFirstScreenTest, PrunedRecordsAreCanonicalAtAnyThreadCount)
{
    options_.threads = 1;
    const DseResult serial = runDse(options_);
    ASSERT_GT(serial.stats.rungs[0].prunedBound, 0)
        << "the spec must prune for this test to mean anything";
    ASSERT_GT(serial.stats.rungs[0].advanced, 0);
    const std::string ref = untimedJson(serial);
    for (int threads : {2, 4}) {
        options_.threads = threads;
        EXPECT_EQ(untimedJson(runDse(options_)), ref)
            << "threads = " << threads;
    }

    for (const DseRecord &rec : serial.records) {
        if (!rec.prunedByBound)
            continue;
        // The shape of a record cancelled before evaluation...
        EXPECT_FALSE(rec.feasible);
        EXPECT_TRUE(std::isinf(rec.objective));
        EXPECT_TRUE(rec.perModel.empty());
        EXPECT_FALSE(rec.seededAnalytic);
        EXPECT_EQ(rec.delayGeo, 0.0);
        EXPECT_EQ(rec.energyGeo, 0.0);
        EXPECT_EQ(rec.rungReached, 0);
        EXPECT_EQ(rec.saIters, 0);
        // ...that keeps its MC and the bound that pruned it.
        EXPECT_GT(rec.mc.total(), 0.0);
        EXPECT_TRUE(std::isfinite(rec.objectiveLowerBound));
        EXPECT_GT(rec.objectiveLowerBound,
                  serial.stats.rungs[0].bestObjective);
    }
}

TEST_F(BoundFirstScreenTest, SurvivorsAreExactlyTheCandidatesTheBoundAdmits)
{
    const std::vector<double> stripe = stripeObjectives();
    const double best = *std::min_element(stripe.begin(), stripe.end());
    ASSERT_TRUE(std::isfinite(best));

    const DseResult r = runDse(options_);
    ASSERT_EQ(r.records.size(), stripe.size());
    // The screen's best is the independent stripe-only minimum: the
    // candidate achieving it is never skipped.
    EXPECT_EQ(r.stats.rungs[0].bestObjective, best);
    std::set<std::size_t> survivors, admitted;
    for (std::size_t i = 0; i < r.records.size(); ++i) {
        if (r.records[i].rungReached >= 1)
            survivors.insert(i);
        if (r.records[i].objectiveLowerBound <= best)
            admitted.insert(i);
        EXPECT_EQ(r.records[i].prunedByBound,
                  r.records[i].objectiveLowerBound > best)
            << "candidate " << i;
    }
    EXPECT_EQ(survivors, admitted);
    EXPECT_LT(survivors.size(), r.records.size());
    EXPECT_EQ(static_cast<int>(survivors.size()), r.stats.rungs[1].entered);
}

TEST_F(BoundFirstScreenTest, WorkerModeMatchesInProcessWhenPruning)
{
    const DseResult ref = runDse(options_);
    ASSERT_GT(ref.stats.rungs[0].prunedBound, 0);

    std::atomic<int> screened{0};
    DseOptions o = options_;
    o.execution = ExecutionMode::Workers;
    o.remoteEval = workerMirror(&screened);
    // One thread makes the skip set deterministic: screen tasks run in
    // bound order, each against the incumbent its predecessors left.
    o.threads = 1;
    const DseResult got = runDse(o);
    EXPECT_EQ(untimedJson(got), untimedJson(ref));
    // Every survivor was screened by a worker; skipped candidates never
    // reached one.
    EXPECT_GE(screened.load(), got.stats.rungs[0].advanced);
    EXPECT_LT(screened.load(), static_cast<int>(got.records.size()));
}

TEST_F(BoundFirstScreenTest, WorkerModeMatchesInProcessInExhaustiveShape)
{
    options_.schedule.enabled = false;
    const DseResult ref = runDse(options_);
    ASSERT_FALSE(ref.stats.scheduled);

    DseOptions o = options_;
    o.execution = ExecutionMode::Workers;
    o.remoteEval = workerMirror(nullptr);
    EXPECT_EQ(untimedJson(runDse(o)), untimedJson(ref));
}

// ------------------------------------------------------------- reuse ---

TEST(Dse, MultiChainSaSharesThreadBudget)
{
    // SA chains inside the mapping engine and the candidate-level pool
    // must split one budget; the run stays deterministic and no worse
    // than single-chain per candidate.
    dnn::Graph model = dnn::zoo::tinyConvChain(2);
    DseAxes axes;
    axes.topsTarget = 1.0;
    axes.xCuts = {1, 2};
    axes.yCuts = {1};
    axes.dramGBpsPerTops = {2.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {512};
    axes.macsPerCore = {256};

    DseOptions opt;
    opt.models = {&model};
    opt.mapping.batch = 2;
    opt.mapping.sa.iterations = 40;
    opt.mapping.sa.chains = 2;
    opt.threads = 2;
    opt.maxCandidates = 4;

    const DseResult r1 = runDse(opt);
    const DseResult r2 = runDse(opt);
    ASSERT_FALSE(r1.records.empty());
    ASSERT_EQ(r1.records.size(), r2.records.size());
    EXPECT_EQ(r1.bestIndex, r2.bestIndex);
    for (std::size_t i = 0; i < r1.records.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.records[i].objective, r2.records[i].objective);
        EXPECT_EQ(r1.records[i].perModel.size(), 1u);
    }
}

TEST(JointReuse, ScalePreservesChipletDesign)
{
    const arch::ArchConfig base = arch::gArch72(); // 2 chiplets, 72 TOPs
    const arch::ArchConfig big = scaleArchToTops(base, 288.0);
    EXPECT_EQ(big.chipletCoresX(), base.chipletCoresX());
    EXPECT_EQ(big.chipletCoresY(), base.chipletCoresY());
    EXPECT_EQ(big.macsPerCore, base.macsPerCore);
    EXPECT_EQ(big.glbKiB, base.glbKiB);
    EXPECT_NEAR(big.tops(), 288.0, 288.0 * 0.15);
    // DRAM GB/s per TOPs preserved.
    EXPECT_NEAR(big.dramBwGBps / big.tops(),
                base.dramBwGBps / base.tops(), 1e-9);
}

TEST(JointReuse, ScaleDownToSingleChiplet)
{
    const arch::ArchConfig base = arch::gArch72();
    const arch::ArchConfig half = scaleArchToTops(base, 36.0);
    EXPECT_EQ(half.chipletCount(), 1);
    EXPECT_TRUE(half.validate().empty());
}

TEST(JointReuse, JointDseRanksByProduct)
{
    dnn::Graph model = dnn::zoo::tinyConvChain(2);
    DseAxes axes;
    axes.topsTarget = 1.0;
    axes.xCuts = {1, 2};
    axes.yCuts = {1};
    axes.dramGBpsPerTops = {2.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {512};
    axes.macsPerCore = {256};

    DseOptions opt;
    opt.models = {&model};
    opt.mapping.batch = 2;
    opt.mapping.sa.iterations = 40;
    opt.threads = 2;

    const auto cands = runJointDse(axes, {1.0, 2.0}, opt);
    ASSERT_GE(cands.size(), 2u);
    for (std::size_t i = 1; i < cands.size(); ++i) {
        if (cands[i - 1].feasible == cands[i].feasible)
            EXPECT_LE(cands[i - 1].objectiveProduct,
                      cands[i].objectiveProduct);
        ASSERT_EQ(cands[i].levels.size(), 2u);
    }
}

} // namespace
} // namespace gemini::dse
