/**
 * @file
 * Unit tests for the LP SPM analyzer and evaluator: traffic generation for
 * in-group and cross-group dependencies, weight multicast and residency,
 * DRAM interleaving, pipeline depth and the fill/drain delay model.
 */

#include <gtest/gtest.h>

#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/cost/cost_stack.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {
namespace {

class AnalyzerTest : public ::testing::Test
{
  protected:
    AnalyzerTest()
        : graph_(dnn::zoo::tinyConvChain(4)), arch_(makeArch()),
          noc_(arch_),
          explorer_(arch_.macsPerCore, arch_.glbBytes(), arch_.freqGHz),
          energy_(arch_), analyzer_(graph_, arch_, noc_, explorer_)
    {
    }

    static arch::ArchConfig
    makeArch()
    {
        arch::ArchConfig a = arch::tinyArch();
        a.xCores = 3;
        a.yCores = 2;
        a.glbKiB = 1024;
        return a;
    }

    static DramSel
    interleavedLookup(LayerId)
    {
        return kDramInterleaved;
    }

    LayerGroupMapping
    wholeGraphGroup(std::int64_t bu)
    {
        std::vector<LayerId> layers;
        for (std::size_t i = 0; i < graph_.size(); ++i)
            layers.push_back(static_cast<LayerId>(i));
        return stripeMapping(graph_, arch_, layers, bu);
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
    noc::InterconnectModel noc_;
    intracore::Explorer explorer_;
    cost::CostStack energy_;
    Analyzer analyzer_;
};

TEST_F(AnalyzerTest, ProducesTrafficAndCosts)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    EXPECT_EQ(a.numUnits, 4);
    EXPECT_GT(a.maxStageSeconds, 0.0);
    EXPECT_GT(a.coreEnergyPerUnit, 0.0);
    EXPECT_FALSE(a.traffic.empty());
    // A 5-layer chain mapped whole is a depth-5 pipeline.
    EXPECT_EQ(a.pipelineDepth, 5);
}

TEST_F(AnalyzerTest, DramBytesCoverInputWeightsOutput)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    double dram = 0.0;
    for (double d : a.dramBytesPerUnit)
        dram += d;
    // At least the network input (16x32x32) plus the final gap output must
    // move per unit.
    EXPECT_GT(dram, 16.0 * 32 * 32);
}

TEST_F(AnalyzerTest, InterleaveSplitsAcrossDrams)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    ASSERT_EQ(a.dramBytesPerUnit.size(), 2u);
    // Interleaved flows split exactly evenly.
    EXPECT_NEAR(a.dramBytesPerUnit[0], a.dramBytesPerUnit[1],
                a.dramBytesPerUnit[0] * 1e-9);
}

TEST_F(AnalyzerTest, SpecificDramDirectsTraffic)
{
    LayerGroupMapping g = wholeGraphGroup(1);
    for (auto &ms : g.schemes) {
        if (ms.fd.ifmap >= 0)
            ms.fd.ifmap = 1;
        if (ms.fd.weight >= 0)
            ms.fd.weight = 1;
        if (ms.fd.ofmap >= 0)
            ms.fd.ofmap = 1;
    }
    const GroupAnalysis a =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    EXPECT_GT(a.dramBytesPerUnit[0], 0.0);
    EXPECT_DOUBLE_EQ(a.dramBytesPerUnit[1], 0.0);
}

TEST_F(AnalyzerTest, InterLayerLinkCarriesExactVolume)
{
    // Two chained convs on adjacent cores 0 and 1. DRAM flows are pinned
    // to specific stacks whose routes avoid the (0 -> 1) link, so that
    // link carries exactly the inter-layer dependency volume.
    LayerGroupMapping g;
    g.batchUnit = 1;
    g.layers = {0, 1};
    MappingScheme m0;
    m0.coreGroup = {0};
    m0.fd = {/*ifmap=*/1, /*weight=*/1, kDramUnmanaged}; // west DRAM
    MappingScheme m1;
    m1.coreGroup = {1};
    m1.fd = {kDramUnmanaged, /*weight=*/2, /*ofmap=*/2}; // east DRAM
    g.schemes = {m0, m1};
    const GroupAnalysis split =
        analyzer_.analyzeGroup(g, 1, interleavedLookup);

    const dnn::Layer &l1 = graph_.layer(1);
    const double inter = static_cast<double>(l1.c * l1.ih * l1.iw);
    EXPECT_DOUBLE_EQ(split.traffic.at(0, 1), inter);
    // And nothing flows backwards on that row segment.
    EXPECT_DOUBLE_EQ(split.traffic.at(1, 0), 0.0);
}

TEST_F(AnalyzerTest, CrossGroupReadsProducerDram)
{
    // Group containing only layer 1; its producer (layer 0) is mapped
    // elsewhere and stored its ofmap in DRAM 2.
    LayerGroupMapping g;
    g.batchUnit = 1;
    g.layers = {1};
    MappingScheme ms;
    ms.coreGroup = {0};
    ms.fd = {kDramUnmanaged, kDramInterleaved, kDramInterleaved};
    g.schemes = {ms};
    const GroupAnalysis a = analyzer_.analyzeGroup(
        g, 1, [](LayerId producer) -> DramSel {
            EXPECT_EQ(producer, 0);
            return 2;
        });
    // The ifmap now flows from DRAM 2 (east): its per-unit bytes include
    // the full 32-channel ifmap.
    EXPECT_GT(a.dramBytesPerUnit[1],
              static_cast<double>(graph_.layer(1).ifmapVolume()) * 0.99);
}

TEST_F(AnalyzerTest, WeightResidencyAmortizes)
{
    // Weights fit easily in 1 MiB GLB: per-unit weight DRAM traffic must
    // shrink as numUnits grows.
    LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a1 =
        analyzer_.analyzeGroup(g, 1, interleavedLookup);
    const GroupAnalysis a8 =
        analyzer_.analyzeGroup(g, 8, interleavedLookup);
    double d1 = 0, d8 = 0;
    for (double d : a1.dramBytesPerUnit)
        d1 += d;
    for (double d : a8.dramBytesPerUnit)
        d8 += d;
    EXPECT_LT(d8, d1);
}

TEST_F(AnalyzerTest, PipelineDepthOfParallelBranches)
{
    const dnn::Graph res = dnn::zoo::tinyResidual();
    Analyzer an(res, arch_, noc_, explorer_);
    std::vector<LayerId> layers;
    for (std::size_t i = 0; i < res.size(); ++i)
        layers.push_back(static_cast<LayerId>(i));
    const LayerGroupMapping g = stripeMapping(res, arch_, layers, 1);
    const GroupAnalysis a = an.analyzeGroup(g, 1, interleavedLookup);
    // stem -> conv1 -> conv2 -> add -> head = depth 5 (proj branch is
    // shorter).
    EXPECT_EQ(a.pipelineDepth, 5);
}

TEST_F(AnalyzerTest, EvaluateFillDrainModel)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a4 =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    const eval::EvalBreakdown b4 = analyzer_.evaluate(a4, energy_);
    const GroupAnalysis a8 =
        analyzer_.analyzeGroup(g, 8, interleavedLookup);
    const eval::EvalBreakdown b8 = analyzer_.evaluate(a8, energy_);
    // Doubling the batch should not double the delay thanks to weight
    // amortization, but it must increase it and keep the fill/drain
    // relationship: delay ~ (U + depth - 1) * t.
    EXPECT_GT(b8.delay, b4.delay);
    EXPECT_LT(b8.delay, 2.0 * b4.delay * 1.01);
    EXPECT_GT(b8.totalEnergy(), b4.totalEnergy());
}

TEST_F(AnalyzerTest, EvaluateBreakdownComponentsPositive)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a =
        analyzer_.analyzeGroup(g, 4, interleavedLookup);
    const eval::EvalBreakdown b = analyzer_.evaluate(a, energy_);
    EXPECT_GT(b.intraTileEnergy, 0.0);
    EXPECT_GT(b.nocEnergy, 0.0);
    EXPECT_GT(b.dramEnergy, 0.0);
    EXPECT_GT(b.dramBytes, 0.0);
    EXPECT_GT(b.hopBytes, 0.0);
    // Monolithic tiny arch: no D2D energy.
    EXPECT_DOUBLE_EQ(b.d2dEnergy, 0.0);
    EXPECT_TRUE(b.feasible());
}

TEST_F(AnalyzerTest, ChipletArchHasD2dEnergy)
{
    arch::ArchConfig split = arch_;
    split.xCut = 3; // 3 chiplets of 1x2 cores
    noc::InterconnectModel noc2(split);
    intracore::Explorer ex2(split.macsPerCore, split.glbBytes(),
                            split.freqGHz);
    cost::CostStack em2(split);
    Analyzer an2(graph_, split, noc2, ex2);
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a = an2.analyzeGroup(g, 4, interleavedLookup);
    const eval::EvalBreakdown b = an2.evaluate(a, em2);
    EXPECT_GT(b.d2dEnergy, 0.0);
    EXPECT_GT(b.d2dHopBytes, 0.0);
}

TEST_F(AnalyzerTest, GlbOverflowFlagsInfeasible)
{
    arch::ArchConfig tiny = arch_;
    tiny.glbKiB = 1; // 1 KiB: nothing fits
    noc::InterconnectModel noc2(tiny);
    intracore::Explorer ex2(tiny.macsPerCore, tiny.glbBytes(),
                            tiny.freqGHz);
    cost::CostStack em2(tiny);
    Analyzer an2(graph_, tiny, noc2, ex2);
    const LayerGroupMapping g = wholeGraphGroup(1);
    const GroupAnalysis a = an2.analyzeGroup(g, 4, interleavedLookup);
    EXPECT_GT(a.glbOverflow, 0.0);
    const eval::EvalBreakdown b = an2.evaluate(a, em2);
    EXPECT_FALSE(b.feasible());
}

TEST_F(AnalyzerTest, CachedAnalysisIsIdenticalToUncached)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    Analyzer uncached(graph_, arch_, noc_, explorer_);
    intracore::Explorer ex2(arch_.macsPerCore, arch_.glbBytes(),
                            arch_.freqGHz);
    Analyzer cached(graph_, arch_, noc_, ex2);
    cached.setCacheCapacity(256);

    const GroupAnalysis ref =
        uncached.analyzeGroup(g, 4, interleavedLookup);
    // Twice: the second call must come out of the group cache.
    cached.analyzeGroup(g, 4, interleavedLookup);
    const GroupAnalysis hit = cached.analyzeGroup(g, 4, interleavedLookup);
    EXPECT_EQ(cached.cacheHits(), 1u);
    EXPECT_EQ(cached.cacheMisses(), 1u);

    EXPECT_DOUBLE_EQ(hit.maxStageSeconds, ref.maxStageSeconds);
    EXPECT_DOUBLE_EQ(hit.coreEnergyPerUnit, ref.coreEnergyPerUnit);
    EXPECT_DOUBLE_EQ(hit.glbOverflow, ref.glbOverflow);
    EXPECT_EQ(hit.pipelineDepth, ref.pipelineDepth);
    EXPECT_EQ(hit.numUnits, ref.numUnits);
    ASSERT_EQ(hit.dramBytesPerUnit.size(), ref.dramBytesPerUnit.size());
    for (std::size_t d = 0; d < ref.dramBytesPerUnit.size(); ++d)
        EXPECT_DOUBLE_EQ(hit.dramBytesPerUnit[d], ref.dramBytesPerUnit[d]);
    // Traffic maps must agree link for link, both directions.
    EXPECT_EQ(hit.traffic.linkCount(), ref.traffic.linkCount());
    for (const auto &[key, bytes] : ref.traffic.links()) {
        EXPECT_DOUBLE_EQ(hit.traffic.at(noc::linkFrom(key),
                                        noc::linkTo(key)),
                         bytes);
    }
}

TEST_F(AnalyzerTest, CacheKeyCoversProducerDramAndBatch)
{
    // Same group, different resolved producer DRAM or batch: must NOT
    // share a cache entry.
    LayerGroupMapping g;
    g.batchUnit = 1;
    g.layers = {1};
    MappingScheme ms;
    ms.coreGroup = {0};
    ms.fd = {kDramUnmanaged, kDramInterleaved, kDramInterleaved};
    g.schemes = {ms};

    analyzer_.setCacheCapacity(256);
    const GroupAnalysis from1 = analyzer_.analyzeGroup(
        g, 1, [](LayerId) -> DramSel { return 1; });
    const GroupAnalysis from2 = analyzer_.analyzeGroup(
        g, 1, [](LayerId) -> DramSel { return 2; });
    EXPECT_EQ(analyzer_.cacheMisses(), 2u);
    // The cross-group ifmap moved from DRAM 1 to DRAM 2 (weights stay
    // interleaved): the per-stack distribution must shift accordingly.
    EXPECT_GT(from1.dramBytesPerUnit[0], from2.dramBytesPerUnit[0]);
    EXPECT_LT(from1.dramBytesPerUnit[1], from2.dramBytesPerUnit[1]);

    analyzer_.analyzeGroup(g, 2, [](LayerId) -> DramSel { return 1; });
    EXPECT_EQ(analyzer_.cacheMisses(), 3u); // batch is key input
    analyzer_.setCacheCapacity(0);
}

TEST_F(AnalyzerTest, CacheCapacityBoundsEntries)
{
    LayerGroupMapping g = wholeGraphGroup(1);
    analyzer_.setCacheCapacity(2);
    for (std::int64_t batch = 1; batch <= 8; ++batch)
        analyzer_.analyzeGroup(g, batch, interleavedLookup);
    EXPECT_LE(analyzer_.cacheSize(), 2u);
    EXPECT_GT(analyzer_.cacheEvictions(), 0u);
    analyzer_.setCacheCapacity(0);
    EXPECT_EQ(analyzer_.cacheSize(), 0u);
}

TEST_F(AnalyzerTest, EvaluateGroupMatchesAnalyzeThenEvaluate)
{
    const LayerGroupMapping g = wholeGraphGroup(1);
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{256}}) {
        intracore::Explorer ex2(arch_.macsPerCore, arch_.glbBytes(),
                                arch_.freqGHz);
        Analyzer an(graph_, arch_, noc_, ex2);
        an.setCacheCapacity(capacity);
        const eval::EvalBreakdown slow = an.evaluate(
            an.analyzeGroup(g, 4, interleavedLookup), energy_);
        const eval::EvalBreakdown fast =
            an.evaluateGroup(g, 4, interleavedLookup, energy_);
        EXPECT_NEAR(fast.delay, slow.delay, 1e-12 * slow.delay);
        EXPECT_NEAR(fast.totalEnergy(), slow.totalEnergy(),
                    1e-12 * slow.totalEnergy());
        EXPECT_NEAR(fast.dramBytes, slow.dramBytes,
                    1e-9 * slow.dramBytes);
        EXPECT_NEAR(fast.hopBytes, slow.hopBytes, 1e-9 * slow.hopBytes);
        EXPECT_DOUBLE_EQ(fast.glbOverflow, slow.glbOverflow);
        if (capacity > 0) {
            // Second call must be a pure eval-cache hit with identical
            // bits.
            const eval::EvalBreakdown hit =
                an.evaluateGroup(g, 4, interleavedLookup, energy_);
            EXPECT_EQ(an.evalCacheHits(), 1u);
            EXPECT_DOUBLE_EQ(hit.delay, fast.delay);
            EXPECT_DOUBLE_EQ(hit.totalEnergy(), fast.totalEnergy());
        }
    }
}

TEST_F(AnalyzerTest, EvalCacheBindsCostStack)
{
    // Same group state evaluated under two different cost stacks must
    // not share an eval-cache entry.
    const LayerGroupMapping g = wholeGraphGroup(1);
    analyzer_.setCacheCapacity(256);
    arch::TechParams expensive;
    expensive.dramJPerByte *= 10.0;
    const cost::CostStack costly(arch_, expensive);
    const eval::EvalBreakdown base =
        analyzer_.evaluateGroup(g, 4, interleavedLookup, energy_);
    const eval::EvalBreakdown high =
        analyzer_.evaluateGroup(g, 4, interleavedLookup, costly);
    EXPECT_GT(high.dramEnergy, base.dramEnergy * 5.0);
    EXPECT_EQ(analyzer_.evalCacheMisses(), 2u);
    analyzer_.setCacheCapacity(0);
}

TEST_F(AnalyzerTest, MatmulGroupAnalyzes)
{
    const dnn::Graph tf = dnn::zoo::tinyTransformer(32, 32, 2, 1);
    Analyzer an(tf, arch_, noc_, explorer_);
    std::vector<LayerId> layers;
    for (std::size_t i = 0; i < tf.size(); ++i)
        layers.push_back(static_cast<LayerId>(i));
    // Group at most 6 layers onto 6 cores.
    layers.resize(6);
    const LayerGroupMapping g = stripeMapping(tf, arch_, layers, 1);
    const GroupAnalysis a = an.analyzeGroup(g, 2, interleavedLookup);
    EXPECT_GT(a.maxStageSeconds, 0.0);
    EXPECT_GT(a.coreEnergyPerUnit, 0.0);
}

} // namespace
} // namespace gemini::mapping
