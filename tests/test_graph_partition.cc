/**
 * @file
 * Unit tests for the DP graph partitioner: full coverage of the graph,
 * contiguity, batch-unit selection, segment caps, and that latency-driven
 * runs (batch 1) prefer shallower pipelines than throughput runs.
 */

#include <gtest/gtest.h>

#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/cost/cost_stack.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/graph_partition.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {
namespace {

class PartitionTest : public ::testing::Test
{
  protected:
    PartitionTest()
        : graph_(dnn::zoo::tinyConvChain(6)), arch_(makeArch()),
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
        return a;
    }

    LpMapping
    partition(std::int64_t batch, int max_layers)
    {
        PartitionOptions o;
        o.batch = batch;
        o.maxGroupLayers = max_layers;
        return partitionGraph(graph_, arch_, analyzer_, energy_, o);
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
    noc::InterconnectModel noc_;
    intracore::Explorer explorer_;
    cost::CostStack energy_;
    Analyzer analyzer_;
};

TEST_F(PartitionTest, CoversEveryLayerExactlyOnce)
{
    const LpMapping m = partition(8, 4);
    EXPECT_EQ(checkMappingValid(graph_, arch_, m), "");
    std::size_t covered = 0;
    for (const auto &g : m.groups)
        covered += g.layers.size();
    EXPECT_EQ(covered, graph_.size());
}

TEST_F(PartitionTest, GroupsAreContiguousSegments)
{
    const LpMapping m = partition(8, 4);
    LayerId expect = 0;
    for (const auto &g : m.groups) {
        for (LayerId l : g.layers)
            EXPECT_EQ(l, expect++);
    }
}

TEST_F(PartitionTest, RespectsSegmentCap)
{
    const LpMapping m = partition(8, 2);
    for (const auto &g : m.groups)
        EXPECT_LE(g.layers.size(), 2u);
}

TEST_F(PartitionTest, BatchUnitsDivideBatch)
{
    const LpMapping m = partition(12, 4);
    for (const auto &g : m.groups)
        EXPECT_EQ(12 % g.batchUnit, 0) << g.batchUnit;
}

TEST_F(PartitionTest, BatchOnePipelinesLessDeep)
{
    // With batch 1, fill/drain dominates: average group depth should not
    // exceed the throughput case.
    const LpMapping lat = partition(1, 6);
    const LpMapping thr = partition(16, 6);
    const double avg_lat =
        static_cast<double>(graph_.size()) / lat.groups.size();
    const double avg_thr =
        static_cast<double>(graph_.size()) / thr.groups.size();
    EXPECT_LE(avg_lat, avg_thr + 1e-9);
}

TEST_F(PartitionTest, DefaultBatchUnitsAreDivisors)
{
    const auto units = defaultBatchUnits(64);
    for (auto u : units) {
        EXPECT_EQ(64 % u, 0);
        EXPECT_LE(u, 16);
    }
    EXPECT_EQ(defaultBatchUnits(1), (std::vector<std::int64_t>{1}));
    // A prime batch still yields unit 1.
    const auto prime = defaultBatchUnits(13);
    EXPECT_EQ(prime.front(), 1);
}

TEST_F(PartitionTest, BranchyGraphPartitionsValidly)
{
    const dnn::Graph res = dnn::zoo::tinyResidual();
    Analyzer an(res, arch_, noc_, explorer_);
    PartitionOptions o;
    o.batch = 4;
    o.maxGroupLayers = 3;
    const LpMapping m = partitionGraph(res, arch_, an, energy_, o);
    EXPECT_EQ(checkMappingValid(res, arch_, m), "");
}

TEST_F(PartitionTest, StarvedDramForcesLayerPipelining)
{
    // The core LP-mapping motivation: when intermediate fmaps cannot
    // afford the DRAM round trip (here: DRAM bandwidth cut 100x), the DP
    // must fuse layers into pipelined groups to keep traffic on-chip.
    const dnn::Graph g = dnn::zoo::tinyConvChain(10);
    arch::ArchConfig big = arch::simbaArch();
    big.dramBwGBps = 1.0;
    noc::InterconnectModel noc(big);
    intracore::Explorer ex(big.macsPerCore, big.glbBytes(), big.freqGHz);
    cost::CostStack em(big);
    Analyzer an(g, big, noc, ex);
    PartitionOptions o;
    o.batch = 8;
    o.maxGroupLayers = 11;
    const LpMapping m = partitionGraph(g, big, an, em, o);
    EXPECT_EQ(checkMappingValid(g, big, m), "");
    std::size_t max_group = 0;
    for (const auto &grp : m.groups)
        max_group = std::max(max_group, grp.layers.size());
    EXPECT_GE(max_group, 2u);
}

} // namespace
} // namespace gemini::mapping
