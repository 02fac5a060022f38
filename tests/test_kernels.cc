/**
 * @file
 * Unit tests of the hot-path infrastructure: the evaluation kernels
 * against hand-computed expectations and an independent per-element
 * reference (odd sizes included), the SmallVec small-buffer container,
 * the bump arena, cpulist parsing / NUMA topology detection, the
 * topology-aware thread pool's worker arenas, and the SA operators'
 * SchemeUndoLog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/rng.hh"
#include "src/common/small_vec.hh"
#include "src/common/thread_pool.hh"
#include "src/mapping/kernels.hh"
#include "src/mapping/operators.hh"

using namespace gemini;
namespace kernels = gemini::mapping::kernels;

namespace {

/** Empty, odd and even sizes, short and long. */
const std::size_t kSizes[] = {0, 1, 2, 3,  4,  5,  7,   8,
                              9, 15, 16, 17, 31, 33, 100, 257};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double>
randomDoubles(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &x : v) {
        // Mixed magnitudes, signs, and exact zeros: the interesting
        // cases for the max semantics and rounding.
        const double mag = rng.nextDouble() * 1e6 - 5e5;
        x = rng.nextBool(0.1) ? 0.0 : mag;
    }
    return v;
}

/** Same value and same sign bit (EXPECT_EQ treats -0.0 == +0.0). */
void
expectSameBits(double got, double want, const char *what)
{
    EXPECT_EQ(got, want) << what;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << what;
}

// The kernels are checked against hand-computed results that pin the
// semantics the delta path relies on, and against a per-element
// reference for random inputs of every size in kSizes.

TEST(KernelDifferential, AccumulateBitIdentical)
{
    std::vector<double> dst = {1.5, -2.0, 0.25, -0.0, 1e308};
    const std::vector<double> src = {0.5, 2.0, -0.25, 0.0, 1e308};
    kernels::accumulate(dst.data(), src.data(), dst.size());
    expectSameBits(dst[0], 2.0, "1.5 + 0.5");
    expectSameBits(dst[1], 0.0, "-2 + 2");
    expectSameBits(dst[2], 0.0, "0.25 - 0.25");
    expectSameBits(dst[3], 0.0, "-0 + +0");
    EXPECT_EQ(dst[4], std::numeric_limits<double>::infinity());

    Rng rng(0xACC0ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> add = randomDoubles(rng, n);
        std::vector<double> acc = randomDoubles(rng, n);
        std::vector<double> want = acc;
        for (std::size_t i = 0; i < n; ++i)
            want[i] = want[i] + add[i];
        kernels::accumulate(acc.data(), add.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(acc[i], want[i]) << "n=" << n << " i=" << i;
    }
}

TEST(KernelDifferential, MaxOfBitIdentical)
{
    const std::vector<double> odd = {3.0, 7.0, 7.0, 2.0, 1.0};
    EXPECT_EQ(kernels::maxOf(odd.data(), odd.size()), 7.0);
    // (x > acc) is false for NaN, so NaNs are skipped wherever they sit.
    const std::vector<double> nan = {kNaN, 1.0, kNaN};
    EXPECT_EQ(kernels::maxOf(nan.data(), nan.size()), 1.0);
    expectSameBits(kernels::maxOf(nullptr, 0), 0.0, "empty");

    Rng rng(0x3A10ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> x = randomDoubles(rng, n);
        double want = 0.0;
        for (double v : x)
            want = std::max(want, v);
        EXPECT_EQ(kernels::maxOf(x.data(), n), want) << "n=" << n;
    }
}

TEST(KernelDifferential, MaxOfSeedsWithPositiveZero)
{
    // The fold seeds with 0.0 and uses (x > acc) strictly: an
    // all-negative (or all -0.0) input must return +0.0, not the
    // largest negative element.
    const std::vector<double> neg = {-1.0, -5.0, -0.0, -2.5};
    expectSameBits(kernels::maxOf(neg.data(), neg.size()), 0.0,
                   "all negative");
    const std::vector<double> zeros = {-0.0, -0.0, -0.0};
    expectSameBits(kernels::maxOf(zeros.data(), zeros.size()), 0.0,
                   "all -0.0");
}

TEST(KernelDifferential, SecondsFromKindsBitIdentical)
{
    // Exact quotients: any kind byte other than 0 selects the D2D rate.
    const double noc_bps = 4e9;
    const double d2d_bps = 2e9;
    const std::vector<double> bytes = {8e9, 8e9, 8e9, 6e9, 0.0};
    const std::vector<std::uint8_t> kind = {0, 1, 255, 1, 0};
    std::vector<double> secs(bytes.size(), -1.0);
    kernels::secondsFromKinds(secs.data(), bytes.data(), kind.data(),
                              noc_bps, d2d_bps, bytes.size());
    EXPECT_EQ(secs, (std::vector<double>{2.0, 4.0, 4.0, 3.0, 0.0}));
    // The fused max prices each link at its own rate before comparing.
    const std::uint8_t two_kinds[] = {0, 1};
    const double two_bytes[] = {8e9, 6e9};
    EXPECT_EQ(kernels::maxSeconds(two_bytes, two_kinds, noc_bps, d2d_bps, 2),
              3.0);
    EXPECT_EQ(kernels::maxSeconds(bytes.data(), kind.data(), noc_bps,
                                  d2d_bps, bytes.size()),
              4.0);
    expectSameBits(kernels::maxSeconds(nullptr, nullptr, noc_bps, d2d_bps, 0),
                   0.0, "empty");

    Rng rng(0x5EC0ull);
    const double noc_rand = 256.0e9;
    const double d2d_rand = 100.1e9; // deliberately not a power of two
    for (std::size_t n : kSizes) {
        std::vector<double> b(n);
        std::vector<std::uint8_t> k(n);
        for (std::size_t i = 0; i < n; ++i) {
            b[i] = rng.nextDouble() * 1e9;
            k[i] = static_cast<std::uint8_t>(rng.nextBool(0.5) ? 1 : 0);
        }
        std::vector<double> got(n, -1.0);
        kernels::secondsFromKinds(got.data(), b.data(), k.data(), noc_rand,
                                  d2d_rand, n);
        double want_max = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double want = k[i] ? b[i] / d2d_rand : b[i] / noc_rand;
            ASSERT_EQ(got[i], want) << "n=" << n << " i=" << i;
            want_max = std::max(want_max, want);
        }
        EXPECT_EQ(kernels::maxSeconds(b.data(), k.data(), noc_rand,
                                      d2d_rand, n),
                  want_max)
            << "n=" << n;
    }
}

TEST(KernelDifferential, PairMaxBitIdentical)
{
    // std::max's (a < b) ? b : a: ties and signed zeros keep the first
    // child, and a NaN first child propagates while a NaN second does not.
    const std::vector<double> children = {2.0, 3.0, 3.0,  2.0, 0.0,
                                          -0.0, -0.0, 0.0, 1.0, kNaN,
                                          kNaN, 1.0};
    std::vector<double> parent(children.size() / 2, -1.0);
    kernels::pairMax(parent.data(), children.data(), parent.size());
    expectSameBits(parent[0], 3.0, "(2, 3)");
    expectSameBits(parent[1], 3.0, "(3, 2)");
    expectSameBits(parent[2], 0.0, "(+0, -0)");
    expectSameBits(parent[3], -0.0, "(-0, +0)");
    expectSameBits(parent[4], 1.0, "(1, NaN)");
    EXPECT_TRUE(std::isnan(parent[5])) << "(NaN, 1)";

    Rng rng(0x9A13ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> c = randomDoubles(rng, 2 * n);
        std::vector<double> got(n, -1.0);
        kernels::pairMax(got.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], std::max(c[2 * i], c[2 * i + 1]))
                << "n=" << n << " i=" << i;
    }
}

TEST(KernelDifferential, LinkSlotsBitIdentical)
{
    const std::uint64_t nodes = 1u << 24; // the accumulator's kMaxNodes
    const noc::NodeId last = static_cast<noc::NodeId>(nodes - 1);
    const std::vector<std::pair<noc::LinkKey, double>> links = {
        {noc::makeLink(0, 5), 1.0},
        {noc::makeLink(1, 0), 1.0},
        {noc::makeLink(123456, 654321), 1.0},
        {noc::makeLink(last, 0), 1.0},
        {noc::makeLink(last, last), 1.0},
    };
    std::vector<std::uint64_t> slots(links.size(), 0);
    kernels::linkSlots(slots.data(), links.data(), nodes, links.size());
    EXPECT_EQ(slots, (std::vector<std::uint64_t>{
                         5ull, 16777216ull, 2071248632817ull,
                         281474959933440ull, 281474976710655ull}));

    Rng rng(0x11A5ull);
    for (std::size_t n : kSizes) {
        std::vector<std::pair<noc::LinkKey, double>> l(n);
        for (auto &[key, bytes] : l) {
            const auto from = static_cast<noc::NodeId>(
                rng.nextInt(static_cast<std::int64_t>(nodes)));
            const auto to = static_cast<noc::NodeId>(
                rng.nextInt(static_cast<std::int64_t>(nodes)));
            key = noc::makeLink(from, to);
            bytes = rng.nextDouble();
        }
        std::vector<std::uint64_t> got(n, 1);
        kernels::linkSlots(got.data(), l.data(), nodes, n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t want =
                static_cast<std::uint64_t>(noc::linkFrom(l[i].first)) *
                    nodes +
                static_cast<std::uint64_t>(noc::linkTo(l[i].first));
            ASSERT_EQ(got[i], want) << "n=" << n << " i=" << i;
        }
    }
}

TEST(ParseCpuList, CoversRangesSinglesAndJunk)
{
    using V = std::vector<int>;
    EXPECT_EQ(parseCpuList("0-3,8,10-11"), (V{0, 1, 2, 3, 8, 10, 11}));
    EXPECT_EQ(parseCpuList("4\n"), (V{4}));
    EXPECT_EQ(parseCpuList(""), V{});
    EXPECT_EQ(parseCpuList("garbage"), V{});
    EXPECT_EQ(parseCpuList("3,1,2"), (V{1, 2, 3}));   // sorted
    EXPECT_EQ(parseCpuList("1,1,1-2"), (V{1, 2}));    // deduplicated
    EXPECT_EQ(parseCpuList("5-3"), V{});              // empty range skipped
    EXPECT_EQ(parseCpuList(" 0-1 , 7 \n"), (V{0, 1, 7}));
}

TEST(NumaTopology, DetectionNeverReportsZeroNodes)
{
    const NumaTopology topo = detectNumaTopology();
    ASSERT_GE(topo.nodeCount(), 1u);
    EXPECT_GE(topo.cpuCount(), 1u);
    for (const auto &node : topo.nodeCpus)
        EXPECT_FALSE(node.empty());
}

TEST(ThreadPoolNuma, WorkerArenasAreNodeLocalAndUsable)
{
    // Off-pool threads (this one) have no worker arena.
    EXPECT_EQ(ThreadPool::workerArena(), nullptr);

    ThreadPool::Options opts;
    opts.threads = 3;
    ThreadPool pool(opts);
    EXPECT_EQ(pool.threadCount(), 3u);
    ASSERT_GE(pool.numaNodeCount(), 1u);
    EXPECT_LE(pool.pinnedWorkers(), pool.threadCount());
    if (pool.numaNodeCount() == 1) {
        // Single-node hosts must skip pinning entirely.
        EXPECT_EQ(pool.pinnedWorkers(), 0u);
    }
    for (std::size_t w = 0; w < pool.threadCount(); ++w)
        EXPECT_LT(pool.workerNode(w), pool.numaNodeCount());

    // Every task sees a usable arena; distinct workers see distinct ones.
    std::mutex mu;
    std::set<common::BumpArena *> arenas;
    std::atomic<int> failures{0};
    pool.parallelFor(64, [&](std::size_t i) {
        common::BumpArena *arena = ThreadPool::workerArena();
        if (arena == nullptr) {
            ++failures;
            return;
        }
        auto span = arena->allocSpan<double>(16);
        span[0] = static_cast<double>(i);
        if (span.size() != 16)
            ++failures;
        std::lock_guard lock(mu);
        arenas.insert(arena);
    });
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(arenas.size(), 1u);
    EXPECT_LE(arenas.size(), pool.threadCount());
}

TEST(ThreadPoolNuma, SizeTCompatConstructorStillWorks)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.threadCount(), 2u);
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(BumpArenaTest, ResetRetainsChunksAndCountsEvents)
{
    common::BumpArena arena(4096);
    EXPECT_EQ(arena.allocEvents(), 0u);
    auto s1 = arena.allocSpan<std::uint64_t>(64);
    s1[0] = 42;
    const std::uint64_t events = arena.allocEvents();
    EXPECT_GE(events, 1u);
    arena.reset();
    // Same-size reallocation after reset reuses the retained chunk: no
    // new allocation events — the zero-steady-state-alloc invariant the
    // delta-evaluation hot path depends on.
    auto s2 = arena.allocSpan<std::uint64_t>(64);
    EXPECT_EQ(s2.data(), s1.data());
    EXPECT_EQ(arena.allocEvents(), events);
}

TEST(SmallVecTest, InlineThenSpillKeepsContents)
{
    common::SmallVec<std::pair<std::uint64_t, double>, 4> v;
    EXPECT_TRUE(v.empty());
    for (std::uint64_t i = 0; i < 12; ++i)
        v.push_back({i, static_cast<double>(i) * 0.5});
    ASSERT_EQ(v.size(), 12u);
    for (std::uint64_t i = 0; i < 12; ++i) {
        EXPECT_EQ(v[i].first, i);
        EXPECT_EQ(v[i].second, static_cast<double>(i) * 0.5);
    }

    // Copy, move, and equality across the inline/heap boundary.
    common::SmallVec<std::pair<std::uint64_t, double>, 4> copy = v;
    EXPECT_TRUE(copy == v);
    common::SmallVec<std::pair<std::uint64_t, double>, 4> moved =
        std::move(copy);
    EXPECT_TRUE(moved == v);

    v.clear();
    EXPECT_TRUE(v.empty());
    v.assign(3, {7, 7.5});
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2].first, 7u);
    EXPECT_FALSE(moved == v);
}

TEST(SchemeUndoLogTest, RestoresReverseOrderAcrossRepeatSnapshots)
{
    mapping::LayerGroupMapping group;
    group.schemes.resize(2);
    group.schemes[0].part = {2, 1, 1, 2};
    group.schemes[0].coreGroup = {0, 1, 2, 3};
    group.schemes[1].part = {1, 1, 1, 1};
    group.schemes[1].coreGroup = {4};

    mapping::SchemeUndoLog undo;
    EXPECT_EQ(undo.size(), 0u);

    // Two mutations of the same layer: restore must rewind to the value
    // of the *first* snapshot (reverse-order replay).
    undo.snapshot(0, group.schemes[0]);
    group.schemes[0].part = {4, 1, 1, 1};
    undo.snapshot(0, group.schemes[0]);
    group.schemes[0].part = {1, 4, 1, 1};
    group.schemes[0].coreGroup = {9};
    undo.snapshot(1, group.schemes[1]);
    group.schemes[1].coreGroup = {5, 6};
    EXPECT_EQ(undo.size(), 3u);

    undo.restore(group);
    EXPECT_EQ(group.schemes[0].part, (mapping::Partition{2, 1, 1, 2}));
    EXPECT_EQ(group.schemes[0].coreGroup,
              (std::vector<CoreId>{0, 1, 2, 3}));
    EXPECT_EQ(group.schemes[1].coreGroup, (std::vector<CoreId>{4}));

    // reset() forgets the snapshots but keeps the entry storage.
    undo.reset();
    EXPECT_EQ(undo.size(), 0u);
    group.schemes[1].part = {1, 1, 1, 1};
    undo.restore(group); // no-op on an empty log
    EXPECT_EQ(group.schemes[1].part, (mapping::Partition{1, 1, 1, 1}));
}

} // namespace
