#include "src/intracore/explorer.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "src/common/logging.hh"
#include "src/common/math_util.hh"

namespace gemini::intracore {

const char *
loopOrderName(LoopOrder o)
{
    switch (o) {
      case LoopOrder::OutputStationary: return "output-stationary";
      case LoopOrder::WeightStationary: return "weight-stationary";
      case LoopOrder::InputStationary: return "input-stationary";
    }
    return "?";
}

Explorer::Explorer(int macs_per_core, std::int64_t glb_bytes, double freq_ghz,
                   const arch::TechParams &tech)
    : macsPerCore_(macs_per_core), glbBytes_(glb_bytes), freqGhz_(freq_ghz),
      tech_(tech)
{
    GEMINI_ASSERT(macs_per_core > 0 && glb_bytes > 0 && freq_ghz > 0,
                  "bad core parameters");
    lanesC_ = std::min(tech_.lanesC, macs_per_core);
    lanesK_ = std::max(1, macs_per_core / lanesC_);
    wbufBytes_ = tech_.wbufBytesPerMac * macs_per_core;
    ibufBytes_ = tech_.ibufBytesPerMac * macs_per_core;
    abufBytes_ = tech_.abufBytesPerMac * macs_per_core;
    glbBytesPerCycle_ = tech_.glbBytesPerCyclePerMac * macs_per_core;
    vecLanes_ = std::max(1.0, static_cast<double>(macs_per_core) /
                                  tech_.vecLaneDivisor);
    cache_.reserve(4096, std::tuple_size_v<TileKey>);
    cache_.setGrowable(true);
}

Explorer::TileKey
Explorer::keyOf(const Tile &tile)
{
    return {tile.b,
            tile.k,
            tile.h,
            tile.w,
            tile.cPerGroup,
            tile.r,
            tile.s,
            tile.strideH,
            tile.strideW,
            tile.macWork ? 1 : 0,
            std::bit_cast<std::int64_t>(tile.vecOpFactor),
            0 /* layout version */};
}

const CoreCost &
Explorer::evaluate(const Tile &tile)
{
    const TileKey key = keyOf(tile);
    std::size_t slot = 0;
    if (const CoreCost *hit = cache_.find(key, slot)) {
        ++hits_;
        return *hit;
    }
    ++misses_;
    CoreCost cost = tile.macWork ? search(tile) : evalVectorTile(tile);
    return cache_.insertAt(slot, key, cost);
}

CoreCost
Explorer::evalVectorTile(const Tile &tile) const
{
    CoreCost cost;
    cost.macs = 0;
    cost.vecOps = tile.vecOps();
    // Read every operand element, write every output element once.
    cost.glbBytes =
        (tile.vecOpFactor + 1.0) * static_cast<double>(tile.outVolume());
    cost.bufBytes = 0.0;
    const double vec_cycles = cost.vecOps / vecLanes_;
    const double mem_cycles = cost.glbBytes / glbBytesPerCycle_;
    cost.cycles = std::max(vec_cycles, mem_cycles);
    cost.energyJ = cost.vecOps * tech_.vecOpJ +
                   cost.glbBytes * tech_.glbJPerByte;
    return cost;
}

namespace {

/**
 * Geometric candidate ladder for one tiling dimension: powers of two up to
 * the dimension, the hardware-natural lane count, and the dimension itself.
 */
std::vector<std::int64_t>
tileCandidates(std::int64_t dim, std::int64_t natural)
{
    std::vector<std::int64_t> out;
    for (std::int64_t v = 1; v < dim; v *= 4)
        out.push_back(v);
    if (natural > 1 && natural < dim)
        out.push_back(natural);
    out.push_back(dim);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace

bool
Explorer::evalScheme(const Tile &t, std::int64_t tk, std::int64_t tc,
                     std::int64_t th, std::int64_t tw, LoopOrder order,
                     CoreCost &out) const
{
    // Operand footprints for one buffered tile (double-buffered weight and
    // ifmap streams; psums live in the accumulator buffer).
    const double weight_tile =
        static_cast<double>(tk) * tc * t.r * t.s;
    const double ifmap_tile =
        static_cast<double>(tc) * ((th - 1) * t.strideH + t.r) *
        ((tw - 1) * t.strideW + t.s);
    const double psum_tile = static_cast<double>(tk) * th * tw * 4.0;
    if (2.0 * weight_tile > wbufBytes_ || 2.0 * ifmap_tile > ibufBytes_ ||
        psum_tile > abufBytes_) {
        return false;
    }

    const double n_k = std::ceil(static_cast<double>(t.k) / tk);
    const double n_c = std::ceil(static_cast<double>(t.cPerGroup) / tc);
    const double n_hw = std::ceil(static_cast<double>(t.h) / th) *
                        std::ceil(static_cast<double>(t.w) / tw) *
                        static_cast<double>(t.b);
    const double out_volume = static_cast<double>(t.outVolume());

    double w_traffic = 0.0, i_traffic = 0.0, p_traffic = 0.0;
    switch (order) {
      case LoopOrder::OutputStationary:
        // hw outer: psums accumulate in the abuf across the full reduction
        // and are written back once; both operands stream per iteration.
        w_traffic = n_hw * n_k * n_c * weight_tile;
        i_traffic = n_hw * n_k * n_c * ifmap_tile;
        p_traffic = 0.0;
        break;
      case LoopOrder::WeightStationary:
        // (k, c) outer: each weight enters exactly once; ifmaps re-stream
        // per k-tile; psums spill per c-tile boundary (32-bit).
        w_traffic = n_k * n_c * weight_tile;
        i_traffic = n_k * n_c * n_hw * ifmap_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
      case LoopOrder::InputStationary:
        // (hw, c) outer: each ifmap element enters ~once (modulo halo);
        // weights re-stream per hw-tile; psums spill per c-tile.
        i_traffic = n_hw * n_c * ifmap_tile;
        w_traffic = n_hw * n_c * n_k * weight_tile;
        p_traffic = out_volume * 4.0 * (2.0 * (n_c - 1.0));
        break;
    }
    // Final quantized ofmap write (8-bit).
    const double o_traffic = out_volume;

    out.macs = t.macs();
    out.vecOps = t.vecOps();
    out.glbBytes = w_traffic + i_traffic + p_traffic + o_traffic;

    // Operand-buffer traffic: one ifmap byte feeds all K lanes; weights are
    // loaded into the PE registers once per buffered pass.
    out.bufBytes = static_cast<double>(out.macs) / lanesK_ + w_traffic;

    // Array utilization: K maps onto the K lanes; the reduction (c, r, s)
    // folds onto the C lanes (so small-channel depthwise layers run at low
    // utilization, as on real NVDLA-style arrays).
    const double fold_c = static_cast<double>(t.cPerGroup) * t.r * t.s;
    const double util_k =
        static_cast<double>(t.k) / (lanesK_ * std::ceil(
            static_cast<double>(t.k) / lanesK_));
    const double util_c = fold_c / (lanesC_ * std::ceil(fold_c / lanesC_));
    const double mac_cycles =
        static_cast<double>(out.macs) /
        (static_cast<double>(macsPerCore_) * util_k * util_c);

    const double mem_cycles = out.glbBytes / glbBytesPerCycle_;
    const double vec_cycles = out.vecOps / vecLanes_;
    out.cycles = std::max({mac_cycles, mem_cycles, vec_cycles});
    out.energyJ = out.macs * tech_.macJ + out.vecOps * tech_.vecOpJ +
                  out.glbBytes * tech_.glbJPerByte +
                  out.bufBytes * tech_.bufJPerByte;
    out.tileK = tk;
    out.tileC = tc;
    out.tileH = th;
    out.tileW = tw;
    out.order = order;
    return true;
}

CoreCost
Explorer::search(const Tile &tile) const
{
    const auto ks = tileCandidates(tile.k, lanesK_);
    const auto cs = tileCandidates(tile.cPerGroup, lanesC_);
    const auto hs = tileCandidates(tile.h, 1);
    const auto ws = tileCandidates(tile.w, 1);
    static constexpr LoopOrder kOrders[] = {LoopOrder::OutputStationary,
                                            LoopOrder::WeightStationary,
                                            LoopOrder::InputStationary};

    CoreCost best;
    bool found = false;
    double best_score = 0.0;
    for (auto tk : ks) {
        for (auto tc : cs) {
            for (auto th : hs) {
                for (auto tw : ws) {
                    for (LoopOrder order : kOrders) {
                        CoreCost cand;
                        if (!evalScheme(tile, tk, tc, th, tw, order, cand))
                            continue;
                        // Exhaustive search minimizes the energy-delay
                        // product of the tile (Sec. V-B1).
                        const double score = cand.energyJ * cand.cycles;
                        if (!found || score < best_score) {
                            best = cand;
                            best_score = score;
                            found = true;
                        }
                    }
                }
            }
        }
    }
    if (!found) {
        // The (1,1,1,1) candidate fits any realistic buffer (its working
        // set is just the r*s window), so reaching this means the core
        // parameters are nonsensical.
        GEMINI_PANIC("no feasible intra-core scheme for tile k=", tile.k,
                     " c=", tile.cPerGroup, " r=", tile.r, " s=", tile.s,
                     " on ", macsPerCore_, "-MAC core");
    }
    return best;
}

} // namespace gemini::intracore
