/**
 * @file
 * Evaluation kernels of the SA/DSE hot path: plain loops the compiler is
 * free to vectorize, with no runtime dispatch. Every kernel is an
 * operation whose IEEE-754 result does not depend on evaluation order or
 * grouping, so the delta path (group_state.hh) and the full-merge
 * reference agree bit for bit whatever the compiler does with them:
 *
 *  - elementwise add / divide: no reassociation, each output element is
 *    one single rounded operation;
 *  - max folds: seed +0.0 and take (x > acc) ? x : acc, or std::max's
 *    (a < b) ? b : a for pairs, so signed zeros follow these exact
 *    comparisons, and max is order-free for non-NaN inputs;
 *  - integer flat-index math: exact in any width.
 *
 * Order-dependent folds (the canonical ascending sums the differential
 * fuzz suite pins bit-for-bit) are deliberately NOT here: those loops
 * stay sequential at their call sites, and their speed comes from the
 * contiguous layouts in group_state.hh instead.
 */

#ifndef GEMINI_MAPPING_KERNELS_HH
#define GEMINI_MAPPING_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/noc/traffic_map.hh"

namespace gemini::mapping::kernels {

/** dst[i] += src[i] (independent lanes, no reassociation). */
inline void
accumulate(double *dst, const double *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

/** Fold max over x with seed 0.0 and (x[i] > acc) semantics. */
inline double
maxOf(const double *x, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (x[i] > acc)
            acc = x[i];
    return acc;
}

/**
 * dst[i] = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps) — the per-link
 * serialization seconds of the tournament tree, batched.
 */
inline void
secondsFromKinds(double *dst, const double *bytes, const std::uint8_t *kind,
                 double noc_bps, double d2d_bps, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
}

/** Fused max of secondsFromKinds without materializing dst. */
inline double
maxSeconds(const double *bytes, const std::uint8_t *kind, double noc_bps,
           double d2d_bps, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double secs = bytes[i] / (kind[i] != 0 ? d2d_bps : noc_bps);
        if (secs > acc)
            acc = secs;
    }
    return acc;
}

/**
 * parent[i] = max(children[2i], children[2i+1]) with std::max's
 * (a < b) ? b : a semantics — one tournament-tree level per call.
 */
inline void
pairMax(double *parent, const double *children, std::size_t n_parents)
{
    for (std::size_t i = 0; i < n_parents; ++i) {
        const double a = children[2 * i];
        const double b = children[2 * i + 1];
        parent[i] = a < b ? b : a;
    }
}

/**
 * dst[i] = linkFrom(links[i].first) * nodes + linkTo(links[i].first):
 * dense flat slots of a fragment's link list, batched (exact integer
 * math; nodes <= 2^24 keeps every product in 56 bits).
 */
inline void
linkSlots(std::uint64_t *dst, const std::pair<noc::LinkKey, double> *links,
          std::uint64_t nodes, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const noc::LinkKey key = links[i].first;
        dst[i] = (key >> 32) * nodes + (key & 0xFFFFFFFFull);
    }
}

} // namespace gemini::mapping::kernels

#endif // GEMINI_MAPPING_KERNELS_HH
