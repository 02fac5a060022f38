/**
 * @file
 * Build stamp of the evaluation kernels (src/mapping/kernels.hh). The
 * kernels have one plain implementation with no runtime dispatch, so the
 * stamp is constant; it is kept for tools that print it next to their
 * measurements.
 */

#ifndef GEMINI_COMMON_SIMD_HH
#define GEMINI_COMMON_SIMD_HH

namespace gemini::common {

/** The one kernel implementation. */
enum class SimdLevel
{
    Scalar,
};

inline SimdLevel
activeSimdLevel()
{
    return SimdLevel::Scalar;
}

/** Name of a kernel implementation ("scalar") for stats output. */
inline const char *
simdLevelName(SimdLevel)
{
    return "scalar";
}

} // namespace gemini::common

#endif // GEMINI_COMMON_SIMD_HH
