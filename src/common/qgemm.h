#ifndef MAGNETO_COMMON_QGEMM_H_
#define MAGNETO_COMMON_QGEMM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace magneto {

/// Integer GEMM for the quantized edge path (§2.1: "quantizing weights to
/// reduce resource costs"). Activations are quantized dynamically — symmetric
/// per-row int8, scale = max|x| / 127 — then multiplied against int8
/// per-output-channel-scaled weights with int8×int8→int32 inner loops. The
/// scales fold back out once per output element:
///
///   out[r][j] = float(sum_i qx[r][i] * qw[i][j]) * (sx[r] * sw[j]) + bias[j]
///
/// Integer accumulation is exact and order-independent, so the parallel
/// kernel and the serial reference produce bit-identical outputs at any
/// `MAGNETO_THREADS` setting — the property the bit-comparison tests pin.
///
/// The integer inner loops come from one kernel table per process, chosen at
/// first use from the CPU's features (portable, AVX2 or AVX-512-VNNI).
/// Every tier returns the same exact int32 sums and all float arithmetic is
/// compiled once outside them, so outputs are bit-identical on every tier.

/// Largest inner dimension the int32 accumulators tolerate: every int8×int8
/// product has magnitude ≤ 127·127, so k products stay below 2^31 as long as
/// k ≤ 2^31 / 127². Callers with a larger k must use a widening path.
inline constexpr size_t kQGemmMaxK = (size_t{1} << 31) / (127 * 127);

/// A row-major int8 matrix with one symmetric scale per row; the dynamic
/// activation-side counterpart of the per-column `nn::QuantizedMatrix`.
/// Buffers are reused across calls to `QuantizeRowsInt8`.
struct QuantizedRows {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;   ///< row-major, rows x cols
  std::vector<float> scales;  ///< per row
};

/// Quantizes `x` row by row: scale_r = max|x[r]| / 127 (1.0 for an all-zero
/// row), q = round(x / scale_r) clamped to [-127, 127]. Non-finite inputs
/// quantize deterministically rather than invoking UB: ±inf clamps to ±127,
/// NaN maps to 0, and neither contributes to the row scale.
void QuantizeRowsInt8(const Matrix& x, QuantizedRows* out);

/// Single-row form of `QuantizeRowsInt8` (classifier queries, prototypes).
/// Writes n int8 values to `q` and returns the symmetric scale.
float QuantizeRowInt8(const float* x, size_t n, int8_t* q);

/// out[r][j] = float(Σ_i a.data[r][i]·b[i][j]) · (a.scales[r]·b_scales[j]),
/// plus bias[j] when `bias` is non-null. `b` is row-major k×n (the layout
/// `nn::QuantizedMatrix` stores), `b_scales` has n entries. Partitioned over
/// output rows through the shared `ParallelFor` with the same flops-per-chunk
/// grain policy as the fp32 GEMM family. Requires a.cols == k ≤ kQGemmMaxK.
void QGemmInt8(const QuantizedRows& a, const int8_t* b, size_t k, size_t n,
               const float* b_scales, const float* bias, Matrix* out);

/// Serial scalar reference with the same quantized semantics — what fp32
/// arithmetic on the dequantized operands computes, with the scales hoisted
/// out of the exact integer sum. Bit-identical to `QGemmInt8` (shared
/// scale-folding epilogue); this is the `MAGNETO_QGEMM=off` path.
void QGemmInt8Reference(const QuantizedRows& a, const int8_t* b, size_t k,
                        size_t n, const float* b_scales, const float* bias,
                        Matrix* out);

/// Whether the parallel int8 kernel is active. Defaults to on; the
/// environment variable `MAGNETO_QGEMM=off` (read once, at first use) or
/// `SetQGemmEnabled(false)` selects the serial dequant reference instead.
bool QGemmEnabled();

/// Overrides the kernel selection (tests, benchmarks). Takes precedence over
/// the environment variable from the moment it is called.
void SetQGemmEnabled(bool enabled);

/// Exact int32 dot product of two int8 vectors. Requires n ≤ kQGemmMaxK.
int32_t DotInt8(const int8_t* a, const int8_t* b, size_t n);

/// Exact dots[t] = DotInt8(query, rows + row_ids[t]·dim, dim) for every
/// t < count, with the query widened once per call (classifier scans).
/// Requires dim ≤ kQGemmMaxK.
void DotInt8Rows(const int8_t* query, const int8_t* rows, size_t dim,
                 const uint32_t* row_ids, size_t count, int32_t* dots);

/// Name of the int8 kernel tier this process runs: "portable", "avx2" or
/// "avx512_vnni".
const char* Int8KernelTier();

/// Exact Σ v[i]² for an int8 vector (precomputed exemplar norms). Requires
/// n ≤ kQGemmMaxK.
int32_t SquaredNormInt8(const int8_t* v, size_t n);

}  // namespace magneto

#endif  // MAGNETO_COMMON_QGEMM_H_
