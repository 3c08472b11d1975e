#include "common/qgemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "common/int8_kernels.h"
#include "common/logging.h"
#include "common/parallel.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MAGNETO_INT8_X86 1
#include <immintrin.h>
#else
#define MAGNETO_INT8_X86 0
#endif

namespace magneto {
namespace {

// Target multiply-adds per ParallelFor chunk, matching the fp32 GEMM grain
// policy so quantized and float layers schedule alike on the shared pool.
constexpr size_t kIntOpsPerChunk = size_t{1} << 21;

size_t RowGrain(size_t ops_per_row) {
  return std::max<size_t>(1, kIntOpsPerChunk / (ops_per_row + 1));
}

// Shared scale-folding epilogue. Both kernels funnel their exact integer
// accumulators through this one function so the float operation sequence —
// int32→float conversion, scale product, multiply, bias add — is compiled
// exactly once and the two paths stay bit-identical even under FP
// contraction.
void FoldScales(const int32_t* acc, float a_scale, const float* b_scales,
                const float* bias, size_t n, float* y) {
  if (bias != nullptr) {
    for (size_t j = 0; j < n; ++j) {
      y[j] = static_cast<float>(acc[j]) * (a_scale * b_scales[j]) + bias[j];
    }
  } else {
    for (size_t j = 0; j < n; ++j) {
      y[j] = static_cast<float>(acc[j]) * (a_scale * b_scales[j]);
    }
  }
}

// Writes the positions of the nonzero qx[i] to `nz` and returns their count.
// Post-ReLU activations quantize to exact zeros, so every tier skips them
// element-wise; integer adds are order-free, so skipping cannot change a sum.
// Branch-free: the zero pattern of real activations is unpredictable.
size_t CompactNonzeros(const int8_t* qx, size_t k, uint32_t* nz) {
  size_t nnz = 0;
  for (size_t i = 0; i < k; ++i) {
    nz[nnz] = static_cast<uint32_t>(i);
    nnz += qx[i] != 0;
  }
  return nnz;
}

// Two int8 activations as the int16 pair [x0, x1] of one 32-bit lane, the
// operand layout of pmaddwd against interleaved weight pairs.
int32_t PackPair(int32_t x0, int32_t x1) {
  return static_cast<int32_t>((static_cast<uint32_t>(x1) << 16) |
                              (static_cast<uint32_t>(x0) & 0xFFFFu));
}

// acc[j] += x·w[j] for the activations nz[t, nnz), one at a time: what is
// left after a tier's multi-activation passes.
void AccumulateSingles(const int8_t* qx, const int8_t* b, size_t n,
                       const uint32_t* nz, size_t t, size_t nnz,
                       int32_t* acc) {
  for (; t < nnz; ++t) {
    const int32_t x0 = qx[nz[t]];
    const int8_t* w = b + size_t{nz[t]} * n;
    for (size_t j = 0; j < n; ++j) acc[j] += x0 * w[j];
  }
}

// ---- Portable tier: the baseline target (SSE2 on x86-64). ----------------

void QGemmRowPortable(const int8_t* qx, const int8_t* b, size_t k, size_t n,
                      int32_t* acc, uint32_t* nz) {
  for (size_t j = 0; j < n; ++j) acc[j] = 0;
  const size_t nnz = CompactNonzeros(qx, k, nz);
  size_t t = 0;
#if defined(__SSE2__)
  // Two activation streams per pass through pmaddwd: each 32-bit lane of
  // `xv` holds the int16 pair [x0, x1]; interleaving the two sign-extended
  // weight rows as [w0_j, w1_j] makes one madd produce x0*w0_j + x1*w1_j for
  // four j at a time. Products are <= 2*128^2, the int32 accumulators are
  // covered by the kQGemmMaxK bound, so this is exact.
  for (; t + 2 <= nnz; t += 2) {
    const size_t i0 = nz[t], i1 = nz[t + 1];
    const int8_t* w0 = b + i0 * n;
    const int8_t* w1 = b + i1 * n;
    const __m128i xv = _mm_set1_epi32(PackPair(qx[i0], qx[i1]));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m128i w0b = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(w0 + j));
      const __m128i w1b = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(w1 + j));
      // Sign-extend 8 int8 -> 8 int16 (duplicate bytes, arithmetic shift).
      const __m128i w0w = _mm_srai_epi16(_mm_unpacklo_epi8(w0b, w0b), 8);
      const __m128i w1w = _mm_srai_epi16(_mm_unpacklo_epi8(w1b, w1b), 8);
      const __m128i lo = _mm_unpacklo_epi16(w0w, w1w);  // j .. j+3
      const __m128i hi = _mm_unpackhi_epi16(w0w, w1w);  // j+4 .. j+7
      __m128i a0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc + j));
      __m128i a1 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc + j + 4));
      a0 = _mm_add_epi32(a0, _mm_madd_epi16(lo, xv));
      a1 = _mm_add_epi32(a1, _mm_madd_epi16(hi, xv));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + j), a0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + j + 4), a1);
    }
    const int32_t x0 = qx[i0], x1 = qx[i1];
    for (; j < n; ++j) acc[j] += x0 * w0[j] + x1 * w1[j];
  }
#else
  for (; t + 4 <= nnz; t += 4) {
    const size_t i0 = nz[t], i1 = nz[t + 1], i2 = nz[t + 2], i3 = nz[t + 3];
    const int32_t x0 = qx[i0], x1 = qx[i1], x2 = qx[i2], x3 = qx[i3];
    const int8_t* w0 = b + i0 * n;
    const int8_t* w1 = b + i1 * n;
    const int8_t* w2 = b + i2 * n;
    const int8_t* w3 = b + i3 * n;
    for (size_t j = 0; j < n; ++j) {
      acc[j] += x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
    }
  }
#endif
  AccumulateSingles(qx, b, n, nz, t, nnz, acc);
}

int32_t DotPortable(const int8_t* a, const int8_t* b, size_t n) {
  int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += int32_t{a[i]} * b[i];
    s1 += int32_t{a[i + 1]} * b[i + 1];
    s2 += int32_t{a[i + 2]} * b[i + 2];
    s3 += int32_t{a[i + 3]} * b[i + 3];
  }
  for (; i < n; ++i) s0 += int32_t{a[i]} * b[i];
  return (s0 + s1) + (s2 + s3);
}

void DotRowsPortable(const int8_t* q, const int8_t* rows, size_t dim,
                     const uint32_t* ids, size_t count, int32_t* dots) {
  for (size_t t = 0; t < count; ++t) {
    dots[t] = DotPortable(q, rows + size_t{ids[t]} * dim, dim);
  }
}

#if MAGNETO_INT8_X86

// The query of a row scan, sign-extended to int16 once per call and padded
// with zeros to `padded` entries.
thread_local std::vector<int16_t> t_query16;

const int16_t* WidenQuery(const int8_t* q, size_t dim, size_t padded) {
  if (t_query16.size() < padded) t_query16.resize(padded);
  int16_t* out = t_query16.data();
  for (size_t i = 0; i < dim; ++i) out[i] = q[i];
  for (size_t i = dim; i < padded; ++i) out[i] = 0;
  return out;
}

// ---- AVX2 tier: 256-bit vpmovsxbw + vpmaddwd. -----------------------------

#define MAGNETO_AVX2 __attribute__((target("avx2")))

MAGNETO_AVX2 __m128i Load16(const int8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Four activation streams per pass. Interleaving two weight rows byte-wise
// before the sign extension leaves [w0_j, w1_j] int16 pairs in column order,
// so one vpmaddwd against the broadcast pair [x0, x1] yields x0·w0_j +
// x1·w1_j for eight j at a time. Products are at most 2·128², the int32
// lanes are covered by the kQGemmMaxK bound: exact.
MAGNETO_AVX2 void QGemmRowAvx2(const int8_t* qx, const int8_t* b, size_t k,
                               size_t n, int32_t* acc, uint32_t* nz) {
  for (size_t j = 0; j < n; ++j) acc[j] = 0;
  const size_t nnz = CompactNonzeros(qx, k, nz);
  size_t t = 0;
  for (; t + 4 <= nnz; t += 4) {
    const size_t i0 = nz[t], i1 = nz[t + 1], i2 = nz[t + 2], i3 = nz[t + 3];
    const int32_t x0 = qx[i0], x1 = qx[i1], x2 = qx[i2], x3 = qx[i3];
    const int8_t* w0 = b + i0 * n;
    const int8_t* w1 = b + i1 * n;
    const int8_t* w2 = b + i2 * n;
    const int8_t* w3 = b + i3 * n;
    const __m256i x01 = _mm256_set1_epi32(PackPair(x0, x1));
    const __m256i x23 = _mm256_set1_epi32(PackPair(x2, x3));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m128i b0 = Load16(w0 + j), b1 = Load16(w1 + j);
      const __m128i b2 = Load16(w2 + j), b3 = Load16(w3 + j);
      const __m256i lo01 = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
      const __m256i hi01 = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
      const __m256i lo23 = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b2, b3));
      const __m256i hi23 = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b2, b3));
      __m256i* a = reinterpret_cast<__m256i*>(acc + j);
      _mm256_storeu_si256(
          a, _mm256_add_epi32(_mm256_loadu_si256(a),
                              _mm256_add_epi32(_mm256_madd_epi16(lo01, x01),
                                               _mm256_madd_epi16(lo23, x23))));
      _mm256_storeu_si256(
          a + 1,
          _mm256_add_epi32(_mm256_loadu_si256(a + 1),
                           _mm256_add_epi32(_mm256_madd_epi16(hi01, x01),
                                            _mm256_madd_epi16(hi23, x23))));
    }
    for (; j < n; ++j) {
      acc[j] += x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
    }
  }
  AccumulateSingles(qx, b, n, nz, t, nnz, acc);
}

// Lane sums of four accumulators: {Σa0, Σa1, Σa2, Σa3}. Wrapping adds, so
// any partial overflow cancels out of an in-range total.
MAGNETO_AVX2 __m128i Sum4(__m256i a0, __m256i a1, __m256i a2, __m256i a3) {
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                      _mm256_hadd_epi32(a2, a3));
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

MAGNETO_AVX2 __m256i Madd16(const int8_t* r, const int16_t* q16) {
  return _mm256_madd_epi16(
      _mm256_cvtepi8_epi16(Load16(r)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q16)));
}

// The sub-16 tail of one row, added with wrapping arithmetic.
int32_t AddTail(int32_t sum, const int8_t* q, const int8_t* r, size_t from,
                size_t dim) {
  uint32_t s = static_cast<uint32_t>(sum);
  for (size_t i = from; i < dim; ++i) {
    s += static_cast<uint32_t>(int32_t{q[i]} * r[i]);
  }
  return static_cast<int32_t>(s);
}

MAGNETO_AVX2 void DotRowsAvx2(const int8_t* q, const int8_t* rows, size_t dim,
                              const uint32_t* ids, size_t count,
                              int32_t* dots) {
  const size_t full = dim / 16 * 16;
  const int16_t* q16 = WidenQuery(q, full, full);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const int8_t* r0 = rows + size_t{ids[t]} * dim;
    const int8_t* r1 = rows + size_t{ids[t + 1]} * dim;
    const int8_t* r2 = rows + size_t{ids[t + 2]} * dim;
    const int8_t* r3 = rows + size_t{ids[t + 3]} * dim;
    __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
    for (size_t i = 0; i < full; i += 16) {
      a0 = _mm256_add_epi32(a0, Madd16(r0 + i, q16 + i));
      a1 = _mm256_add_epi32(a1, Madd16(r1 + i, q16 + i));
      a2 = _mm256_add_epi32(a2, Madd16(r2 + i, q16 + i));
      a3 = _mm256_add_epi32(a3, Madd16(r3 + i, q16 + i));
    }
    alignas(16) int32_t s[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(s), Sum4(a0, a1, a2, a3));
    dots[t] = AddTail(s[0], q, r0, full, dim);
    dots[t + 1] = AddTail(s[1], q, r1, full, dim);
    dots[t + 2] = AddTail(s[2], q, r2, full, dim);
    dots[t + 3] = AddTail(s[3], q, r3, full, dim);
  }
  for (; t < count; ++t) {
    const int8_t* r = rows + size_t{ids[t]} * dim;
    __m256i a = _mm256_setzero_si256();
    for (size_t i = 0; i < full; i += 16) {
      a = _mm256_add_epi32(a, Madd16(r + i, q16 + i));
    }
    const __m128i s = Sum4(a, a, a, a);
    dots[t] = AddTail(_mm_cvtsi128_si32(s), q, r, full, dim);
  }
}

// ---- AVX-512-VNNI tier: register-blocked vpdpbusd rows, vpdpwssd dots. ---

#define MAGNETO_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

// 64 weight bytes; `kMasked` loads only the `mask` bytes (the rest read as
// zero and are never touched in memory).
template <bool kMasked>
MAGNETO_VNNI __m512i Load64(const int8_t* p, __mmask64 mask) {
  if constexpr (kMasked) {
    return _mm512_maskz_loadu_epi8(mask, p);
  } else {
    return _mm512_loadu_si512(p);
  }
}

// acc[e] += Σ over the quads of |x|·w, for one 64-column block. vpdpbusd
// multiplies unsigned bytes by signed bytes, four per 32-bit lane, so each
// quad's |x| bytes are one broadcast word and its four weight rows are
// interleaved byte-wise: after the two unpack levels, acc[e] lane L word c
// holds column 16L + 4e + c. Products are at most 128·128 in magnitude and
// vpdpbusd does not saturate, so the sums are exact.
template <bool kMasked>
MAGNETO_VNNI void AccumulateQuads(const int8_t* b, size_t n,
                                  const uint32_t* idx, const uint32_t* words,
                                  size_t nquads, __mmask64 mask,
                                  __m512i acc[4]) {
  for (size_t q = 0; q < nquads; ++q) {
    const uint32_t* i = idx + 4 * q;
    const __m512i w0 = Load64<kMasked>(b + size_t{i[0]} * n, mask);
    const __m512i w1 = Load64<kMasked>(b + size_t{i[1]} * n, mask);
    const __m512i w2 = Load64<kMasked>(b + size_t{i[2]} * n, mask);
    const __m512i w3 = Load64<kMasked>(b + size_t{i[3]} * n, mask);
    const __m512i xv = _mm512_set1_epi32(static_cast<int32_t>(words[q]));
    const __m512i lo01 = _mm512_unpacklo_epi8(w0, w1);
    const __m512i hi01 = _mm512_unpackhi_epi8(w0, w1);
    const __m512i lo23 = _mm512_unpacklo_epi8(w2, w3);
    const __m512i hi23 = _mm512_unpackhi_epi8(w2, w3);
    acc[0] =
        _mm512_dpbusd_epi32(acc[0], xv, _mm512_unpacklo_epi16(lo01, lo23));
    acc[1] =
        _mm512_dpbusd_epi32(acc[1], xv, _mm512_unpackhi_epi16(lo01, lo23));
    acc[2] =
        _mm512_dpbusd_epi32(acc[2], xv, _mm512_unpacklo_epi16(hi01, hi23));
    acc[3] =
        _mm512_dpbusd_epi32(acc[3], xv, _mm512_unpackhi_epi16(hi01, hi23));
  }
}

// One 64-column block of an output row, held in registers over every quad:
// positives minus negatives, then a 4x4 transpose of 128-bit lanes restores
// column order once per block.
template <bool kMasked>
MAGNETO_VNNI void VnniBlock(const int8_t* b, size_t n, size_t j0,
                            size_t width, const uint32_t* pos,
                            const uint32_t* pos_words, size_t pos_quads,
                            const uint32_t* neg, const uint32_t* neg_words,
                            size_t neg_quads, int32_t* acc) {
  const __mmask64 mask =
      width >= 64 ? ~__mmask64{0} : (__mmask64{1} << width) - 1;
  __m512i p[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                  _mm512_setzero_si512(), _mm512_setzero_si512()};
  __m512i m[4] = {p[0], p[0], p[0], p[0]};
  AccumulateQuads<kMasked>(b + j0, n, pos, pos_words, pos_quads, mask, p);
  AccumulateQuads<kMasked>(b + j0, n, neg, neg_words, neg_quads, mask, m);
  for (int e = 0; e < 4; ++e) p[e] = _mm512_sub_epi32(p[e], m[e]);
  // All-ones zero-masked shuffles stand in for the plain ones, which GCC 12
  // builds from a self-initialised "undefined" operand and then warns about.
  constexpr __mmask16 kAll = 0xFFFF;
  const __m512i t0 = _mm512_maskz_shuffle_i32x4(kAll, p[0], p[1], 0x44);
  const __m512i t1 = _mm512_maskz_shuffle_i32x4(kAll, p[0], p[1], 0xEE);
  const __m512i t2 = _mm512_maskz_shuffle_i32x4(kAll, p[2], p[3], 0x44);
  const __m512i t3 = _mm512_maskz_shuffle_i32x4(kAll, p[2], p[3], 0xEE);
  const __m512i out[4] = {_mm512_maskz_shuffle_i32x4(kAll, t0, t2, 0x88),
                          _mm512_maskz_shuffle_i32x4(kAll, t0, t2, 0xDD),
                          _mm512_maskz_shuffle_i32x4(kAll, t1, t3, 0x88),
                          _mm512_maskz_shuffle_i32x4(kAll, t1, t3, 0xDD)};
  for (size_t s = 0; s < 4; ++s) {
    int32_t* dst = acc + j0 + 16 * s;
    if constexpr (kMasked) {
      if (width <= 16 * s) break;
      const size_t left = width - 16 * s;
      const __mmask16 keep =
          left >= 16 ? __mmask16{0xFFFF}
                     : static_cast<__mmask16>((1u << left) - 1);
      _mm512_mask_storeu_epi32(dst, keep, out[s]);
    } else {
      _mm512_storeu_si512(dst, out[s]);
    }
  }
}

// Pads a list of `count` positions to whole quads with row 0 at activation
// 0 and packs each quad's |x| bytes into `words`. Returns the quad count.
size_t PackQuads(const int8_t* qx, uint32_t* idx, size_t count,
                 uint32_t* words) {
  const size_t quads = (count + 3) / 4;
  for (size_t q = 0; q < quads; ++q) {
    uint32_t word = 0;
    for (size_t c = 0; c < 4; ++c) {
      const size_t t = 4 * q + c;
      if (t >= count) idx[t] = 0;
      const int32_t x = t < count ? qx[idx[t]] : 0;
      const uint32_t mag = static_cast<uint32_t>(x < 0 ? -x : x);
      word |= mag << (8 * c);
    }
    words[q] = word;
  }
  return quads;
}

MAGNETO_VNNI void QGemmRowAvx512Vnni(const int8_t* qx, const int8_t* b,
                                     size_t k, size_t n, int32_t* acc,
                                     uint32_t* nz) {
  // Positive positions fill nz[0, np) upwards and negative ones fill
  // nz[0, k + 8) downwards from the top, both branch-free; each list is then
  // padded to whole quads in place (np + nn <= k leaves room for both pads)
  // and the quad words go after, at nz[k + 8 ...].
  const size_t top = k + 8;
  size_t np = 0, nn = 0;
  for (size_t i = 0; i < k; ++i) {
    nz[np] = static_cast<uint32_t>(i);
    np += qx[i] > 0;
    nz[top - 1 - nn] = static_cast<uint32_t>(i);
    nn += qx[i] < 0;
  }
  uint32_t* neg = nz + top - (nn + 3) / 4 * 4;
  // Move the negatives down so that they end exactly at the padded length.
  std::copy(nz + top - nn, nz + top, neg);
  uint32_t* words = nz + top;
  const size_t pos_quads = PackQuads(qx, nz, np, words);
  const size_t neg_quads = PackQuads(qx, neg, nn, words + pos_quads);
  const uint32_t* neg_words = words + pos_quads;
  size_t j0 = 0;
  for (; j0 + 64 <= n; j0 += 64) {
    VnniBlock<false>(b, n, j0, 64, nz, words, pos_quads, neg, neg_words,
                     neg_quads, acc);
  }
  if (j0 < n) {
    VnniBlock<true>(b, n, j0, n - j0, nz, words, pos_quads, neg, neg_words,
                    neg_quads, acc);
  }
}

// Lane sums of four accumulators: {Σa0, Σa1, Σa2, Σa3}, wrapping adds. The
// all-ones zero-masked forms avoid GCC 12's warning, as in VnniBlock.
MAGNETO_VNNI __m128i Sum4(__m512i a0, __m512i a1, __m512i a2, __m512i a3) {
  constexpr __mmask16 kAll = 0xFFFF;
  const __m512i s01 =
      _mm512_add_epi32(_mm512_maskz_unpacklo_epi32(kAll, a0, a1),
                       _mm512_maskz_unpackhi_epi32(kAll, a0, a1));
  const __m512i s23 =
      _mm512_add_epi32(_mm512_maskz_unpacklo_epi32(kAll, a2, a3),
                       _mm512_maskz_unpackhi_epi32(kAll, a2, a3));
  const __m512i s =
      _mm512_add_epi32(_mm512_maskz_unpacklo_epi64(0xFF, s01, s23),
                       _mm512_maskz_unpackhi_epi64(0xFF, s01, s23));
  const __m256i h =
      _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xF, s, 0),
                       _mm512_maskz_extracti64x4_epi64(0xF, s, 1));
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

// One row's 32-element block, sign-extended to int16, against the widened
// query; `kMasked` loads only the `mask` bytes of the row.
template <bool kMasked>
MAGNETO_VNNI __m512i DotBlock(__m512i acc, const int8_t* r,
                              const int16_t* q16, __mmask32 mask) {
  const __m256i bytes =
      kMasked ? _mm256_maskz_loadu_epi8(mask, r)
              : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r));
  return _mm512_dpwssd_epi32(acc, _mm512_cvtepi8_epi16(bytes),
                             _mm512_loadu_si512(q16));
}

MAGNETO_VNNI void DotRowsAvx512Vnni(const int8_t* q, const int8_t* rows,
                                    size_t dim, const uint32_t* ids,
                                    size_t count, int32_t* dots) {
  if (dim == 0) {
    for (size_t t = 0; t < count; ++t) dots[t] = 0;
    return;
  }
  // Full 32-element blocks, then one masked block for the rest (possibly a
  // full one): the query's zero padding covers whatever the mask drops.
  const size_t blocks = (dim + 31) / 32;
  const size_t last = 32 * (blocks - 1);
  const size_t rest = dim - last;  // 1..32
  const __mmask32 tail =
      rest == 32 ? ~__mmask32{0} : (__mmask32{1} << rest) - 1;
  const int16_t* q16 = WidenQuery(q, dim, 32 * blocks);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const int8_t* r0 = rows + size_t{ids[t]} * dim;
    const int8_t* r1 = rows + size_t{ids[t + 1]} * dim;
    const int8_t* r2 = rows + size_t{ids[t + 2]} * dim;
    const int8_t* r3 = rows + size_t{ids[t + 3]} * dim;
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
    for (size_t i = 0; i < last; i += 32) {
      a0 = DotBlock<false>(a0, r0 + i, q16 + i, 0);
      a1 = DotBlock<false>(a1, r1 + i, q16 + i, 0);
      a2 = DotBlock<false>(a2, r2 + i, q16 + i, 0);
      a3 = DotBlock<false>(a3, r3 + i, q16 + i, 0);
    }
    a0 = DotBlock<true>(a0, r0 + last, q16 + last, tail);
    a1 = DotBlock<true>(a1, r1 + last, q16 + last, tail);
    a2 = DotBlock<true>(a2, r2 + last, q16 + last, tail);
    a3 = DotBlock<true>(a3, r3 + last, q16 + last, tail);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dots + t),
                     Sum4(a0, a1, a2, a3));
  }
  for (; t < count; ++t) {
    const int8_t* r = rows + size_t{ids[t]} * dim;
    __m512i a = _mm512_setzero_si512();
    for (size_t i = 0; i < last; i += 32) {
      a = DotBlock<false>(a, r + i, q16 + i, 0);
    }
    a = DotBlock<true>(a, r + last, q16 + last, tail);
    dots[t] = _mm_cvtsi128_si32(Sum4(a, a, a, a));
  }
}

#endif  // MAGNETO_INT8_X86

constexpr int8_kernels::Table kPortableTable{
    int8_kernels::Tier::kPortable, "portable", QGemmRowPortable,
    DotRowsPortable};
#if MAGNETO_INT8_X86
constexpr int8_kernels::Table kAvx2Table{int8_kernels::Tier::kAvx2, "avx2",
                                         QGemmRowAvx2, DotRowsAvx2};
constexpr int8_kernels::Table kAvx512VnniTable{
    int8_kernels::Tier::kAvx512Vnni, "avx512_vnni", QGemmRowAvx512Vnni,
    DotRowsAvx512Vnni};
#endif

// Set only by a live ScopedTier.
std::atomic<const int8_kernels::Table*> g_forced_table{nullptr};

// Per-thread scratch of the row kernel, grown once and reused, so a steady
// stream of forwards allocates nothing.
struct RowScratch {
  std::vector<int32_t> acc;
  std::vector<uint32_t> nz;
};
thread_local RowScratch t_row_scratch;

// -1 unset, 0 forced off, 1 forced on. Set once by SetQGemmEnabled.
std::atomic<int> g_qgemm_override{-1};

bool QGemmEnvEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("MAGNETO_QGEMM");
    return env == nullptr || std::string_view(env) != "off";
  }();
  return enabled;
}

}  // namespace

float QuantizeRowInt8(const float* x, size_t n, int8_t* q) {
  float max_abs = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float v = std::fabs(x[i]);
    // Finite elements only: one inf (or NaN) must not zero out the rest of
    // the row through an unbounded scale.
    if (v <= std::numeric_limits<float>::max() && v > max_abs) max_abs = v;
  }
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < n; ++i) {
    float scaled = x[i] * inv;
    if (!(std::fabs(scaled) <= 127.0f)) {
      // Out of range or non-finite: ±inf saturates, NaN maps to 0.
      scaled = scaled > 0.0f ? 127.0f : (scaled < 0.0f ? -127.0f : 0.0f);
    }
    // Round half away from zero, same as lround but branch-cheap: `scaled`
    // is already clamped to [-127, 127] so the cast cannot overflow.
    q[i] = static_cast<int8_t>(
        static_cast<int32_t>(scaled + (scaled >= 0.0f ? 0.5f : -0.5f)));
  }
  return scale;
}

void QuantizeRowsInt8(const Matrix& x, QuantizedRows* out) {
  out->rows = x.rows();
  out->cols = x.cols();
  out->data.resize(x.size());
  out->scales.resize(x.rows());
  const size_t cols = x.cols();
  // Rows quantize independently, so chunking cannot change any output byte.
  ParallelForChunks(0, x.rows(), RowGrain(cols * 4), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      out->scales[r] =
          QuantizeRowInt8(x.RowPtr(r), cols, out->data.data() + r * cols);
    }
  });
}

void QGemmInt8(const QuantizedRows& a, const int8_t* b, size_t k, size_t n,
               const float* b_scales, const float* bias, Matrix* out) {
  MAGNETO_CHECK(a.cols == k);
  MAGNETO_CHECK(k <= kQGemmMaxK);
  const size_t m = a.rows;
  out->ResetForOverwrite(m, n);
  const int8_kernels::Table& kernels = int8_kernels::Active();
  ParallelForChunks(0, m, RowGrain(k * n), [&](size_t row0, size_t row1) {
    RowScratch& scratch = t_row_scratch;
    if (scratch.acc.size() < n) scratch.acc.resize(n);
    const size_t nz_size = int8_kernels::RowScratchSize(k);
    if (scratch.nz.size() < nz_size) scratch.nz.resize(nz_size);
    for (size_t r = row0; r < row1; ++r) {
      kernels.qgemm_row(a.data.data() + r * k, b, k, n, scratch.acc.data(),
                        scratch.nz.data());
      FoldScales(scratch.acc.data(), a.scales[r], b_scales, bias, n,
                 out->RowPtr(r));
    }
  });
}

void QGemmInt8Reference(const QuantizedRows& a, const int8_t* b, size_t k,
                        size_t n, const float* b_scales, const float* bias,
                        Matrix* out) {
  MAGNETO_CHECK(a.cols == k);
  MAGNETO_CHECK(k <= kQGemmMaxK);
  const size_t m = a.rows;
  out->ResetForOverwrite(m, n);
  std::vector<int32_t> acc(n);
  for (size_t r = 0; r < m; ++r) {
    const int8_t* qx = a.data.data() + r * k;
    for (size_t j = 0; j < n; ++j) acc[j] = 0;
    for (size_t i = 0; i < k; ++i) {
      const int32_t xi = qx[i];
      if (xi == 0) continue;
      const int8_t* w = b + i * n;
      for (size_t j = 0; j < n; ++j) acc[j] += xi * w[j];
    }
    FoldScales(acc.data(), a.scales[r], b_scales, bias, n, out->RowPtr(r));
  }
}

bool QGemmEnabled() {
  const int forced = g_qgemm_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return QGemmEnvEnabled();
}

void SetQGemmEnabled(bool enabled) {
  g_qgemm_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

int32_t DotInt8(const int8_t* a, const int8_t* b, size_t n) {
  MAGNETO_CHECK(n <= kQGemmMaxK);
  const uint32_t first = 0;
  int32_t dot = 0;
  int8_kernels::Active().dot_rows(a, b, n, &first, 1, &dot);
  return dot;
}

void DotInt8Rows(const int8_t* query, const int8_t* rows, size_t dim,
                 const uint32_t* row_ids, size_t count, int32_t* dots) {
  MAGNETO_CHECK(dim <= kQGemmMaxK);
  int8_kernels::Active().dot_rows(query, rows, dim, row_ids, count, dots);
}

const char* Int8KernelTier() { return int8_kernels::Active().name; }

int32_t SquaredNormInt8(const int8_t* v, size_t n) { return DotInt8(v, v, n); }

namespace int8_kernels {

std::vector<Tier> HostTiers() {
  std::vector<Tier> tiers = {Tier::kPortable};
#if MAGNETO_INT8_X86
  // __builtin_cpu_supports also requires the OS to save the YMM/ZMM state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) tiers.push_back(Tier::kAvx2);
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni")) {
    tiers.push_back(Tier::kAvx512Vnni);
  }
#endif
  return tiers;
}

const Table& TableFor(Tier tier) {
  switch (tier) {
#if MAGNETO_INT8_X86
    case Tier::kAvx2:
      return kAvx2Table;
    case Tier::kAvx512Vnni:
      return kAvx512VnniTable;
#endif
    default:
      return kPortableTable;
  }
}

const Table& Active() {
  if (const Table* forced = g_forced_table.load(std::memory_order_relaxed)) {
    return *forced;
  }
  static const Table& selected = TableFor(HostTiers().back());
  return selected;
}

ScopedTier::ScopedTier(Tier tier)
    : saved_(g_forced_table.load(std::memory_order_relaxed)) {
  const std::vector<Tier> host = HostTiers();
  MAGNETO_CHECK(std::find(host.begin(), host.end(), tier) != host.end());
  g_forced_table.store(&TableFor(tier), std::memory_order_relaxed);
}

ScopedTier::~ScopedTier() {
  g_forced_table.store(saved_, std::memory_order_relaxed);
}

}  // namespace int8_kernels

}  // namespace magneto
