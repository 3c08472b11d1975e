#ifndef MAGNETO_COMMON_INT8_KERNELS_H_
#define MAGNETO_COMMON_INT8_KERNELS_H_

// Internal to the int8 kernels in common/qgemm.cc: the per-process kernel
// table behind `QGemmInt8`, `DotInt8` and `DotInt8Rows`, and the hook the
// exactness tests use to run every tier the host supports. No public header
// includes this one.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace magneto::int8_kernels {

/// Instruction-set tiers, narrowest first. `kPortable` is built for the
/// baseline target (SSE2 on x86-64, plain C++ elsewhere); the others are
/// compiled with per-function target attributes and only ever run when the
/// CPU and the OS support them.
enum class Tier { kPortable, kAvx2, kAvx512Vnni };

/// Every kernel writes exact int32 results, so all tiers agree bit for bit.
struct Table {
  Tier tier;
  const char* name;
  /// acc[j] = Σ_i qx[i]·b[i·n + j] for j < n, visiting only nonzero qx[i].
  /// `nz` is scratch of at least `RowScratchSize(k)` entries.
  void (*qgemm_row)(const int8_t* qx, const int8_t* b, size_t k, size_t n,
                    int32_t* acc, uint32_t* nz);
  /// dots[t] = Σ_i q[i]·rows[ids[t]·dim + i] for t < count.
  void (*dot_rows)(const int8_t* q, const int8_t* rows, size_t dim,
                   const uint32_t* ids, size_t count, int32_t* dots);
};

/// Scratch entries `qgemm_row` needs for an inner dimension of `k`.
inline constexpr size_t RowScratchSize(size_t k) { return 2 * k + 16; }

/// The tiers this CPU and OS can run, narrowest first (always starts with
/// `kPortable`). The process uses the last one.
std::vector<Tier> HostTiers();

const Table& TableFor(Tier tier);

/// The table every int8 kernel call uses: the widest host tier, chosen once
/// at first use, unless a `ScopedTier` is alive.
const Table& Active();

/// Test hook: routes every int8 kernel through `tier` (which must be in
/// `HostTiers()`) until destroyed. Not for concurrent use with other scopes.
class ScopedTier {
 public:
  explicit ScopedTier(Tier tier);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  const Table* saved_;
};

}  // namespace magneto::int8_kernels

#endif  // MAGNETO_COMMON_INT8_KERNELS_H_
