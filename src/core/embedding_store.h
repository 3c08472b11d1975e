#ifndef MAGNETO_CORE_EMBEDDING_STORE_H_
#define MAGNETO_CORE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "core/ann_index.h"

namespace magneto::core {

/// The row store behind both support-set classifiers: one NCM prototype or
/// one KNN exemplar embedding per row, stored contiguously as fp32 or as
/// symmetric per-row int8 codes with the row scale and exact Σq². An int8
/// scan quantizes the query once, takes the exact int32 dot products of a
/// chunk of rows in one `DotInt8Rows` call, and then applies the
/// exact-rescale distance
///   d² = sq²·Σqx² − 2·sq·si·(qx·qi) + si²·Σqi²
/// over that chunk (one double combination per row).
///
/// An optional IVF index narrows a scan to candidate rows; it never computes
/// a distance, so indexed and full scans differ only in the rows visited.
///
/// `Scan` is const and may run on any number of threads, each with its own
/// `Scratch`; mutations are single-owner. Copies share the immutable index.
class EmbeddingStore {
 public:
  struct Scratch {
    std::vector<int8_t> q_query;  ///< int8 store: the quantized query
    std::vector<int32_t> dots;    ///< int8 store: query·row per visited row
    AnnIndex::Scratch ann;
    std::vector<uint32_t> rows;  ///< rows the last scan visited, in order
    std::vector<double> d2;      ///< their squared distances
  };

  EmbeddingStore() = default;
  /// An empty store of `dim`-wide rows.
  EmbeddingStore(size_t dim, bool int8) : dim_(dim), int8_(int8) {}
  /// Stores every row of `rows`, quantizing each one when `int8`.
  EmbeddingStore(const Matrix& rows, bool int8);

  size_t size() const { return n_; }
  size_t dim() const { return dim_; }
  bool int8() const { return int8_; }
  /// Bytes of stored rows: fp32 values, or int8 codes + scales + norms.
  size_t MemoryBytes() const;

  /// Row `r` as the scan sees it (int8: the dequantized codes q·scale).
  void CopyRow(size_t r, float* out) const;
  Matrix Rows() const;

  /// Insert (quantizing `row` in int8 mode) and erase drop the index.
  void Insert(size_t pos, const float* row);
  void Erase(size_t pos);

  /// Trains the IVF candidate selector on `train` (row i stands for stored
  /// row i; nullptr = `Rows()`) when `options.enable` is set and the store
  /// holds at least `options.min_index_size` rows; otherwise drops the index
  /// so scans fall back to visiting every row.
  Status RebuildIndex(const AnnOptions& options,
                      const Matrix* train = nullptr);
  void DropIndex() { index_.reset(); }
  bool indexed() const { return index_ != nullptr; }

  /// Squared distance from `query` to every row the scan visits — the
  /// index's candidates when `use_index` and an index is built, else every
  /// row — into `scratch->rows`/`d2`, in visit order. fp32: the float
  /// `SquaredL2` (non-finite passes through); int8: clamped at 0. Indexed
  /// scans are timed into `ann.scan_us`.
  void Scan(const float* query, bool use_index, Scratch* scratch) const;

 private:
  void Score(const float* query, Scratch* scratch) const;

  size_t dim_ = 0;
  size_t n_ = 0;
  bool int8_ = false;
  std::vector<float> values_;   ///< fp32 store: n x dim
  std::vector<int8_t> codes_;   ///< int8 store: n x dim
  std::vector<float> scales_;   ///< int8 store: per-row scale
  std::vector<int32_t> norms_;  ///< int8 store: per-row Σq²
  /// Immutable once built; shared so copies stay cheap and identical.
  std::shared_ptr<const AnnIndex> index_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_EMBEDDING_STORE_H_
