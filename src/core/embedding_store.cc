#include "core/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/parallel.h"
#include "common/qgemm.h"
#include "obs/metrics.h"

namespace magneto::core {

namespace {

/// Rows per scan chunk; chunking is identical at every thread count. A scan
/// of one chunk (every NCM vocabulary in practice) runs inline without
/// allocating: bench_parallel_scaling gates classify at zero allocations.
constexpr size_t kScanGrain = 2048;

obs::Histogram* ScanHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("ann.scan_us");
  return h;
}

}  // namespace

EmbeddingStore::EmbeddingStore(const Matrix& rows, bool int8)
    : dim_(rows.cols()), n_(rows.rows()), int8_(int8) {
  if (!int8_) {
    values_.assign(rows.data(), rows.data() + rows.size());
    return;
  }
  codes_.resize(rows.size());
  scales_.resize(n_);
  norms_.resize(n_);
  for (size_t r = 0; r < n_; ++r) {
    int8_t* q = codes_.data() + r * dim_;
    scales_[r] = QuantizeRowInt8(rows.RowPtr(r), dim_, q);
    norms_[r] = SquaredNormInt8(q, dim_);
  }
}

size_t EmbeddingStore::MemoryBytes() const {
  return values_.size() * sizeof(float) + codes_.size() +
         scales_.size() * sizeof(float) + norms_.size() * sizeof(int32_t);
}

void EmbeddingStore::CopyRow(size_t r, float* out) const {
  if (!int8_) {
    std::memcpy(out, values_.data() + r * dim_, dim_ * sizeof(float));
    return;
  }
  const int8_t* q = codes_.data() + r * dim_;
  for (size_t j = 0; j < dim_; ++j) {
    out[j] = static_cast<float>(q[j]) * scales_[r];
  }
}

Matrix EmbeddingStore::Rows() const {
  Matrix out(n_, dim_);
  for (size_t r = 0; r < n_; ++r) CopyRow(r, out.RowPtr(r));
  return out;
}

void EmbeddingStore::Insert(size_t pos, const float* row) {
  index_.reset();
  ++n_;
  if (!int8_) {
    values_.insert(values_.begin() + pos * dim_, row, row + dim_);
    return;
  }
  codes_.insert(codes_.begin() + pos * dim_, dim_, 0);
  int8_t* q = codes_.data() + pos * dim_;
  scales_.insert(scales_.begin() + pos, QuantizeRowInt8(row, dim_, q));
  norms_.insert(norms_.begin() + pos, SquaredNormInt8(q, dim_));
}

void EmbeddingStore::Erase(size_t pos) {
  index_.reset();
  --n_;
  auto erase = [&](auto& v, size_t width) {
    if (!v.empty()) {
      v.erase(v.begin() + pos * width, v.begin() + (pos + 1) * width);
    }
  };
  erase(values_, dim_);
  erase(codes_, dim_);
  erase(scales_, 1);
  erase(norms_, 1);
}

Status EmbeddingStore::RebuildIndex(const AnnOptions& options,
                                    const Matrix* train) {
  index_.reset();
  if (!options.enable || n_ == 0 || n_ < options.min_index_size) {
    return Status::Ok();
  }
  MAGNETO_ASSIGN_OR_RETURN(
      AnnIndex index,
      train != nullptr ? AnnIndex::Build(*train, options)
                       : AnnIndex::Build(Rows(), options));
  index_ = std::make_shared<const AnnIndex>(std::move(index));
  return Status::Ok();
}

void EmbeddingStore::Scan(const float* query, bool use_index,
                          Scratch* scratch) const {
  scratch->rows.clear();
  if (use_index && index_ != nullptr) {
    obs::ScopedTimer timer(ScanHistogram());
    index_->AppendCandidates(query, &scratch->ann, &scratch->rows);
    Score(query, scratch);
    return;
  }
  scratch->rows.resize(n_);
  std::iota(scratch->rows.begin(), scratch->rows.end(), uint32_t{0});
  Score(query, scratch);
}

void EmbeddingStore::Score(const float* query, Scratch* scratch) const {
  const size_t count = scratch->rows.size();
  const uint32_t* rows = scratch->rows.data();
  scratch->d2.resize(count);
  double* d2 = scratch->d2.data();
  if (!int8_) {
    ParallelForChunks(0, count, kScanGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        d2[i] = SquaredL2(query, values_.data() + rows[i] * dim_, dim_);
      }
    });
    return;
  }
  scratch->q_query.resize(dim_);
  int8_t* qx = scratch->q_query.data();
  const double sq = QuantizeRowInt8(query, dim_, qx);
  const int32_t query_norm = SquaredNormInt8(qx, dim_);
  scratch->dots.resize(count);
  int32_t* dots = scratch->dots.data();
  ParallelForChunks(0, count, kScanGrain, [&](size_t lo, size_t hi) {
    // One kernel call per chunk, then the exact-rescale epilogue over it.
    DotInt8Rows(qx, codes_.data(), dim_, rows + lo, hi - lo, dots + lo);
    for (size_t i = lo; i < hi; ++i) {
      const size_t r = rows[i];
      const double si = scales_[r];
      const double d = sq * sq * query_norm - 2.0 * sq * si * dots[i] +
                       si * si * norms_[r];
      d2[i] = std::max(0.0, d);
    }
  });
}

}  // namespace magneto::core
