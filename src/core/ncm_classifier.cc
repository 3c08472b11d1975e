#include "core/ncm_classifier.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

namespace magneto::core {

namespace {

double SanitizeDistance(double d) {
  // A NaN (from a non-finite prototype or query embedding) would violate
  // std::sort's strict weak ordering — UB, not just a bad ranking.
  return std::isfinite(d) ? d : std::numeric_limits<double>::infinity();
}

}  // namespace

Status NcmClassifier::SetPrototypeFromEmbeddings(sensors::ActivityId id,
                                                 const Matrix& embeddings) {
  if (embeddings.rows() == 0) {
    return Status::InvalidArgument("no embeddings for class " +
                                   std::to_string(id));
  }
  if (store_.dim() == 0 && store_.size() == 0) {
    store_ = EmbeddingStore(embeddings.cols(), store_.int8());
  } else if (embeddings.cols() != store_.dim()) {
    return Status::InvalidArgument("embedding dim mismatch: expected " +
                                   std::to_string(store_.dim()) + ", got " +
                                   std::to_string(embeddings.cols()));
  }
  const Matrix mean = embeddings.ColMean();
  const size_t pos = LowerBound(id);
  if (pos < ids_.size() && ids_[pos] == id) {
    store_.Erase(pos);
  } else {
    ids_.insert(ids_.begin() + pos, id);
  }
  store_.Insert(pos, mean.data());
  return store_.RebuildIndex(ann_options_);
}

Status NcmClassifier::QuantizePrototypes() {
  if (ids_.empty()) {
    return Status::FailedPrecondition("classifier has no prototypes");
  }
  store_ = EmbeddingStore(store_.Rows(), /*int8=*/true);
  // Quantization moved every prototype (to its dequantized value), so the
  // coarse quantizer must re-train on what the scan now sees.
  return store_.RebuildIndex(ann_options_);
}

Result<NcmClassifier> NcmClassifier::FromSupportSet(const SupportSet& support,
                                                    Embedder* embedder) {
  NcmClassifier ncm;
  MAGNETO_RETURN_IF_ERROR(ncm.Rebuild(support, embedder));
  return ncm;
}

Status NcmClassifier::Rebuild(const SupportSet& support, Embedder* embedder) {
  if (embedder == nullptr) {
    return Status::InvalidArgument("embedder must not be null");
  }
  const std::vector<sensors::ActivityId> ids = support.Classes();
  if (ids.empty()) {
    return Status::InvalidArgument("support set is empty");
  }

  // Embed every exemplar in one batched forward: one large pool-parallel
  // GEMM per layer instead of num_classes small ones. Row-wise kernels make
  // the stacked embeddings identical to per-class ones. `AsDataset` stacks
  // the classes in ascending id order, so class c owns the next
  // `ClassSize` rows; the store (and its index) is then built once.
  const Matrix embeddings = embedder->Embed(support.AsDataset().ToMatrix());
  Matrix means(ids.size(), embeddings.cols());
  size_t row = 0;
  for (size_t c = 0; c < ids.size(); ++c) {
    const size_t rows = support.ClassSize(ids[c]);
    if (rows == 0) {
      return Status::InvalidArgument("no embeddings for class " +
                                     std::to_string(ids[c]));
    }
    const Matrix mean = embeddings.RowSlice(row, row + rows).ColMean();
    std::memcpy(means.RowPtr(c), mean.data(), means.cols() * sizeof(float));
    row += rows;
  }
  NcmClassifier rebuilt;
  rebuilt.ids_ = ids;
  rebuilt.store_ = EmbeddingStore(means, quantized());
  rebuilt.ann_options_ = ann_options_;
  MAGNETO_RETURN_IF_ERROR(rebuilt.store_.RebuildIndex(ann_options_));
  *this = std::move(rebuilt);
  return Status::Ok();
}

size_t NcmClassifier::LowerBound(sensors::ActivityId id) const {
  return static_cast<size_t>(
      std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
}

bool NcmClassifier::HasClass(sensors::ActivityId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

Status NcmClassifier::RemoveClass(sensors::ActivityId id) {
  const size_t pos = LowerBound(id);
  if (pos == ids_.size() || ids_[pos] != id) {
    return Status::NotFound("class not in classifier: " + std::to_string(id));
  }
  ids_.erase(ids_.begin() + pos);
  store_.Erase(pos);
  return store_.RebuildIndex(ann_options_);
}

Status NcmClassifier::EnableAnn(AnnOptions options) {
  options.enable = true;
  ann_options_ = options;
  return store_.RebuildIndex(ann_options_);
}

void NcmClassifier::DisableAnn() {
  ann_options_ = AnnOptions{};
  store_.DropIndex();
}

Result<std::vector<float>> NcmClassifier::Prototype(
    sensors::ActivityId id) const {
  const size_t pos = LowerBound(id);
  if (pos == ids_.size() || ids_[pos] != id) {
    return Status::NotFound("class not in classifier: " + std::to_string(id));
  }
  std::vector<float> proto(store_.dim());
  store_.CopyRow(pos, proto.data());
  return proto;
}

Status NcmClassifier::DistancesInto(const float* embedding, size_t n,
                                    bool use_index, Scratch* scratch) const {
  if (ids_.empty()) {
    return Status::FailedPrecondition("classifier has no prototypes");
  }
  if (n != store_.dim()) {
    return Status::InvalidArgument("embedding dim " + std::to_string(n) +
                                   " != classifier dim " +
                                   std::to_string(store_.dim()));
  }
  store_.Scan(embedding, use_index, &scratch->store);
  const std::vector<uint32_t>& rows = scratch->store.rows;
  const std::vector<double>& d2 = scratch->store.d2;
  std::vector<std::pair<sensors::ActivityId, double>>& out = scratch->dist;
  out.clear();
  out.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    // fp32: the float sqrt of the float squared distance; int8: the double
    // sqrt of the exact-rescale distance.
    const double d = quantized() ? std::sqrt(d2[i])
                                 : std::sqrt(static_cast<float>(d2[i]));
    out.emplace_back(ids_[rows[i]], SanitizeDistance(d));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return Status::Ok();
}

Result<std::vector<std::pair<sensors::ActivityId, double>>>
NcmClassifier::Distances(const float* embedding, size_t n) const {
  // Always the exact full scan: Distances promises the distance to *every*
  // prototype (drift monitoring, calibration); only Classify routes through
  // the ANN candidate subset.
  Scratch local;
  MAGNETO_RETURN_IF_ERROR(
      DistancesInto(embedding, n, /*use_index=*/false, &local));
  return std::move(local.dist);
}

Result<Prediction> NcmClassifier::Classify(const float* embedding, size_t n,
                                           Scratch* scratch) const {
  if (scratch == nullptr) {
    return Status::InvalidArgument("scratch must not be null");
  }
  MAGNETO_RETURN_IF_ERROR(
      DistancesInto(embedding, n, /*use_index=*/true, scratch));

  const std::vector<std::pair<sensors::ActivityId, double>>& distances =
      scratch->dist;
  Prediction pred;
  pred.activity = distances.front().first;
  pred.distance = distances.front().second;
  // Confidence: softmax over negative distances. Under ANN this normalizes
  // over the probed candidates (the prediction and distance are the exact
  // rerank; only the normalization pool shrinks).
  double denom = 0.0;
  const double dmin = distances.front().second;
  for (const auto& [id, d] : distances) denom += std::exp(dmin - d);
  pred.confidence = 1.0 / denom;
  return pred;
}

Result<Prediction> NcmClassifier::ClassifyWithRejection(
    const float* embedding, size_t n, double reject_threshold,
    Scratch* scratch) const {
  MAGNETO_ASSIGN_OR_RETURN(Prediction pred, Classify(embedding, n, scratch));
  if (pred.distance > reject_threshold) pred.activity = kUnknownActivity;
  return pred;
}

void NcmClassifier::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(store_.dim());
  writer->WriteU64(ids_.size());
  std::vector<float> proto(store_.dim());
  for (size_t r = 0; r < ids_.size(); ++r) {
    store_.CopyRow(r, proto.data());
    writer->WriteI64(ids_[r]);
    writer->WriteF32Vector(proto);
  }
}

Result<NcmClassifier> NcmClassifier::Deserialize(BinaryReader* reader) {
  MAGNETO_ASSIGN_OR_RETURN(uint64_t dim, reader->ReadU64());
  MAGNETO_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  std::map<sensors::ActivityId, std::vector<float>> protos;
  for (uint64_t i = 0; i < n; ++i) {
    MAGNETO_ASSIGN_OR_RETURN(int64_t id, reader->ReadI64());
    MAGNETO_ASSIGN_OR_RETURN(std::vector<float> proto,
                             reader->ReadF32Vector());
    if (proto.size() != dim) {
      return Status::Corruption("prototype dim mismatch");
    }
    if (!protos.emplace(id, std::move(proto)).second) {
      return Status::Corruption("repeated prototype class id " +
                                std::to_string(id));
    }
  }
  NcmClassifier ncm;
  ncm.store_ = EmbeddingStore(dim, /*int8=*/false);
  for (const auto& [id, proto] : protos) {
    ncm.store_.Insert(ncm.ids_.size(), proto.data());
    ncm.ids_.push_back(id);
  }
  return ncm;
}

}  // namespace magneto::core
