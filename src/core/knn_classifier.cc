#include "core/knn_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace magneto::core {

namespace {

float SanitizeDistance(float d2) {
  // A NaN (from a non-finite stored or query embedding) would violate
  // partial_sort's strict weak ordering — UB, not just a bad ranking.
  return std::isfinite(d2) ? d2 : std::numeric_limits<float>::infinity();
}

}  // namespace

Result<KnnClassifier> KnnClassifier::FromSupportSet(const SupportSet& support,
                                                    Embedder* embedder,
                                                    Options options) {
  if (embedder == nullptr) {
    return Status::InvalidArgument("embedder must not be null");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (support.NumClasses() == 0) {
    return Status::InvalidArgument("support set is empty");
  }

  KnnClassifier knn;
  knn.options_ = options;

  sensors::FeatureDataset all = support.AsDataset();
  const Matrix embeddings = embedder->Embed(all.ToMatrix());
  knn.labels_ = all.labels();
  knn.store_ = EmbeddingStore(embeddings, options.quantize_exemplars);
  // The coarse quantizer trains on the fp32 embeddings, not the int8 codes,
  // so fp32 and int8 classifiers built from the same support probe
  // identical lists.
  MAGNETO_RETURN_IF_ERROR(knn.store_.RebuildIndex(options.ann, &embeddings));
  return knn;
}

Result<size_t> KnnClassifier::ScanTopK(const float* embedding, size_t n,
                                       size_t k, Scratch* scratch) const {
  if (scratch == nullptr) {
    return Status::InvalidArgument("scratch must not be null");
  }
  if (labels_.empty()) {
    return Status::FailedPrecondition("classifier has no exemplars");
  }
  if (n != store_.dim()) {
    return Status::InvalidArgument("embedding dim " + std::to_string(n) +
                                   " != classifier dim " +
                                   std::to_string(store_.dim()));
  }

  // Squared distances to the scanned exemplars; ranking by squared distance
  // is order-identical (sqrt is monotone), so the single sqrt per reported
  // neighbour is deferred to the vote/margin computation in Classify. The
  // caller's scratch is reused across calls to keep the per-query cost
  // allocation-free without the hidden process-lifetime footprint of a
  // `static thread_local` buffer.
  store_.Scan(embedding, /*use_index=*/true, &scratch->store);
  const std::vector<uint32_t>& rows = scratch->store.rows;
  const std::vector<double>& d2 = scratch->store.d2;
  std::vector<std::pair<float, uint32_t>>& dist = scratch->dist;
  dist.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    dist[i] = {SanitizeDistance(static_cast<float>(d2[i])), rows[i]};
  }
  const size_t top = std::min(k, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + top, dist.end());
  return top;
}

Result<std::vector<std::pair<float, uint32_t>>> KnnClassifier::Neighbors(
    const float* embedding, size_t n, size_t k, Scratch* scratch) const {
  MAGNETO_ASSIGN_OR_RETURN(size_t top, ScanTopK(embedding, n, k, scratch));
  return std::vector<std::pair<float, uint32_t>>(scratch->dist.begin(),
                                                 scratch->dist.begin() + top);
}

Result<Prediction> KnnClassifier::Classify(const float* embedding, size_t n,
                                           Scratch* scratch) const {
  MAGNETO_ASSIGN_OR_RETURN(size_t k,
                           ScanTopK(embedding, n, options_.k, scratch));
  const std::vector<std::pair<float, uint32_t>>& dist = scratch->dist;

  std::map<sensors::ActivityId, double> votes;
  std::map<sensors::ActivityId, double> nearest;
  double total_vote = 0.0;
  for (size_t j = 0; j < k; ++j) {
    const auto& [d2, idx] = dist[j];
    const double d = std::sqrt(static_cast<double>(d2));
    const sensors::ActivityId label = labels_[idx];
    const double w = options_.distance_weighted ? 1.0 / (d + 1e-6) : 1.0;
    votes[label] += w;
    total_vote += w;
    auto it = nearest.find(label);
    if (it == nearest.end() || d < it->second) nearest[label] = d;
  }

  Prediction pred;
  double best = -1.0;
  double best_near = std::numeric_limits<double>::infinity();
  for (const auto& [label, vote] : votes) {
    // Equal vote mass is broken by the nearer nearest-exemplar, not by the
    // ordered-map iteration (which would always hand ties to the lowest
    // ActivityId regardless of geometry).
    const double near = nearest.find(label)->second;
    if (vote > best || (vote == best && near < best_near)) {
      best = vote;
      best_near = near;
      pred.activity = label;
    }
  }
  pred.distance = best_near;
  pred.confidence = total_vote > 0.0 ? best / total_vote : 0.0;
  return pred;
}

}  // namespace magneto::core
