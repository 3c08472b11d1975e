#ifndef MAGNETO_CORE_NCM_CLASSIFIER_H_
#define MAGNETO_CORE_NCM_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/serial.h"
#include "core/ann_index.h"
#include "core/embedder.h"
#include "core/embedding_store.h"
#include "core/support_set.h"
#include "sensors/activity.h"

namespace magneto::core {

/// Sentinel id for open-set rejection: "none of the known activities".
inline constexpr sensors::ActivityId kUnknownActivity = -1;

/// One inference outcome.
struct Prediction {
  sensors::ActivityId activity = kUnknownActivity;
  double distance = 0.0;    ///< Euclidean distance to the winning prototype
  double confidence = 0.0;  ///< softmax over negative distances
  bool is_unknown() const { return activity == kUnknownActivity; }
};

/// Nearest-class-mean classifier over the embedding space (§3.1).
///
/// The decisive property for MAGNETO: adding a class is *one mean
/// computation* — no output-layer surgery, no softmax retraining — which is
/// why the platform can learn user activities on-device in seconds. Each
/// prototype is the mean embedding of that class's support exemplars.
///
/// Storage: one `EmbeddingStore` row per prototype, in ascending
/// `ActivityId` order, with a parallel sorted id vector. The store owns the
/// fp32/int8 scan and the optional ANN index; this class owns the ranking.
class NcmClassifier {
 public:
  /// Reusable per-query workspace, mirroring `KnnClassifier::Scratch`: the
  /// serving hot path (`EdgeFleet::ServeBatch`, `EdgeModel` inference) used
  /// to allocate a fresh distance vector and int8 query buffer per call.
  /// Distinct threads must use distinct instances; predictions are
  /// byte-identical with or without one.
  struct Scratch {
    std::vector<std::pair<sensors::ActivityId, double>> dist;
    EmbeddingStore::Scratch store;
  };

  NcmClassifier() = default;

  /// Builds/overwrites the prototype of one class from its embeddings
  /// (rows = exemplar embeddings).
  Status SetPrototypeFromEmbeddings(sensors::ActivityId id,
                                    const Matrix& embeddings);

  /// Builds all prototypes from a support set, embedding every exemplar
  /// through `embedder`, into a fresh fp32 exact-scan classifier.
  static Result<NcmClassifier> FromSupportSet(const SupportSet& support,
                                              Embedder* embedder);

  /// Replaces every prototype with one rebuilt from `support` (embedded
  /// through `embedder`), keeping this classifier's serving config: an int8
  /// classifier stays int8 and an ANN-enabled one re-trains its index on the
  /// new prototypes. The classifier is unchanged on error. This is the one
  /// rebuild path, behind `EdgeModel::RebuildPrototypes` (which every
  /// incremental update calls on its staged copy of the model).
  Status Rebuild(const SupportSet& support, Embedder* embedder);

  Status RemoveClass(sensors::ActivityId id);

  size_t num_classes() const { return ids_.size(); }
  size_t embedding_dim() const { return store_.dim(); }
  bool HasClass(sensors::ActivityId id) const;
  /// Class ids in ascending order.
  std::vector<sensors::ActivityId> Classes() const { return ids_; }

  Result<std::vector<float>> Prototype(sensors::ActivityId id) const;

  /// Classifies one embedding (length must equal embedding_dim()).
  /// `scratch` is reused across calls to keep the query allocation-free;
  /// the scratch-free overloads allocate a local one.
  Result<Prediction> Classify(const float* embedding, size_t n,
                              Scratch* scratch) const;
  Result<Prediction> Classify(const float* embedding, size_t n) const {
    Scratch local;
    return Classify(embedding, n, &local);
  }
  Result<Prediction> Classify(const std::vector<float>& embedding) const {
    return Classify(embedding.data(), embedding.size());
  }

  /// Open-set variant: if the nearest prototype is farther than
  /// `reject_threshold`, the prediction is `kUnknownActivity` (the distance
  /// and confidence of the would-be winner are preserved for display).
  /// A practical threshold is a small multiple of the typical intra-class
  /// distance in the trained embedding — see `CalibrateRejectionThreshold`.
  Result<Prediction> ClassifyWithRejection(const float* embedding, size_t n,
                                           double reject_threshold,
                                           Scratch* scratch) const;
  Result<Prediction> ClassifyWithRejection(const float* embedding, size_t n,
                                           double reject_threshold) const {
    Scratch local;
    return ClassifyWithRejection(embedding, n, reject_threshold, &local);
  }

  /// Distance to every prototype, ascending by distance.
  Result<std::vector<std::pair<sensors::ActivityId, double>>> Distances(
      const float* embedding, size_t n) const;

  /// Switches the classifier to int8 prototype scans: every prototype is
  /// quantized (symmetric per-vector, like the support-set wire format) and
  /// queries are scanned with the exact-rescale distance
  ///   d² = sq²·Σqx² − 2·sq·si·(qx·qi) + si²·Σqi².
  /// Only the int8 codes are kept: `Prototype`/`Serialize` report the
  /// dequantized values, exactly what the scan sees — which also makes
  /// re-quantization after a round trip exact (the max-|q| element is
  /// always ±127, so the recovered scale is bit-identical). Prototypes added
  /// later via `SetPrototypeFromEmbeddings` are quantized on entry.
  /// FailedPrecondition if the classifier is empty.
  Status QuantizePrototypes();
  bool quantized() const { return store_.int8(); }

  // -- Approximate prototype index ---------------------------------------------
  //
  // Runtime serving configuration, deliberately *not* serialized: a
  // deserialized classifier always starts exact, and wire bytes are
  // unchanged from the pre-ANN format.

  /// Turns the ANN path on (`options.enable` is forced true) and builds the
  /// index if the vocabulary already has `options.min_index_size` classes.
  /// Rebuild-on-mutation from then on: `SetPrototypeFromEmbeddings`,
  /// `RemoveClass`, `QuantizePrototypes` and `Rebuild` re-train the coarse
  /// quantizer (on the prototypes the scan sees) so the index is never
  /// stale — below the size threshold the classifier falls back to the
  /// exact scan.
  Status EnableAnn(AnnOptions options);
  /// Drops the index and returns to exact scans.
  void DisableAnn();
  bool ann_enabled() const { return ann_options_.enable; }
  /// True when queries actually route through the index right now.
  bool ann_active() const { return store_.indexed(); }
  const AnnOptions& ann_options() const { return ann_options_; }

  /// Prototypes in ascending id order, as fp32 (dequantized when int8).
  void Serialize(BinaryWriter* writer) const;
  /// Corruption on a prototype of the wrong width or a repeated class id.
  static Result<NcmClassifier> Deserialize(BinaryReader* reader);

 private:
  /// Index of `id` in `ids_`, or of the first larger id.
  size_t LowerBound(sensors::ActivityId id) const;

  /// Scans the store (through the ANN index when `use_index`) into
  /// `scratch->dist`, ascending by distance.
  Status DistancesInto(const float* embedding, size_t n, bool use_index,
                       Scratch* scratch) const;

  std::vector<sensors::ActivityId> ids_;  ///< ascending; row i of store_
  EmbeddingStore store_;
  AnnOptions ann_options_;  ///< .enable records the EnableAnn decision
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_NCM_CLASSIFIER_H_
