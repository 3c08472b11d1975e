#ifndef MAGNETO_CORE_EDGE_MODEL_H_
#define MAGNETO_CORE_EDGE_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/embedder.h"
#include "core/ncm_classifier.h"
#include "core/support_set.h"
#include "nn/sequential.h"
#include "preprocess/pipeline.h"
#include "sensors/activity.h"
#include "sensors/recording.h"

namespace magneto::core {

struct ModelBundle;

/// A prediction enriched with the human-readable activity name.
struct NamedPrediction {
  Prediction prediction;
  std::string name;
};

/// The complete on-device model: preprocessing function + embedding backbone
/// + NCM classifier + activity registry. Exactly the set of items §3.2 lists
/// as "transferred into the Edge device".
///
/// Move-only (owns the backbone). Implements `Embedder` so support-set
/// herding and prototype building can use it directly.
class EdgeModel : public Embedder {
 public:
  EdgeModel(preprocess::Pipeline pipeline, nn::Sequential backbone,
            NcmClassifier classifier, sensors::ActivityRegistry registry);

  EdgeModel(EdgeModel&&) noexcept = default;
  EdgeModel& operator=(EdgeModel&&) noexcept = default;

  /// Deep copy (backbone weights included). The incremental learner stages
  /// every update on one while the original keeps serving inference.
  EdgeModel Clone() const {
    EdgeModel copy(pipeline_, backbone_.Clone(), classifier_, registry_);
    copy.rejection_threshold_ = rejection_threshold_;
    return copy;
  }

  // -- Embedder ---------------------------------------------------------------

  /// Embeds preprocessed feature vectors (inference mode) through the
  /// model's own workspace. Single-owner semantics, like the rest of
  /// EdgeModel; concurrent serving goes through EdgeFleet, which forwards
  /// the shared backbone with per-thread workspaces.
  Matrix Embed(const Matrix& features) override;
  size_t embedding_dim() const override;

  // -- Inference --------------------------------------------------------------

  /// Full path for one raw window (window_samples x 22): denoise ->
  /// featurise -> normalise -> embed -> NCM.
  Result<NamedPrediction> InferWindow(const Matrix& raw_window);

  /// Segments a recording and predicts each complete window.
  Result<std::vector<NamedPrediction>> InferRecording(
      const sensors::Recording& recording);

  /// Classifies an already-preprocessed feature vector.
  Result<NamedPrediction> InferFeatures(const std::vector<float>& features);

  /// Concurrent-serving variant: embeds through `workspace` and scans
  /// through `scratch` instead of the model's own, leaving the model
  /// untouched — `Forward` is const, so N threads may call this on one
  /// shared model, each with its own workspace and scratch.
  /// `CloudServer::RemoteInfer` serves through this path.
  Result<NamedPrediction> InferFeatures(const std::vector<float>& features,
                                        nn::ForwardWorkspace* workspace,
                                        NcmClassifier::Scratch* scratch) const;

  /// Labels one embedding (NCM, open-set rejection when a threshold is set):
  /// the classify step of every inference path, `EdgeFleet`'s included.
  Result<Prediction> Classify(const float* embedding, size_t n,
                              NcmClassifier::Scratch* scratch) const;

  /// Attaches the registry name ("Unknown" for a rejection, "#<id>" for an
  /// id the registry does not know).
  NamedPrediction WithName(const Prediction& prediction) const;

  /// Evaluates on a labeled feature dataset; returns (truth, predicted)
  /// pairs for metric computation.
  Result<std::vector<std::pair<sensors::ActivityId, sensors::ActivityId>>>
  Predict(const sensors::FeatureDataset& data);

  // -- Open-set rejection --------------------------------------------------------

  /// Enables open-set rejection: windows whose embedding is farther than
  /// `threshold` from every prototype predict "Unknown" instead of the
  /// nearest known activity. Pass 0 to disable (the default).
  void set_rejection_threshold(double threshold) {
    rejection_threshold_ = threshold;
  }
  double rejection_threshold() const { return rejection_threshold_; }

  // -- Model surgery (used by the incremental learner) -------------------------

  /// Recomputes every NCM prototype from `support` through the current
  /// backbone, keeping the classifier's int8 and ANN serving config. Call
  /// after any backbone update.
  Status RebuildPrototypes(const SupportSet& support);

  /// Turns the classifier's approximate prototype index on for this model
  /// (runtime serving config, never serialized). The setting survives
  /// `RebuildPrototypes` and so every incremental update: it goes through
  /// `NcmClassifier::Rebuild`, which re-trains the index on the fresh
  /// prototypes.
  Status EnableAnn(AnnOptions options) {
    return classifier_.EnableAnn(options);
  }
  void DisableAnn() { classifier_.DisableAnn(); }

  // -- Mutable knowledge -------------------------------------------------------

  /// The mutable knowledge of the model — everything an incremental update
  /// may change (the pipeline is frozen).
  struct Snapshot {
    nn::Sequential backbone;
    NcmClassifier classifier;
    sensors::ActivityRegistry registry;
    double rejection_threshold = 0.0;
  };

  /// Deep copy of the mutable state (backbone weights included).
  Snapshot TakeSnapshot() const;

  // -- Accessors ---------------------------------------------------------------

  const preprocess::Pipeline& pipeline() const { return pipeline_; }
  nn::Sequential& backbone() { return backbone_; }
  const nn::Sequential& backbone() const { return backbone_; }
  const NcmClassifier& classifier() const { return classifier_; }
  sensors::ActivityRegistry& registry() { return registry_; }
  const sensors::ActivityRegistry& registry() const { return registry_; }

  /// Serialised size of backbone parameters in bytes (fp32), for the
  /// footprint benchmarks.
  size_t BackboneBytes() const;

 private:
  friend struct ModelBundle;  // FromEdgeModel moves the parts out

  preprocess::Pipeline pipeline_;
  nn::Sequential backbone_;
  NcmClassifier classifier_;
  sensors::ActivityRegistry registry_;
  double rejection_threshold_ = 0.0;
  nn::ForwardWorkspace embed_ws_;  ///< reused across Embed calls
  /// Reused by the single-owner inference paths (InferFeatures / Predict),
  /// keeping the classifier scan allocation-free like embed_ws_ does for
  /// the forward pass. The concurrent const path takes a caller-owned one.
  NcmClassifier::Scratch classify_scratch_;
};

/// Computes an open-set rejection threshold empirically: the `percentile`
/// (in [0, 1]) of nearest-prototype distances over known-activity
/// `recordings`, scaled by `headroom`. Typical use: percentile 1.0 (the max
/// known distance) with headroom 1.5, right after provisioning or any
/// update. Fails if the recordings yield no complete windows.
Result<double> CalibrateRejectionThreshold(
    EdgeModel* model, const std::vector<sensors::Recording>& recordings,
    double percentile = 1.0, double headroom = 1.5);

}  // namespace magneto::core

#endif  // MAGNETO_CORE_EDGE_MODEL_H_
