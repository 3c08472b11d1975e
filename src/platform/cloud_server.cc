#include "platform/cloud_server.h"

#include "compress/compress.h"
#include "core/model_bundle.h"
#include "nn/workspace.h"

namespace magneto::platform {

Status CloudServer::Pretrain(
    const std::vector<sensors::LabeledRecording>& corpus,
    const sensors::ActivityRegistry& registry) {
  core::CloudReport report;
  auto bundle = initializer_.Initialize(corpus, registry, &report);
  if (!bundle.ok()) return bundle.status();
  return AdoptBundle(std::move(bundle).value());
}

Status CloudServer::AdoptBundle(core::ModelBundle bundle) {
  if (pretrained()) {
    return Status::FailedPrecondition("server already holds a model");
  }
  if (!bundle.pipeline.fitted()) {
    return Status::InvalidArgument("adopted bundle has an unfitted pipeline");
  }
  bundle_bytes_ = bundle.SerializeToString();
  model_ = std::make_unique<core::EdgeModel>(std::move(bundle).ToEdgeModel());
  return Status::Ok();
}

Result<std::string> CloudServer::ServeBundleBytes() const {
  if (!pretrained()) {
    return Status::FailedPrecondition("server has not pretrained a model");
  }
  return bundle_bytes_;
}

Result<std::string> CloudServer::EncodeQuantizedBundle(
    const std::string& fp32_bytes) {
  // Same flow as the CLI's `compress --method int8`: quantize the backbone,
  // switch the classifier to int8 scans, rebuild the prototypes through the
  // quantized embedding (they must match what the device will compute), and
  // ship the whole thing on wire v3.
  MAGNETO_ASSIGN_OR_RETURN(core::ModelBundle bundle,
                           core::ModelBundle::FromString(fp32_bytes));
  MAGNETO_ASSIGN_OR_RETURN(bundle.backbone,
                           compress::QuantizeBackbone(bundle.backbone));
  // Quantized first: the rebuild keeps the classifier's int8 config, so
  // the rebuilt prototypes are quantized exactly as the device scans them.
  MAGNETO_RETURN_IF_ERROR(bundle.classifier.QuantizePrototypes());
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();
  MAGNETO_RETURN_IF_ERROR(model.RebuildPrototypes(support));
  return core::ModelBundle::FromEdgeModel(std::move(model), std::move(support))
      .SerializeToString();
}

Result<std::string> CloudServer::ServeQuantizedBundleBytes() const {
  if (!pretrained()) {
    return Status::FailedPrecondition("server has not pretrained a model");
  }
  // Exactly one caller builds the encoding; concurrent first callers block
  // here until it is cached, then everyone reads the immutable bytes. (The
  // previous unguarded lazy cache let one thread write the string while
  // another moved it out — the PR 9 regression test races this path.)
  std::call_once(quant_once_, [this] {
    auto encoded = EncodeQuantizedBundle(bundle_bytes_);
    if (encoded.ok()) {
      quantized_bundle_bytes_ = std::move(encoded).value();
    } else {
      quant_status_ = encoded.status();
    }
  });
  if (!quant_status_.ok()) return quant_status_;
  return quantized_bundle_bytes_;
}

Result<core::NamedPrediction> CloudServer::RemoteInfer(
    const std::vector<float>& features) const {
  if (!pretrained()) {
    return Status::FailedPrecondition("server has not pretrained a model");
  }
  // One forward workspace and classifier scratch per serving thread: the
  // shared model's weights are read-only, so concurrent requests never
  // synchronize. Both resize to whatever model they last served, making
  // them safe to share across CloudServer instances on the same thread.
  thread_local nn::ForwardWorkspace workspace;
  thread_local core::NcmClassifier::Scratch scratch;
  return model_->InferFeatures(features, &workspace, &scratch);
}

}  // namespace magneto::platform
