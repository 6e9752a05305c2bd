#include "ats/samplers/multi_objective.h"

#include <algorithm>

#include "ats/util/check.h"

namespace {
constexpr uint32_t kMultiObjectiveMagic = 0x31424f4d;  // "MOB1"
constexpr uint32_t kMultiObjectiveVersion = 2;
}  // namespace

namespace ats {

MultiObjectiveSampler::MultiObjectiveSampler(size_t num_objectives, size_t k,
                                             uint64_t seed)
    : rng_(seed) {
  ATS_CHECK(num_objectives >= 1);
  sketches_.reserve(num_objectives);
  for (size_t j = 0; j < num_objectives; ++j) sketches_.emplace_back(k);
}

void MultiObjectiveSampler::Add(uint64_t key,
                                const std::vector<double>& weights,
                                double value) {
  ATS_CHECK(weights.size() == sketches_.size());
  // One shared uniform per item coordinates the per-objective priorities.
  const double u = rng_.NextDoubleOpenZero();
  for (size_t j = 0; j < sketches_.size(); ++j) {
    ATS_CHECK(weights[j] > 0.0);
    sketches_[j].Offer(u / weights[j], Stored{key, value, weights[j]});
  }
}

size_t MultiObjectiveSampler::CombinedSize() const {
  std::unordered_set<uint64_t> keys;
  for (const auto& sketch : sketches_) {
    for (const Stored& item : sketch.store().payloads()) {
      keys.insert(item.key);
    }
  }
  return keys.size();
}

double MultiObjectiveSampler::Threshold(size_t objective) const {
  ATS_CHECK(objective < sketches_.size());
  return sketches_[objective].Threshold();
}

std::vector<SampleEntry> MultiObjectiveSampler::Sample(
    size_t objective) const {
  ATS_CHECK(objective < sketches_.size());
  const auto& sketch = sketches_[objective];
  const std::vector<double>& priorities = sketch.store().priorities();
  const std::vector<Stored>& items = sketch.store().payloads();
  const double threshold = sketch.Threshold();
  std::vector<SampleEntry> out;
  out.reserve(priorities.size());
  for (size_t i = 0; i < priorities.size(); ++i) {
    SampleEntry s;
    s.key = items[i].key;
    s.value = items[i].value;
    s.priority = priorities[i];
    s.threshold = threshold;
    s.dist = PriorityDist::WeightedUniform(items[i].weight);
    out.push_back(s);
  }
  return out;
}

void MultiObjectiveSampler::Merge(const MultiObjectiveSampler& other) {
  if (&other == this) return;
  ATS_CHECK(other.sketches_.size() == sketches_.size());
  for (size_t j = 0; j < sketches_.size(); ++j) {
    sketches_[j].Merge(other.sketches_[j]);
  }
}

void MultiObjectiveSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kMultiObjectiveMagic, kMultiObjectiveVersion);
  w.WriteU64(sketches_.size());
  w.WriteU64(sketches_.front().k());
  WriteRngState(w, rng_.State());
  for (const BottomK<Stored>& sketch : sketches_) {
    // Length-prefixed nested body: the reader can hand each objective's
    // segment to the nested parser without trusting its self-description.
    ByteWriter nested;
    sketch.SerializeTo(nested);
    w.WriteU64(nested.bytes().size());
    w.WriteBytes(nested.bytes());
  }
}

std::optional<MultiObjectiveSampler> MultiObjectiveSampler::Deserialize(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kMultiObjectiveMagic, kMultiObjectiveVersion)) {
    return std::nullopt;
  }
  const auto num_objectives = r.ReadU64();
  const auto k = r.ReadU64();
  if (!num_objectives || !k) return std::nullopt;
  if (*num_objectives < 1 || *k < 1) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  MultiObjectiveSampler sampler(1, static_cast<size_t>(*k), /*seed=*/1);
  sampler.rng_.SetState(*rng_state);
  sampler.sketches_.clear();
  for (uint64_t j = 0; j < *num_objectives; ++j) {
    const auto body_len = r.ReadU64();
    if (!body_len) return std::nullopt;
    const std::string_view rest = r.Rest();
    if (*body_len > rest.size()) return std::nullopt;
    ByteReader nested(rest.substr(0, static_cast<size_t>(*body_len)));
    auto sketch = BottomK<Stored>::Deserialize(nested);
    if (!sketch || !nested.AtEnd() || sketch->k() != *k) return std::nullopt;
    sampler.sketches_.push_back(std::move(*sketch));
    r.Skip(static_cast<size_t>(*body_len));
  }
  return sampler;
}

FrameFault MultiObjectiveSampler::DiagnoseFrame(std::string_view frame) {
  const FrameFault f =
      ClassifyFrameBytes(frame, kMultiObjectiveMagic, kMultiObjectiveVersion);
  if (f != FrameFault::kNone) return f;
  return Deserialize(frame).has_value() ? FrameFault::kNone
                                        : FrameFault::kCorruptBody;
}

std::optional<MultiObjectiveSampler::FrameView>
MultiObjectiveSampler::DeserializeView(std::string_view frame) {
  auto r = OpenCheckedFrame(frame, kMultiObjectiveMagic,
                            kMultiObjectiveVersion);
  if (!r) return std::nullopt;
  const auto num_objectives = r->ReadU64();
  const auto k = r->ReadU64();
  if (!num_objectives || !k) return std::nullopt;
  if (*num_objectives < 1 || *k < 1) return std::nullopt;
  if (!ReadRngState(*r)) return std::nullopt;
  FrameView view;
  view.k_ = static_cast<size_t>(*k);
  view.objectives_.reserve(static_cast<size_t>(
      std::min<uint64_t>(*num_objectives, 1024)));
  for (uint64_t j = 0; j < *num_objectives; ++j) {
    const auto body_len = r->ReadU64();
    if (!body_len) return std::nullopt;
    const std::string_view rest = r->Rest();
    if (*body_len > rest.size()) return std::nullopt;
    auto nested =
        BottomK<Stored>::ViewBody(rest.substr(0, static_cast<size_t>(*body_len)));
    if (!nested || nested->k() != *k) return std::nullopt;
    view.objectives_.push_back(*nested);
    r->Skip(static_cast<size_t>(*body_len));
  }
  if (!r->AtEnd()) return std::nullopt;
  return view;
}

bool MultiObjectiveSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  // Vet every frame before the first one is applied (all-or-nothing).
  std::vector<FrameView> views;
  views.reserve(frames.size());
  for (std::string_view f : frames) {
    auto view = DeserializeView(f);
    if (!view || view->num_objectives() != sketches_.size()) return false;
    views.push_back(std::move(*view));
  }
  if (views.empty()) return true;  // strict no-op, like MergeMany({})
  // Objective-wise threshold-pruned application: observationally equal
  // to the per-frame Merge() chain, objective by objective.
  std::vector<BottomK<Stored>::FrameView> per_objective;
  per_objective.reserve(views.size());
  for (size_t j = 0; j < sketches_.size(); ++j) {
    per_objective.clear();
    for (const FrameView& v : views) per_objective.push_back(v.objective(j));
    sketches_[j].MergeValidatedViews(per_objective);
  }
  return true;
}

}  // namespace ats
