#include "ats/samplers/multi_objective.h"

#include <algorithm>

#include "ats/util/check.h"

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
  WriteSketchHeader(w, kWireMagic, kWireVersion);
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

std::optional<MultiObjectiveSampler::FrameView>
MultiObjectiveSampler::ReadView(ByteReader& r) {
  if (!ReadSketchHeader(r, kWireMagic, kWireVersion)) return std::nullopt;
  const auto num_objectives = r.ReadU64();
  const auto k = r.ReadU64();
  if (!num_objectives || !k) return std::nullopt;
  if (*num_objectives < 1 || *k < 1) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  FrameView view;
  view.k_ = static_cast<size_t>(*k);
  view.rng_state_ = *rng_state;
  view.objectives_.reserve(static_cast<size_t>(
      std::min<uint64_t>(*num_objectives, 1024)));
  for (uint64_t j = 0; j < *num_objectives; ++j) {
    // Length-prefixed nested body: it must hold exactly one BTK2 body of
    // the frame's k.
    const auto body_len = r.ReadU64();
    if (!body_len) return std::nullopt;
    const std::string_view rest = r.Rest();
    if (*body_len > rest.size()) return std::nullopt;
    ByteReader nested(rest.substr(0, static_cast<size_t>(*body_len)));
    auto sample = BottomK<Stored>::ReadView(nested);
    if (!sample || !nested.AtEnd() || sample->k() != *k) return std::nullopt;
    view.objectives_.push_back(*sample);
    r.Skip(static_cast<size_t>(*body_len));
  }
  return view;
}

MultiObjectiveSampler MultiObjectiveSampler::FromView(const FrameView& view) {
  MultiObjectiveSampler sampler(1, view.k(), /*seed=*/1);
  sampler.rng_.SetState(view.rng_state_);
  sampler.sketches_.clear();
  sampler.sketches_.reserve(view.num_objectives());
  for (const BottomK<Stored>::FrameView& sample : view.objectives_) {
    sampler.sketches_.push_back(BottomK<Stored>::FromView(sample));
  }
  return sampler;
}

void MultiObjectiveSampler::MergeValidatedViews(
    std::span<const FrameView> views) {
  // Objective-wise threshold-pruned application: observationally equal
  // to the per-frame Merge() chain, objective by objective.
  for (size_t j = 0; j < sketches_.size(); ++j) {
    sketches_[j].MergeValidatedViews(
        views, [j](const FrameView& v) -> const BottomK<Stored>::FrameView& {
          return v.objective(j);
        });
  }
}

}  // namespace ats
