#include "ats/core/bottom_k.h"

#include <array>

namespace {
constexpr uint32_t kPrioritySamplerMagic = 0x50534d32;  // "PSM2"
constexpr uint32_t kPrioritySamplerVersion = 2;
}  // namespace

namespace ats {

PrioritySampler::PrioritySampler(size_t k, uint64_t seed, bool coordinated)
    : sketch_(k), rng_(seed), coordinated_(coordinated) {}

void PrioritySampler::Add(uint64_t key, double weight) {
  const PriorityDist dist = PriorityDist::WeightedUniform(weight);
  const double priority = coordinated_ ? dist.FromHash(HashKey(key))
                                       : dist.Sample(rng_);
  sketch_.Offer(priority, Item{key, weight});
}

size_t PrioritySampler::AddBatch(std::span<const Item> items) {
  batch_priorities_.resize(items.size());
  if (coordinated_) {
    for (size_t i = 0; i < items.size(); ++i) {
      batch_priorities_[i] = PriorityDist::WeightedUniform(items[i].weight)
                                 .FromHash(HashKey(items[i].key));
    }
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      batch_priorities_[i] =
          PriorityDist::WeightedUniform(items[i].weight).Sample(rng_);
    }
  }
  return sketch_.OfferBatch(batch_priorities_, items);
}

std::vector<SampleEntry> PrioritySampler::Sample() const {
  return MakeWeightedSample(sketch_.store());
}

std::vector<SampleEntry> MakeWeightedSample(
    const SampleStore<PrioritySampler::Item>& store) {
  const std::vector<double>& priorities = store.priorities();
  const std::vector<PrioritySampler::Item>& items = store.payloads();
  const double t = store.Threshold();
  std::vector<SampleEntry> out;
  out.reserve(priorities.size());
  for (size_t i = 0; i < priorities.size(); ++i) {
    out.push_back(
        MakeWeightedEntry(items[i].key, items[i].weight, priorities[i], t));
  }
  return out;
}

void PrioritySampler::Merge(const PrioritySampler& other) {
  sketch_.Merge(other.sketch_);
}

void PrioritySampler::MergeMany(
    std::span<const PrioritySampler* const> others) {
  std::vector<const BottomK<Item>*> inputs;
  inputs.reserve(others.size());
  for (const PrioritySampler* other : others) {
    inputs.push_back(&other->sketch_);
  }
  sketch_.MergeMany(inputs);  // skips the sketch aliasing `this`
}

void PrioritySampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kPrioritySamplerMagic, kPrioritySamplerVersion);
  w.WriteU32(coordinated_ ? 1 : 0);
  WriteRngState(w, rng_.State());
  sketch_.SerializeTo(w);  // the nested BottomK frame carries the sample
}

std::optional<PrioritySampler> PrioritySampler::Deserialize(ByteReader& r) {
  if (!ReadSketchHeader(r, kPrioritySamplerMagic,
                        kPrioritySamplerVersion)) {
    return std::nullopt;
  }
  const auto coordinated = r.ReadU32();
  if (!coordinated) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  auto sketch = BottomK<Item>::Deserialize(r);
  if (!sketch) return std::nullopt;
  PrioritySampler sampler(sketch->k(), /*seed=*/1, *coordinated != 0);
  sampler.sketch_ = std::move(*sketch);
  sampler.rng_.SetState(*rng_state);
  return sampler;
}

FrameFault PrioritySampler::DiagnoseFrame(std::string_view frame) {
  const FrameFault f = ClassifyFrameBytes(frame, kPrioritySamplerMagic,
                                          kPrioritySamplerVersion);
  if (f != FrameFault::kNone) return f;
  return Deserialize(frame).has_value() ? FrameFault::kNone
                                        : FrameFault::kCorruptBody;
}

std::optional<PrioritySampler::FrameView> PrioritySampler::DeserializeView(
    std::string_view frame) {
  auto r = OpenCheckedFrame(frame, kPrioritySamplerMagic,
                            kPrioritySamplerVersion);
  if (!r) return std::nullopt;
  const auto coordinated = r->ReadU32();
  if (!coordinated) return std::nullopt;
  if (!ReadRngState(*r)) return std::nullopt;
  // The rest of the body is exactly the embedded bottom-k sample region.
  auto sample = BottomK<Item>::ViewBody(r->Rest());
  if (!sample) return std::nullopt;
  FrameView view;
  view.coordinated_ = *coordinated != 0;
  view.sample_ = *sample;
  return view;
}

bool PrioritySampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  // Vet every frame before the first one is applied (all-or-nothing).
  std::vector<BottomK<Item>::FrameView> views;
  views.reserve(frames.size());
  for (std::string_view f : frames) {
    auto view = DeserializeView(f);
    if (!view) return false;
    views.push_back(view->sample_);
  }
  if (views.empty()) return true;  // strict no-op, like MergeMany({})
  sketch_.MergeValidatedViews(views);
  return true;
}

}  // namespace ats
