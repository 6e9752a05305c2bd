#include "ats/core/bottom_k.h"

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

void PrioritySampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kWireMagic, kWireVersion);
  w.WriteU32(coordinated_ ? 1 : 0);
  WriteRngState(w, rng_.State());
  sketch_.SerializeTo(w);  // the nested BottomK frame carries the sample
}

std::optional<PrioritySampler::FrameView> PrioritySampler::ReadView(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kWireMagic, kWireVersion)) return std::nullopt;
  const auto coordinated = r.ReadU32();
  if (!coordinated) return std::nullopt;
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  auto sample = BottomK<Item>::ReadView(r);
  if (!sample) return std::nullopt;
  FrameView view;
  view.coordinated_ = *coordinated != 0;
  view.rng_state_ = *rng_state;
  static_cast<BottomK<Item>::FrameView&>(view) = *sample;
  return view;
}

PrioritySampler PrioritySampler::FromView(const FrameView& view) {
  PrioritySampler sampler(BottomK<Item>::FromView(view), view.coordinated());
  sampler.rng_.SetState(view.rng_state_);
  return sampler;
}

}  // namespace ats
