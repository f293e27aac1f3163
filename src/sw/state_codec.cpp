#include "sw/state_codec.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mpas::sw {

namespace {

// A step reads these fields before it writes them, and initialize() does
// not recompute them. Every step rewrites the RK working fields (provis,
// accumulators, tendencies, D2H) before it reads them. TracerQ holds zeros
// when the model has no tracer, so it is captured unconditionally.
constexpr FieldId kStateFields[] = {FieldId::H, FieldId::U, FieldId::Bottom,
                                    FieldId::TracerQ};

}  // namespace

std::span<const FieldId> state_fields() { return kStateFields; }

void snapshot_state(const FieldStore& fields, int rank,
                    resilience::durable::CheckpointImage& image) {
  for (const FieldId id : kStateFields) {
    resilience::durable::CheckpointSlot slot;
    slot.rank = rank;
    slot.slot = static_cast<int>(id);
    const auto data = fields.get(id);
    slot.data.assign(data.begin(), data.end());
    image.slots.push_back(std::move(slot));
  }
}

void restore_state(const resilience::durable::CheckpointImage& image,
                   int rank, FieldStore& fields) {
  for (const FieldId id : kStateFields) {
    const auto it = std::find_if(
        image.slots.begin(), image.slots.end(), [&](const auto& s) {
          return s.rank == rank && s.slot == static_cast<int>(id);
        });
    MPAS_CHECK_MSG(it != image.slots.end(),
                   "image lacks state field " << field_info(id).name
                                              << " of rank " << rank);
    auto out = fields.get(id);
    MPAS_CHECK_MSG(it->data.size() == out.size(),
                   "image field " << field_info(id).name << " of rank " << rank
                                  << " has " << it->data.size()
                                  << " entries, mesh needs " << out.size()
                                  << " (different mesh?)");
    std::copy(it->data.begin(), it->data.end(), out.begin());
  }
}

}  // namespace mpas::sw
