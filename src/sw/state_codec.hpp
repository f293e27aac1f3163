// The one snapshot of a model state: copies between a FieldStore and a
// CheckpointImage, keyed by (rank, FieldId).
//
// Every restart restores the slots of state_fields() and then calls
// initialize(), which re-derives the diagnostics and the reconstruction:
// DistributedSw::rollback and shrink_to, and service crash recovery.
// StateCodec.SnapshotRestoreContinuesBitwise (tests/test_durable.cpp)
// proves a run restored this way, including one that went through the
// on-disk format, continues bit-for-bit.
#pragma once

#include <span>

#include "resilience/durable/format.hpp"
#include "sw/fields.hpp"

namespace mpas::sw {

/// The fields that make up a model state, in slot order.
[[nodiscard]] std::span<const FieldId> state_fields();

/// Append `rank`'s state fields (whole local arrays, halos included) to
/// `image` as slots (rank, FieldId). The caller sets image.step.
void snapshot_state(const FieldStore& fields, int rank,
                    resilience::durable::CheckpointImage& image);

/// Copy `rank`'s state slots of `image` back into `fields`. Throws
/// mpas::Error when a slot is missing or its size does not match the mesh
/// (an image of another mesh or rank); `fields` may then be partly written.
void restore_state(const resilience::durable::CheckpointImage& image,
                   int rank, FieldStore& fields);

}  // namespace mpas::sw
