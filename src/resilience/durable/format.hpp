// The versioned on-disk checkpoint format.
//
// A durable checkpoint is a flat byte stream: one fixed-size header chunk
// followed by one chunk per (rank, slot) array. Every chunk carries its own
// integrity word — the header an FNV-1a (util/fnv.hpp) over its fields,
// each slot the message-envelope checksum seeded with a (step, rank, slot)
// sequence — so a reader can pinpoint damage without trusting any other
// part of the file.
//
//   header   magic "MPASCKP1" | u32 version | u32 reserved
//            | i64 step | u64 user_tag | u64 slot_count | u64 header_crc
//   slot     i32 rank | i32 slot | u64 count | u64 crc | Real data[count]
//
// decode_checkpoint throws mpas::Error on ANY damage — truncation anywhere
// (declared counts are bounds-checked against the remaining bytes *before*
// any allocation, so bit-rotted counts cannot OOM), bad magic or version,
// header or slot checksum mismatch, trailing garbage. Fail closed: the
// store falls back to an older generation rather than ever returning a
// suspect image.
//
// The encoder returns the chunk list (not one fused buffer) so the store
// can present every chunk write as a distinct fault-injection point.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace mpas::resilience::durable {

inline constexpr std::uint32_t kFormatVersion = 1;

/// One saved array: whatever the producer indexes by (sw/state_codec uses
/// the rank and FieldId slots).
struct CheckpointSlot {
  int rank = 0;
  int slot = 0;
  std::vector<Real> data;
};

/// A complete in-memory checkpoint: the unit the writer publishes and the
/// reader returns, and DistributedSw's in-memory rollback target.
/// `user_tag` is opaque to the format — the service stores the H/U state
/// hash there so recovery can verify the restore.
struct CheckpointImage {
  std::int64_t step = 0;
  std::uint64_t user_tag = 0;
  std::vector<CheckpointSlot> slots;

  [[nodiscard]] std::size_t payload_bytes() const;
};

/// Serialize to the ordered chunk list (header first, then one chunk per
/// slot, in slot order). Concatenating the chunks yields the file image.
std::vector<std::vector<std::uint8_t>> encode_chunks(
    const CheckpointImage& image);

/// Parse + verify a full file image. Throws mpas::Error on any damage.
CheckpointImage decode_checkpoint(const std::vector<std::uint8_t>& bytes);

/// The checksum seed for one slot: mixes step, rank, and slot so a chunk
/// transplanted from another position or generation does not verify.
std::uint64_t slot_seq(std::int64_t step, int rank, int slot);

}  // namespace mpas::resilience::durable
