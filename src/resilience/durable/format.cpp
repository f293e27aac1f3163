#include "resilience/durable/format.hpp"

#include <cstring>

#include "resilience/envelope.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace mpas::resilience::durable {

namespace {

constexpr char kMagic[8] = {'M', 'P', 'A', 'S', 'C', 'K', 'P', '1'};
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kSlotHeaderBytes = 24;

// The header's self-check: FNV-1a over its 32 bytes from the version word
// through slot_count. Slot payloads use the seeded envelope checksum.
std::uint64_t header_check(const std::uint8_t* version_word) {
  return util::fnv1a(util::kFnvOffset, version_word, 32);
}

template <class T>
void put(std::vector<std::uint8_t>& out, const T& value) {
  const auto offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

// Cursor over the file image: every read is bounds-checked against the
// bytes actually present, so a corrupted count fails before any resize.
struct Reader {
  const std::uint8_t* data;
  std::size_t remaining;

  template <class T>
  T get() {
    MPAS_CHECK_MSG(remaining >= sizeof(T),
                   "durable checkpoint truncated: need "
                       << sizeof(T) << " bytes, have " << remaining);
    T value;
    std::memcpy(&value, data, sizeof(T));
    data += sizeof(T);
    remaining -= sizeof(T);
    return value;
  }
};

}  // namespace

std::uint64_t slot_seq(std::int64_t step, int rank, int slot) {
  return (static_cast<std::uint64_t>(step) << 20) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 10) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot)) ^
         0xD6E8FEB86659FD93ull;
}

std::size_t CheckpointImage::payload_bytes() const {
  std::size_t total = kHeaderBytes;
  for (const auto& s : slots)
    total += kSlotHeaderBytes + s.data.size() * sizeof(Real);
  return total;
}

std::vector<std::vector<std::uint8_t>> encode_chunks(
    const CheckpointImage& image) {
  std::vector<std::vector<std::uint8_t>> chunks;
  chunks.reserve(1 + image.slots.size());

  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), std::begin(kMagic), std::end(kMagic));
  put(header, kFormatVersion);
  put(header, std::uint32_t{0});  // reserved
  put(header, image.step);
  put(header, image.user_tag);
  put(header, static_cast<std::uint64_t>(image.slots.size()));
  put(header, header_check(header.data() + 8));
  chunks.push_back(std::move(header));

  for (const auto& s : image.slots) {
    std::vector<std::uint8_t> chunk;
    chunk.reserve(kSlotHeaderBytes + s.data.size() * sizeof(Real));
    put(chunk, static_cast<std::int32_t>(s.rank));
    put(chunk, static_cast<std::int32_t>(s.slot));
    put(chunk, static_cast<std::uint64_t>(s.data.size()));
    put(chunk, checksum(slot_seq(image.step, s.rank, s.slot), s.data.data(),
                        s.data.size()));
    const auto offset = chunk.size();
    chunk.resize(offset + s.data.size() * sizeof(Real));
    if (!s.data.empty())
      std::memcpy(chunk.data() + offset, s.data.data(),
                  s.data.size() * sizeof(Real));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

CheckpointImage decode_checkpoint(const std::vector<std::uint8_t>& bytes) {
  Reader in{bytes.data(), bytes.size()};

  MPAS_CHECK_MSG(in.remaining >= kHeaderBytes,
                 "durable checkpoint truncated: " << bytes.size()
                                                  << " bytes < header");
  MPAS_CHECK_MSG(std::memcmp(in.data, kMagic, sizeof(kMagic)) == 0,
                 "durable checkpoint: bad magic");
  const std::uint64_t header_crc = header_check(in.data + 8);
  in.data += sizeof(kMagic);
  in.remaining -= sizeof(kMagic);

  CheckpointImage image;
  const auto version = in.get<std::uint32_t>();
  in.get<std::uint32_t>();  // reserved
  image.step = in.get<std::int64_t>();
  image.user_tag = in.get<std::uint64_t>();
  const auto slot_count = in.get<std::uint64_t>();
  const auto stored_crc = in.get<std::uint64_t>();
  MPAS_CHECK_MSG(stored_crc == header_crc,
                 "durable checkpoint: header checksum mismatch");
  MPAS_CHECK_MSG(version == kFormatVersion,
                 "durable checkpoint: version " << version << ", expected "
                                                << kFormatVersion);
  // Each slot costs at least its header; a rotted count fails here instead
  // of driving the loop below off the end.
  MPAS_CHECK_MSG(slot_count <= in.remaining / kSlotHeaderBytes,
                 "durable checkpoint: slot count " << slot_count
                                                   << " exceeds file size");

  image.slots.reserve(slot_count);
  for (std::uint64_t i = 0; i < slot_count; ++i) {
    CheckpointSlot slot;
    slot.rank = in.get<std::int32_t>();
    slot.slot = in.get<std::int32_t>();
    const auto count = in.get<std::uint64_t>();
    const auto crc = in.get<std::uint64_t>();
    MPAS_CHECK_MSG(count <= in.remaining / sizeof(Real),
                   "durable checkpoint: slot " << i << " declares " << count
                                               << " words past end of file");
    slot.data.resize(count);
    if (count > 0) {
      std::memcpy(slot.data.data(), in.data, count * sizeof(Real));
      in.data += count * sizeof(Real);
      in.remaining -= count * sizeof(Real);
    }
    MPAS_CHECK_MSG(
        checksum(slot_seq(image.step, slot.rank, slot.slot), slot.data.data(),
                 slot.data.size()) == crc,
        "durable checkpoint: slot " << i << " checksum mismatch");
    image.slots.push_back(std::move(slot));
  }
  MPAS_CHECK_MSG(in.remaining == 0, "durable checkpoint: "
                                        << in.remaining
                                        << " trailing bytes after last slot");
  return image;
}

}  // namespace mpas::resilience::durable
