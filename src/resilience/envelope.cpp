#include "resilience/envelope.hpp"

#include <cstring>

#include "util/fnv.hpp"

namespace mpas::resilience {

namespace {

constexpr std::uint64_t kMagic = 0x4D504153ull;  // "MPAS"

Real encode_word(std::uint64_t v) {
  Real r;
  static_assert(sizeof(Real) == sizeof(std::uint64_t));
  std::memcpy(&r, &v, sizeof(r));
  return r;
}

std::uint64_t decode_word(Real r) {
  std::uint64_t v;
  std::memcpy(&v, &r, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t checksum(std::uint64_t seq, const Real* data, std::size_t n) {
  return util::fnv1a(util::kFnvOffset ^ seq, data, n * sizeof(Real));
}

std::vector<Real> seal(std::uint64_t seq, std::vector<Real> payload) {
  const std::size_t n = payload.size();
  std::vector<Real> raw;
  raw.reserve(kEnvelopeWords + n);
  raw.push_back(encode_word((kMagic << 32) | static_cast<std::uint32_t>(n)));
  raw.push_back(encode_word(seq));
  raw.push_back(encode_word(checksum(seq, payload.data(), n)));
  raw.insert(raw.end(), payload.begin(), payload.end());
  return raw;
}

std::optional<Opened> open(std::vector<Real> raw) {
  if (raw.size() < kEnvelopeWords) return std::nullopt;
  const std::uint64_t head = decode_word(raw[0]);
  if ((head >> 32) != kMagic) return std::nullopt;
  const std::size_t n = static_cast<std::uint32_t>(head);
  if (raw.size() != kEnvelopeWords + n) return std::nullopt;
  const std::uint64_t seq = decode_word(raw[1]);
  const std::uint64_t sum = decode_word(raw[2]);
  if (checksum(seq, raw.data() + kEnvelopeWords, n) != sum)
    return std::nullopt;
  Opened out;
  out.seq = seq;
  out.payload.assign(raw.begin() + kEnvelopeWords, raw.end());
  return out;
}

}  // namespace mpas::resilience
