// FNV-1a 64, the project's one byte hash. The mesh-cache payload
// checksum, the durable checkpoint header check, the message envelope's
// payload checksum and the session state hash all fold bytes through it,
// and each of those values is persisted or compared across runs, so the
// function must never change. It stays inline: the mesh-cache load
// hashes every byte it reads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpas::util {

/// The FNV-1a 64 offset basis: the state before any byte is folded in.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Fold `n` bytes at `data` into the running state `hash` and return the
/// new state. Start from kFnvOffset (or a seeded variant of it); folding
/// a buffer in pieces gives the same state as folding it whole.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  return hash;
}

}  // namespace mpas::util
