#include "resilience/fault.hpp"

#include <numeric>

#include "util/error.hpp"

namespace mpas::resilience {

namespace {

// splitmix64: tiny, seedable, statistically fine for fault sampling.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Real uniform01(std::uint64_t& state) {
  return static_cast<Real>(splitmix64(state) >> 11) * 0x1.0p-53;
}

bool matches(int filter, int value) { return filter < 0 || filter == value; }
bool matches(std::int64_t filter, std::int64_t value) {
  return filter < 0 || filter == value;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::MsgDrop: return "msg-drop";
    case FaultKind::MsgCorrupt: return "msg-corrupt";
    case FaultKind::MsgDelay: return "msg-delay";
    case FaultKind::RankStall: return "rank-stall";
    case FaultKind::TransferFail: return "transfer-fail";
    case FaultKind::TransferCorrupt: return "transfer-corrupt";
    case FaultKind::StateCorrupt: return "state-corrupt";
    case FaultKind::StorageTornWrite: return "torn-write";
    case FaultKind::StorageShortWrite: return "short-write";
    case FaultKind::StorageBitRot: return "bit-rot";
    case FaultKind::StorageCrash: return "storage-crash";
    case FaultKind::Count: break;
  }
  return "?";
}

const char* to_string(StorageOp op) {
  switch (op) {
    case StorageOp::OpenTemp: return "open-temp";
    case StorageOp::WriteChunk: return "write-chunk";
    case StorageOp::FsyncTemp: return "fsync-temp";
    case StorageOp::CloseTemp: return "close-temp";
    case StorageOp::Rename: return "rename";
    case StorageOp::FsyncDir: return "fsync-dir";
    case StorageOp::Count: break;
  }
  return "?";
}

std::uint64_t InjectorStats::total() const {
  return std::accumulate(injected.begin(), injected.end(), std::uint64_t{0});
}

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {}

void FaultInjector::add(const FaultSpec& spec) {
  MPAS_CHECK_MSG(spec.kind != FaultKind::Count, "invalid fault kind");
  MPAS_CHECK_MSG(spec.repeat >= 1,
                 "fault repeat must be >= 1, got " << spec.repeat);
  MPAS_CHECK_MSG(spec.probability >= 0 && spec.probability <= 1,
                 "fault probability must be in [0, 1], got "
                     << spec.probability);
  MPAS_CHECK_MSG(spec.bit < 64, "corruption bit must be < 64, got "
                                    << spec.bit);
  MPAS_CHECK_MSG(spec.stall_seconds >= 0, "negative stall time");
  util::LockGuard lock(mutex_);
  Armed a;
  a.spec = spec;
  // Each spec gets its own PRNG stream so adding/removing one spec does not
  // shift the samples of another.
  a.rng_state = seed_ ^ (0xA24BAED4963EE407ull * (armed_.size() + 1));
  armed_.push_back(a);
}

// One matching event for `arm`: advance its counter / PRNG stream and
// decide whether the spec fires here.
bool FaultInjector::fires(Armed& arm) {
  const FaultSpec& spec = arm.spec;
  const std::uint64_t event = arm.seen++;
  bool fire;
  if (spec.probability > 0) {
    fire = uniform01(arm.rng_state) < spec.probability;
  } else {
    fire = event >= spec.at_event && arm.fired < spec.repeat;
  }
  if (!fire) return false;
  arm.fired += 1;
  stats_.injected[static_cast<int>(spec.kind)] += 1;
  return true;
}

std::vector<FaultSpec> FaultInjector::on_message(int from, int to, int tag) {
  util::LockGuard lock(mutex_);
  std::vector<FaultSpec> fired;
  for (Armed& arm : armed_) {
    const FaultSpec& s = arm.spec;
    if (s.kind != FaultKind::MsgDrop && s.kind != FaultKind::MsgCorrupt &&
        s.kind != FaultKind::MsgDelay)
      continue;
    if (!matches(s.from, from) || !matches(s.to, to) || !matches(s.tag, tag))
      continue;
    if (fires(arm)) fired.push_back(s);
  }
  return fired;
}

std::vector<FaultSpec> FaultInjector::on_transfer(int buffer) {
  util::LockGuard lock(mutex_);
  std::vector<FaultSpec> fired;
  for (Armed& arm : armed_) {
    const FaultSpec& s = arm.spec;
    if (s.kind != FaultKind::TransferFail &&
        s.kind != FaultKind::TransferCorrupt)
      continue;
    if (!matches(s.buffer, buffer)) continue;
    if (fires(arm)) fired.push_back(s);
  }
  return fired;
}

std::vector<FaultSpec> FaultInjector::on_step(int rank, std::int64_t step) {
  util::LockGuard lock(mutex_);
  std::vector<FaultSpec> fired;
  for (Armed& arm : armed_) {
    const FaultSpec& s = arm.spec;
    if (s.kind != FaultKind::RankStall && s.kind != FaultKind::StateCorrupt)
      continue;
    if (!matches(s.rank, rank) || !matches(s.step, step)) continue;
    if (fires(arm)) fired.push_back(s);
  }
  return fired;
}

std::vector<FaultSpec> FaultInjector::on_storage(int op) {
  util::LockGuard lock(mutex_);
  std::vector<FaultSpec> fired;
  for (Armed& arm : armed_) {
    const FaultSpec& s = arm.spec;
    const bool write_shape = s.kind == FaultKind::StorageTornWrite ||
                             s.kind == FaultKind::StorageShortWrite ||
                             s.kind == FaultKind::StorageBitRot;
    if (!write_shape && s.kind != FaultKind::StorageCrash) continue;
    // Torn/short/bit-rot damage a chunk write, so only chunk writes are
    // events for them; a crash can be parked at any protocol point.
    if (write_shape && op != static_cast<int>(StorageOp::WriteChunk)) continue;
    if (!matches(s.op, op)) continue;
    if (fires(arm)) fired.push_back(s);
  }
  return fired;
}

InjectorStats FaultInjector::stats() const {
  util::LockGuard lock(mutex_);
  return stats_;
}

std::size_t FaultInjector::num_armed() const {
  util::LockGuard lock(mutex_);
  return armed_.size();
}

bool FaultInjector::exhausted() const {
  util::LockGuard lock(mutex_);
  for (const Armed& arm : armed_)
    if (arm.spec.probability == 0 && arm.fired < arm.spec.repeat) return false;
  return true;
}

void FaultInjector::reset() {
  util::LockGuard lock(mutex_);
  stats_ = {};
  std::size_t i = 0;
  for (Armed& arm : armed_) {
    arm.seen = 0;
    arm.fired = 0;
    arm.rng_state = seed_ ^ (0xA24BAED4963EE407ull * (++i));
  }
}

}  // namespace mpas::resilience
