// The durability layer's contract, bottom-up: the versioned on-disk format
// fails closed under a byte-exact fuzz sweep (truncation and bit flips at
// every offset), the generation ring publishes crash-consistently with a
// seeded crash parked between every pair of durability syscalls, the
// background writer never blocks the integrator, the session journal
// replays across torn tails and process epochs, and whole-service recovery
// — including a real SIGKILL mid-soak — re-admits every incomplete session
// and continues its trajectory bitwise-identically to an uninterrupted run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mesh/mesh_cache.hpp"
#include "obs/json.hpp"
#include "obs/telemetry/event_log.hpp"
#include "resilience/durable/format.hpp"
#include "resilience/durable/store.hpp"
#include "resilience/durable/writer.hpp"
#include "resilience/fault.hpp"
#include "service/admission.hpp"
#include "service/durable_session.hpp"
#include "service/journal.hpp"
#include "service/recovery.hpp"
#include "service/request.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"
#include "sw/state_codec.hpp"
#include "sw/testcases.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPAS_TEST_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) && !defined(MPAS_TEST_TSAN)
#define MPAS_TEST_TSAN 1
#endif

namespace mpas::resilience::durable {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("mpas_durable_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

CheckpointImage small_image(std::int64_t step = 7) {
  CheckpointImage image;
  image.step = step;
  image.user_tag = 0xFEEDFACEull + static_cast<std::uint64_t>(step);
  image.slots.push_back({0, 0, {1.0, -2.5, 3.25, 1e-300}});
  image.slots.push_back({0, 1, {0.0, 42.0, -7.125}});
  return image;
}

std::vector<std::uint8_t> flatten(const CheckpointImage& image) {
  std::vector<std::uint8_t> bytes;
  for (const auto& chunk : encode_chunks(image))
    bytes.insert(bytes.end(), chunk.begin(), chunk.end());
  return bytes;
}

void expect_images_equal(const CheckpointImage& a, const CheckpointImage& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.user_tag, b.user_tag);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].rank, b.slots[i].rank);
    EXPECT_EQ(a.slots[i].slot, b.slots[i].slot);
    ASSERT_EQ(a.slots[i].data.size(), b.slots[i].data.size());
    for (std::size_t j = 0; j < a.slots[i].data.size(); ++j)
      EXPECT_EQ(std::memcmp(&a.slots[i].data[j], &b.slots[i].data[j],
                            sizeof(Real)),
                0)
          << "slot " << i << " word " << j;
  }
}

std::string generation_path(const DurableStore& store, std::uint64_t gen) {
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt_%08llu.mpasckpt",
                static_cast<unsigned long long>(gen));
  return (fs::path(store.dir()) / name).string();
}

void flip_byte(const std::string& path, std::size_t offset,
               std::uint8_t mask = 0x10) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ mask);
  f.write(&byte, 1);
}

// ------------------------------------------------------------------ format

TEST(DurableFormat, EncodeDecodeRoundTripsBitwise) {
  const CheckpointImage image = small_image();
  const auto bytes = flatten(image);
  EXPECT_EQ(bytes.size(), image.payload_bytes());
  const CheckpointImage back = decode_checkpoint(bytes);
  expect_images_equal(image, back);
}

TEST(DurableFormat, EmptyImageRoundTrips) {
  CheckpointImage image;
  image.step = 0;
  const CheckpointImage back = decode_checkpoint(flatten(image));
  EXPECT_EQ(back.slots.size(), 0u);
}

// Satellite: the fuzz-style corpus sweep. A checkpoint truncated at EVERY
// byte length and bit-flipped at EVERY byte offset must fail closed — an
// mpas::Error, never a crash, never an allocation driven by a fabricated
// count (ASan in CI is the authority on the "never a crash" half).
TEST(DurableFormat, CorpusSweepFailsClosedAtEveryOffset) {
  const auto bytes = flatten(small_image());
  ASSERT_GT(bytes.size(), 48u);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_THROW(decode_checkpoint(truncated), Error)
        << "truncated to " << cut << " of " << bytes.size() << " bytes";
  }

  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[offset] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(decode_checkpoint(flipped), Error)
          << "bit " << bit << " flipped at offset " << offset;
    }
  }

  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(decode_checkpoint(trailing), Error);
}

TEST(DurableFormat, FabricatedCountsFailBeforeAllocation) {
  // A bit-rotted slot count must be rejected by the byte-budget bounds
  // check, not fed to resize(): write a huge count into the first slot's
  // header (offset 48 + 8) and decode.
  auto bytes = flatten(small_image());
  const std::uint64_t huge = ~0ull >> 3;
  std::memcpy(bytes.data() + 48 + 8, &huge, sizeof(huge));
  EXPECT_THROW(decode_checkpoint(bytes), Error);
}

TEST(DurableFormat, SlotSeqBindsStepRankAndSlot) {
  // A chunk transplanted from another (step, rank, slot) position must not
  // verify: the checksum seed differs in every coordinate.
  EXPECT_NE(slot_seq(1, 0, 0), slot_seq(2, 0, 0));
  EXPECT_NE(slot_seq(1, 0, 0), slot_seq(1, 1, 0));
  EXPECT_NE(slot_seq(1, 0, 0), slot_seq(1, 0, 1));
}

// ------------------------------------------------------------------- store

TEST(DurableStore, PublishLoadRoundTripsAndPrunesRing) {
  TempDir dir("ring");
  DurableStore store({dir.path(), /*keep=*/3, nullptr});
  for (int i = 1; i <= 5; ++i) {
    const auto result = store.publish(small_image(i * 10));
    EXPECT_TRUE(result.published);
    EXPECT_FALSE(result.crashed);
    EXPECT_EQ(result.generation, static_cast<std::uint64_t>(i));
    EXPECT_GT(result.bytes, 0u);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{3, 4, 5}));

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5u);
  EXPECT_EQ(loaded->fallbacks, 0);
  expect_images_equal(small_image(50), loaded->image);

  // A reopened store continues the generation sequence, not restarts it.
  DurableStore reopened({dir.path(), 3, nullptr});
  EXPECT_TRUE(reopened.publish(small_image(60)).generation == 6u);
}

TEST(DurableStore, FallsBackAcrossDamagedGenerations) {
  TempDir dir("fallback");
  DurableStore store({dir.path(), 3, nullptr});
  store.publish(small_image(10));
  store.publish(small_image(20));

  // Rot the newest generation mid-file: the reader must fail closed on it
  // and land on generation 1, one checkpoint interval older.
  flip_byte(generation_path(store, 2), 60);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 1);
  EXPECT_EQ(loaded->image.step, 10);

  // Rot everything: no generation decodes, load reports none.
  flip_byte(generation_path(store, 1), 60);
  EXPECT_FALSE(store.load_latest().has_value());
}

// Store-level fuzz corpus: with two generations on disk, a newest
// generation bit-flipped at ANY byte offset must fall back to the previous
// one — never crash, never return a suspect image.
TEST(DurableStore, BitRotAtEveryOffsetFallsBackToPreviousGeneration) {
  TempDir dir("rotsweep");
  DurableStore store({dir.path(), 3, nullptr});
  store.publish(small_image(10));
  store.publish(small_image(20));
  const std::string newest = generation_path(store, 2);

  std::ifstream in(newest, std::ios::binary);
  const std::string pristine((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(pristine.empty());

  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    std::string damaged = pristine;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x04);
    {
      std::ofstream out(newest, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    const auto loaded = store.load_latest();
    ASSERT_TRUE(loaded.has_value()) << "offset " << offset;
    EXPECT_EQ(loaded->generation, 1u) << "offset " << offset;
    EXPECT_EQ(loaded->image.step, 10) << "offset " << offset;
  }
}

// The tentpole invariant: a crash between ANY two durability syscalls
// leaves either the previous generations intact or the new one complete —
// a reader after "restart" always finds an intact image.
TEST(DurableStore, CrashAtEveryProtocolPointLeavesAnIntactGeneration) {
  const CheckpointImage before = small_image(10);
  const CheckpointImage after = small_image(20);
  const std::size_t chunks = encode_chunks(after).size();
  ASSERT_EQ(chunks, 3u);  // header + two slots: each write is a crash site

  const auto sweep_point = [&](StorageOp op, std::uint64_t at_event) {
    SCOPED_TRACE(std::string("crash at ") + to_string(op) + " event " +
                 std::to_string(at_event));
    TempDir dir("crash");
    {
      DurableStore setup({dir.path(), 3, nullptr});
      ASSERT_TRUE(setup.publish(before).published);
    }

    FaultInjector injector(1234);
    FaultSpec crash;
    crash.kind = FaultKind::StorageCrash;
    crash.op = static_cast<int>(op);
    crash.at_event = at_event;
    injector.add(crash);
    DurableStore victim({dir.path(), 3, &injector});
    const auto result = victim.publish(after);
    EXPECT_TRUE(result.crashed);

    // "Restart": a fresh store sweeps any orphan tmp, and the newest
    // intact generation must decode to one of the two complete images.
    DurableStore restarted({dir.path(), 3, nullptr});
    const auto loaded = restarted.load_latest();
    ASSERT_TRUE(loaded.has_value());
    if (op == StorageOp::FsyncDir) {
      // The rename already happened; like a real crash there, the new
      // generation is visible and complete.
      EXPECT_EQ(loaded->image.step, 20);
    } else {
      EXPECT_EQ(loaded->image.step, 10);
    }
    expect_images_equal(loaded->image.step == 20 ? after : before,
                        loaded->image);
    // The interrupted tmp (if any) was swept; future publishes still work.
    EXPECT_TRUE(restarted.publish(small_image(30)).published);
  };

  for (const StorageOp op :
       {StorageOp::OpenTemp, StorageOp::FsyncTemp, StorageOp::CloseTemp,
        StorageOp::Rename, StorageOp::FsyncDir})
    sweep_point(op, 0);
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk)
    sweep_point(StorageOp::WriteChunk, chunk);
}

TEST(DurableStore, TornShortAndRottedWritesFallBack) {
  const std::size_t chunks = encode_chunks(small_image()).size();
  const auto sweep = [&](FaultKind kind, std::uint64_t at_event) {
    SCOPED_TRACE(std::string(to_string(kind)) + " at chunk " +
                 std::to_string(at_event));
    TempDir dir("tear");
    {
      DurableStore setup({dir.path(), 3, nullptr});
      ASSERT_TRUE(setup.publish(small_image(10)).published);
    }
    FaultInjector injector(99);
    FaultSpec spec;
    spec.kind = kind;
    spec.at_event = at_event;
    injector.add(spec);
    DurableStore victim({dir.path(), 3, &injector});
    const auto result = victim.publish(small_image(20));
    if (kind == FaultKind::StorageTornWrite) {
      // Half a chunk landed, then the crash: never published.
      EXPECT_TRUE(result.crashed);
      EXPECT_FALSE(result.published);
    } else {
      // Short writes and bit rot are *silent*: the publish looks fine and
      // only the reader's checksums catch the damage.
      EXPECT_TRUE(result.published);
    }

    DurableStore restarted({dir.path(), 3, nullptr});
    const auto loaded = restarted.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->image.step, 10);
    if (kind != FaultKind::StorageTornWrite) {
      EXPECT_EQ(loaded->fallbacks, 1);
    }
  };

  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    sweep(FaultKind::StorageTornWrite, chunk);
    sweep(FaultKind::StorageShortWrite, chunk);
    sweep(FaultKind::StorageBitRot, chunk);
  }
}

// ------------------------------------------------------------------ writer

TEST(DurableWriter, BackgroundPublishDrainsWithLatestWins) {
  TempDir dir("writer");
  DurableStore store({dir.path(), /*keep=*/100, nullptr});
  DurableWriter writer(store);
  constexpr int kSubmits = 50;
  for (int i = 1; i <= kSubmits; ++i) writer.submit(small_image(i));
  ASSERT_TRUE(writer.flush());

  // Every submission is accounted for: published or dropped (latest-wins
  // staging), and the newest state always reaches disk.
  EXPECT_EQ(writer.published() + writer.dropped(),
            static_cast<std::uint64_t>(kSubmits));
  EXPECT_GE(writer.published(), 1u);
  EXPECT_EQ(store.generations().size(),
            static_cast<std::size_t>(writer.published()));
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->image.step, kSubmits);
}

}  // namespace
}  // namespace mpas::resilience::durable

// ------------------------------------------------------------- state codec

namespace mpas::sw {
namespace {

/// The restart protocol through the one file format: snapshot the state
/// fields after `before` steps, encode the image and decode it back,
/// restore it into a fresh integrator with nothing else applied,
/// initialize(), and run `after` more steps. The state, a diagnostic and
/// the reconstruction must match `before + after` straight steps bitwise.
template <class Make>
void expect_restart_continues_bitwise(const mesh::VoronoiMesh& mesh,
                                      const TestCase& tc, const Make& make,
                                      int before, int after) {
  auto straight = make();
  apply_initial_conditions(tc, mesh, straight->fields());
  straight->initialize();
  straight->run(before);
  resilience::durable::CheckpointImage image;
  image.step = before;
  snapshot_state(straight->fields(), 0, image);
  straight->run(after);

  std::vector<std::uint8_t> file;
  for (const auto& chunk : resilience::durable::encode_chunks(image))
    file.insert(file.end(), chunk.begin(), chunk.end());
  const auto decoded = resilience::durable::decode_checkpoint(file);
  EXPECT_EQ(decoded.step, before);

  auto resumed = make();
  restore_state(decoded, 0, resumed->fields());
  resumed->initialize();
  resumed->run(after);

  for (const FieldId id : {FieldId::H, FieldId::U, FieldId::Bottom,
                           FieldId::PvCell, FieldId::ReconZonal}) {
    const auto want = straight->fields().get(id);
    const auto got = resumed->fields().get(id);
    ASSERT_EQ(got.size(), want.size()) << field_info(id).name;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Real)),
              0)
        << field_info(id).name << " diverges after the restart";
  }
}

TEST(StateCodec, SnapshotRestoreContinuesBitwise) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = make_test_case(5);  // topography: Bottom must round-trip
  SwParams params;
  params.dt = suggested_time_step(*tc, *mesh, 0.4);

  expect_restart_continues_bitwise(
      *mesh, *tc, [&] { return std::make_unique<SwModel>(*mesh, params); },
      3, 2);
  expect_restart_continues_bitwise(
      *mesh, *tc,
      [&] {
        return std::make_unique<ReferenceIntegrator>(*mesh, params,
                                                     LoopVariant::BranchFree);
      },
      10, 10);
}

TEST(StateCodec, RestoreRejectsWrongMeshAndMissingSlots) {
  const auto fine = mesh::get_global_mesh(2);
  const auto coarse = mesh::get_global_mesh(1);
  const auto tc = make_test_case(2);
  SwParams params;
  params.dt = suggested_time_step(*tc, *coarse, 0.4);
  SwModel small(*coarse, params);
  apply_initial_conditions(*tc, *coarse, small.fields());
  resilience::durable::CheckpointImage snapshot;
  snapshot_state(small.fields(), 0, snapshot);

  SwParams fine_params;
  fine_params.dt = suggested_time_step(*tc, *fine, 0.4);
  SwModel big(*fine, fine_params);
  apply_initial_conditions(*tc, *fine, big.fields());
  EXPECT_THROW(restore_state(snapshot, 0, big.fields()), Error);

  // A rank the image has no slots for, and an image with no slots at all.
  EXPECT_THROW(restore_state(snapshot, 1, small.fields()), Error);
  resilience::durable::CheckpointImage empty;
  EXPECT_THROW(restore_state(empty, 0, big.fields()), Error);
}

}  // namespace
}  // namespace mpas::sw

// ----------------------------------------------------------- journal + WAL

namespace mpas::service {
namespace {

namespace fs = std::filesystem;
using obs::telemetry::WideEvent;
using resilience::durable::CheckpointImage;
using TempDir = resilience::durable::TempDir;

/// Open the journal as a booting service does: as the epoch after the ones
/// the file already holds.
void open_next_epoch(SessionJournal& journal, const std::string& path) {
  journal.open(path, replay_journal(path).epochs + 1);
}

TEST(SessionJournal, HashHexRoundTripsExtremes) {
  for (const std::uint64_t h :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0x8000000000000001ull}, std::uint64_t{1} << 53}) {
    EXPECT_EQ(parse_hash_hex(hash_hex(h)), h);
  }
  EXPECT_THROW(parse_hash_hex("not-hex"), Error);
  EXPECT_THROW(parse_hash_hex(""), Error);
}

TEST(SessionJournal, AppendReplayRoundTripsAndFoldsEpochs) {
  TempDir dir("journal");
  const std::string path = (fs::path(dir.path()) / "journal.jsonl").string();

  SessionJournal journal;
  open_next_epoch(journal, path);
  EXPECT_TRUE(journal.enabled());
  EXPECT_EQ(journal.epoch(), 1);
  journal.append(WideEvent("admit", "gold", 1)
                     .add("mesh_level", 2)
                     .add("test_case", 5)
                     .add("steps", 8)
                     .add("output_every", 2));
  journal.append(WideEvent("admit", "silver", 2).add("steps", 6));
  journal.append(WideEvent("terminal", "silver", 2)
                     .add("state", "completed")
                     .add("steps_done", 6)
                     .add("diverged", false));
  journal.close();

  // Reopen: the journal spans restarts, so epoch 2 extends the same file.
  open_next_epoch(journal, path);
  EXPECT_EQ(journal.epoch(), 2);
  journal.close();

  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.epochs, 2);
  EXPECT_EQ(replay.malformed_lines, 0u);
  ASSERT_EQ(replay.sessions.size(), 2u);

  const JournalSession& gold = replay.sessions.at({1, 1});
  EXPECT_EQ(gold.tenant, "gold");
  EXPECT_TRUE(gold.admitted);
  EXPECT_FALSE(gold.terminal);
  EXPECT_EQ(gold.request.mesh_level, 2);
  EXPECT_EQ(gold.request.test_case, 5);
  EXPECT_EQ(gold.request.steps, 8);
  EXPECT_EQ(gold.last_step, -1);  // neither re-admitted nor terminal

  const JournalSession& silver = replay.sessions.at({1, 2});
  EXPECT_TRUE(silver.terminal);
  EXPECT_EQ(silver.terminal_state, "completed");
  EXPECT_FALSE(silver.terminal_diverged);
  EXPECT_EQ(silver.last_step, 6);  // the terminal fact's steps_done

  // Only gold is recovery work: admitted in a dead epoch, never terminal.
  const auto incomplete = replay.incomplete();
  ASSERT_EQ(incomplete.size(), 1u);
  EXPECT_EQ(incomplete[0].id, 1u);
}

TEST(SessionJournal, TornFinalLineIsSkippedNeverFatal) {
  TempDir dir("torn");
  const std::string path = (fs::path(dir.path()) / "journal.jsonl").string();
  SessionJournal journal;
  open_next_epoch(journal, path);
  journal.append(WideEvent("admit", "a", 1).add("steps", 4));
  journal.close();
  {
    // A SIGKILL tears at most the final line: append half a record.
    std::ofstream out(path, std::ios::app);
    out << R"({"ts":1.5,"tenant":"a","session":2,"kin)";
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.epochs, 1);
  EXPECT_EQ(replay.malformed_lines, 1u);
  ASSERT_EQ(replay.sessions.size(), 1u);
  EXPECT_TRUE(replay.sessions.at({1, 1}).admitted);
}

// A journal written by a build from before facts carried typed attrs: the
// flags are 0/1 numbers, and replay must still read them.
TEST(SessionJournal, ReplayReadsNumericFlagsOfOlderJournals) {
  TempDir dir("numeric");
  const std::string path = (fs::path(dir.path()) / "journal.jsonl").string();
  {
    std::ofstream out(path);
    out << R"({"ts":1,"tenant":"","session":0,"kind":"epoch",)"
        << R"("attrs":{"epoch":1}})" << '\n'
        << R"({"ts":2,"tenant":"a","session":1,"kind":"admit",)"
        << R"("attrs":{"steps":4,"allow_degraded":0}})" << '\n'
        << R"({"ts":3,"tenant":"a","session":1,"kind":"terminal",)"
        << R"("attrs":{"state":"completed","diverged":1}})" << '\n';
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.malformed_lines, 0u);
  const JournalSession& s = replay.sessions.at({1, 1});
  EXPECT_FALSE(s.request.allow_degraded);
  EXPECT_TRUE(s.terminal_diverged);
}

// What a SessionManager journals at admission is what recovery replays:
// the effective request of a degraded admission, field by field, with the
// deadline bit for bit.
TEST(SessionJournal, ReplayReturnsTheEffectiveRequestBitwise) {
  TempDir dir("effective");
  SessionRequest req;
  req.tenant = "gold";
  req.mesh_level = 3;
  req.test_case = 5;
  req.steps = 6;
  req.output_every = 2;
  req.priority = 2;
  req.deadline_modeled_s = 1234.56789012345;
  req.threads = 1;
  req.allow_degraded = true;
  SessionRequest degraded = req;
  degraded.mesh_level = 2;
  degraded.output_every = 4;

  const CostModel costs;
  ServiceOptions opts;
  opts.workers = 1;
  opts.durable.dir = dir.path();
  // Room for the level-2 run but not the level-3 one: the ladder degrades.
  opts.admission.capacity_modeled_s =
      (costs.price(degraded) + costs.price(req)) / 2;
  ASSERT_LT(costs.price(degraded), opts.admission.capacity_modeled_s);
  std::uint64_t id = 0;
  {
    SessionManager manager(opts);
    manager.set_paused(true);  // journaled at admission; it need not run
    id = manager.submit(req);
    const SessionResult r = manager.result(id);
    ASSERT_EQ(r.state, SessionState::Queued) << r.reason;
    ASSERT_TRUE(r.degraded);
    ASSERT_EQ(r.mesh_level_used, degraded.mesh_level);
    ASSERT_EQ(r.output_every_used, degraded.output_every);
  }

  const JournalReplay replay = replay_journal(opts.durable.journal_path());
  EXPECT_EQ(replay.malformed_lines, 0u);
  ASSERT_EQ(replay.sessions.count({1, id}), 1u);
  const JournalSession& s = replay.sessions.at({1, id});
  EXPECT_TRUE(s.admitted);
  EXPECT_EQ(s.tenant, degraded.tenant);
  const SessionRequest& got = s.request;
  EXPECT_EQ(got.tenant, degraded.tenant);
  EXPECT_EQ(got.mesh_level, degraded.mesh_level);
  EXPECT_EQ(got.test_case, degraded.test_case);
  EXPECT_EQ(got.steps, degraded.steps);
  EXPECT_EQ(got.output_every, degraded.output_every);
  EXPECT_EQ(got.priority, degraded.priority);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deadline_modeled_s),
            std::bit_cast<std::uint64_t>(degraded.deadline_modeled_s))
      << got.deadline_modeled_s;
  EXPECT_EQ(got.threads, degraded.threads);
  EXPECT_EQ(got.allow_degraded, degraded.allow_degraded);
}

TEST(SessionJournal, MissingFileIsAnEmptyReplay) {
  const JournalReplay replay = replay_journal("/nonexistent/journal.jsonl");
  EXPECT_EQ(replay.epochs, 0);
  EXPECT_TRUE(replay.sessions.empty());
  EXPECT_TRUE(replay.incomplete().empty());
}

TEST(DurabilityPolicy, EnvRoundTripAndLayout) {
  ::setenv("MPAS_CHECKPOINT_DIR", "/tmp/mpas_ckpt_env", 1);
  ::setenv("MPAS_CHECKPOINT_EVERY", "25", 1);
  ::setenv("MPAS_CHECKPOINT_KEEP", "5", 1);
  const DurabilityPolicy policy = DurabilityPolicy::from_env();
  ::unsetenv("MPAS_CHECKPOINT_DIR");
  ::unsetenv("MPAS_CHECKPOINT_EVERY");
  ::unsetenv("MPAS_CHECKPOINT_KEEP");
  EXPECT_TRUE(policy.enabled());
  EXPECT_EQ(policy.dir, "/tmp/mpas_ckpt_env");
  EXPECT_EQ(policy.every, 25);
  EXPECT_EQ(policy.keep, 5);
  EXPECT_EQ(policy.journal_path(), "/tmp/mpas_ckpt_env/journal.jsonl");
  EXPECT_EQ(policy.session_dir(2, 7), "/tmp/mpas_ckpt_env/sessions/e2_s7");

  const DurabilityPolicy off = DurabilityPolicy::from_env();
  EXPECT_FALSE(off.enabled());
}

// The defaults have one source, the env table: with the three variables
// unset, a default-constructed policy and from_env() agree field by field.
TEST(DurabilityPolicy, DefaultsAgreeWithFromEnvWhenUnset) {
  ::unsetenv("MPAS_CHECKPOINT_DIR");
  ::unsetenv("MPAS_CHECKPOINT_EVERY");
  ::unsetenv("MPAS_CHECKPOINT_KEEP");
  const DurabilityPolicy defaults;
  const DurabilityPolicy from_env = DurabilityPolicy::from_env();
  EXPECT_EQ(defaults.dir, from_env.dir);
  EXPECT_EQ(defaults.every, from_env.every);
  EXPECT_EQ(defaults.keep, from_env.keep);
  EXPECT_FALSE(defaults.enabled());
}

// --------------------------------------------------- whole-service recovery

/// Shared scaffolding: fabricate the debris of a crashed epoch-1 process —
/// a journal whose session was admitted but never finished, plus (per
/// test) durable generations in the session's chain directory — then boot
/// a SessionManager over it and audit the recovery.
class ServiceRecovery : public ::testing::Test {
 protected:
  static constexpr int kLevel = 2;
  static constexpr int kCase = 2;
  static constexpr int kSteps = 8;

  DurabilityPolicy policy(const std::string& dir) const {
    DurabilityPolicy p;
    p.dir = dir;
    p.every = 2;
    p.keep = 3;
    return p;
  }

  SessionRequest request() const {
    SessionRequest req;
    req.tenant = "gold";
    req.mesh_level = kLevel;
    req.test_case = kCase;
    req.steps = kSteps;
    req.output_every = 2;
    return req;
  }

  ServiceOptions options(const DurabilityPolicy& p, int workers = 1) const {
    ServiceOptions opts;
    opts.workers = workers;
    opts.durable = p;
    opts.admission.capacity_modeled_s =
        100 * CostModel().price(request());
    return opts;
  }

  /// Write epoch 1's journal: one admitted, unfinished session (id 1).
  void write_dead_epoch(const DurabilityPolicy& p) const {
    fs::create_directories(p.dir);
    SessionJournal journal;
    open_next_epoch(journal, p.journal_path());
    const SessionRequest req = request();
    journal.append(WideEvent("admit", req.tenant, 1)
                       .add("mesh_level", req.mesh_level)
                       .add("test_case", req.test_case)
                       .add("steps", req.steps)
                       .add("output_every", req.output_every)
                       .add("priority", req.priority)
                       .add("deadline_modeled_s", Real{0})
                       .add("threads", 0)
                       .add("allow_degraded", true));
    journal.close();
  }

  /// Run the reference integrator to `upto` steps and publish its
  /// state fields as a durable generation in session 1's chain dir.
  CheckpointImage publish_progress(const DurabilityPolicy& p, int upto) const {
    const auto mesh = mesh::get_global_mesh(kLevel);
    const auto tc = sw::make_test_case(kCase);
    sw::SwParams params;
    params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
    sw::SwModel ref(*mesh, params);
    sw::apply_initial_conditions(*tc, *mesh, ref.fields());
    ref.initialize();
    ref.run(upto);
    CheckpointImage image;
    image.step = upto;
    sw::snapshot_state(ref.fields(), 0, image);
    image.user_tag = state_hash(ref.fields());

    resilience::durable::DurableStore store(
        {p.session_dir(1, 1), p.keep, nullptr});
    const auto result = store.publish(image);
    EXPECT_TRUE(result.published);
    return image;
  }
};

/// Live threads of this process: one /proc/self/task entry each.
std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// A finished session's durable writer thread is joined when the session
// goes terminal, not left idle until the manager is destroyed: sessions
// run to terminal on one live manager leave its thread count unchanged.
TEST_F(ServiceRecovery, FinishedSessionsReleaseTheirWriterThreads) {
  TempDir dir("threads");
  SessionManager manager(options(policy(dir.path())));
  // Warm-up: whatever a first session starts lazily is running by now.
  manager.submit(request());
  ASSERT_TRUE(manager.drain());
  const std::size_t before = live_threads();

  for (int i = 0; i < 6; ++i) manager.submit(request());
  ASSERT_TRUE(manager.drain());
  for (const SessionResult& r : manager.results())
    EXPECT_EQ(r.state, SessionState::Completed) << r.reason;
  // A joined thread can stay listed for a moment while the kernel reaps
  // it, in either count; only growth is a leak.
  std::size_t after = live_threads();
  for (int i = 0; i < 200 && after > before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = live_threads();
  }
  EXPECT_LE(after, before);
}

TEST_F(ServiceRecovery, ResumesBitwiseFromDurableCheckpoint) {
  TempDir dir("recover");
  const DurabilityPolicy p = policy(dir.path());
  write_dead_epoch(p);
  publish_progress(p, 4);

  SessionManager manager(options(p));
  ASSERT_EQ(manager.recoveries().size(), 1u);
  const RecoveryOutcome& outcome = manager.recoveries()[0];
  EXPECT_EQ(outcome.old_id, 1u);
  EXPECT_EQ(outcome.old_epoch, 1);
  EXPECT_TRUE(outcome.readmitted);
  EXPECT_EQ(outcome.resumed_from_step, 4);
  EXPECT_EQ(outcome.fallbacks, 0);
  ASSERT_TRUE(manager.drain());

  const SessionResult result = manager.result(outcome.new_id);
  EXPECT_EQ(result.state, SessionState::Completed) << result.reason;
  EXPECT_TRUE(result.recovered);
  EXPECT_EQ(result.resumed_from_step, 4);
  EXPECT_EQ(result.recovered_from, 1u);
  EXPECT_EQ(result.recovered_from_epoch, 1);
  // The whole point: the resumed trajectory lands bitwise on the
  // uninterrupted run.
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.state_hash, reference_hash(kLevel, kCase, kSteps));
  EXPECT_EQ(manager.stats().recovered, 1u);
  EXPECT_EQ(manager.stats().recovered_diverged, 0u);

  // The journal holds no progress line: the store alone recorded step 4,
  // and the readmitted fact carries it.
  std::ifstream journal(p.journal_path());
  for (std::string line; std::getline(journal, line);)
    EXPECT_EQ(line.find("\"kind\":\"progress\""), std::string::npos) << line;
  const JournalReplay replay = replay_journal(p.journal_path());
  EXPECT_EQ(replay.sessions.at({1, 1}).last_step, 4);
}

TEST_F(ServiceRecovery, CorruptNewestGenerationFallsBackToOlder) {
  TempDir dir("genfall");
  const DurabilityPolicy p = policy(dir.path());
  write_dead_epoch(p);
  publish_progress(p, 2);
  publish_progress(p, 4);

  // Rot the newest generation: recovery must fall back to the step-2
  // image and STILL converge bitwise — it just replays two more steps.
  const std::string newest =
      (fs::path(p.session_dir(1, 1)) / "ckpt_00000002.mpasckpt").string();
  resilience::durable::flip_byte(newest, 70);

  SessionManager manager(options(p));
  ASSERT_EQ(manager.recoveries().size(), 1u);
  EXPECT_EQ(manager.recoveries()[0].resumed_from_step, 2);
  EXPECT_EQ(manager.recoveries()[0].fallbacks, 1);
  ASSERT_TRUE(manager.drain());

  const SessionResult result = manager.result(manager.recoveries()[0].new_id);
  EXPECT_EQ(result.state, SessionState::Completed) << result.reason;
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.state_hash, reference_hash(kLevel, kCase, kSteps));
}

TEST_F(ServiceRecovery, NoCheckpointRestartsFromStepZero) {
  TempDir dir("zero");
  const DurabilityPolicy p = policy(dir.path());
  write_dead_epoch(p);  // admitted, crashed before any durable progress

  SessionManager manager(options(p));
  ASSERT_EQ(manager.recoveries().size(), 1u);
  EXPECT_EQ(manager.recoveries()[0].resumed_from_step, -1);
  ASSERT_TRUE(manager.drain());

  const SessionResult result = manager.result(manager.recoveries()[0].new_id);
  EXPECT_EQ(result.state, SessionState::Completed) << result.reason;
  EXPECT_TRUE(result.recovered);
  EXPECT_EQ(result.resumed_from_step, -1);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.state_hash, reference_hash(kLevel, kCase, kSteps));
}

TEST_F(ServiceRecovery, SecondRestartFindsNothingToRecover) {
  TempDir dir("idempotent");
  const DurabilityPolicy p = policy(dir.path());
  write_dead_epoch(p);
  publish_progress(p, 4);

  {
    SessionManager manager(options(p));
    ASSERT_EQ(manager.recoveries().size(), 1u);
    ASSERT_TRUE(manager.drain());
  }
  // Epoch 2 recovered and finished session 1's work; epoch 3 must see a
  // clean journal — readmitted + terminal, nothing incomplete, and the
  // retired chain directory gone.
  {
    SessionManager manager(options(p));
    EXPECT_TRUE(manager.recoveries().empty());
    ASSERT_TRUE(manager.drain());
  }
  const JournalReplay replay = replay_journal(p.journal_path());
  EXPECT_EQ(replay.epochs, 3);
  EXPECT_TRUE(replay.incomplete().empty());
  EXPECT_TRUE(replay.sessions.at({1, 1}).readmitted);
  EXPECT_FALSE(fs::exists(p.session_dir(1, 1)));
}

// The chaos scenario the whole layer exists for: a REAL SIGKILL lands on a
// durable soak mid-run; the restarted service must detect the dead epoch,
// re-admit its session, resume from the newest durable generation, and
// converge bitwise with the uninterrupted trajectory — plus leave a
// parseable Recovery black box behind.
TEST_F(ServiceRecovery, SigkilledSoakRecoversBitwiseWithFlightDump) {
#ifdef MPAS_TEST_TSAN
  GTEST_SKIP() << "fork + threads is outside TSan's supported model";
#endif
  TempDir dir("sigkill");
  DurabilityPolicy p = policy(dir.path());
  SessionRequest req = request();
  req.steps = 400;  // long enough that the kill always lands mid-run
  const Real capacity = 100 * CostModel().price(req);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Victim process: a durable session soak. No gtest machinery in the
    // child — it either gets SIGKILLed (expected) or exits 0 (too fast,
    // the parent fails the run).
    ServiceOptions opts;
    opts.workers = 1;
    opts.durable = p;
    opts.admission.capacity_modeled_s = capacity;
    SessionManager victim(opts);
    victim.submit(req);
    victim.drain();
    std::_Exit(0);
  }

  // Wait for the first checkpoint generation on disk (the store publishes
  // by rename, so a ckpt_*.mpasckpt name is a complete generation), then
  // kill without mercy.
  const auto published = [&p] {
    std::error_code ec;
    fs::recursive_directory_iterator it(fs::path(p.dir) / "sessions", ec);
    for (; !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      const fs::path& file = it->path();
      if (file.extension() == ".mpasckpt" &&
          file.filename().string().rfind("ckpt_", 0) == 0)
        return true;
    }
    return false;
  };
  bool progressed = false;
  bool child_gone = false;
  int status = 0;
  for (int i = 0; i < 30000 && !progressed && !child_gone; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    progressed = published();
    child_gone = ::waitpid(pid, &status, WNOHANG) != 0;
  }
  ASSERT_FALSE(child_gone) << "victim finished before the kill landed";
  ASSERT_TRUE(progressed) << "no checkpoint generation within 30s";
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Restart over the same directory, black boxes armed. The recovered
  // request prices at 400 steps, so capacity must match the victim's.
  ServiceOptions opts = options(p);
  opts.admission.capacity_modeled_s = capacity;
  opts.flight_dump.dir = (fs::path(dir.path()) / "flight").string();
  SessionManager manager(opts);
  ASSERT_EQ(manager.recoveries().size(), 1u);
  const RecoveryOutcome& outcome = manager.recoveries()[0];
  EXPECT_TRUE(outcome.readmitted);
  EXPECT_GE(outcome.resumed_from_step, p.every);
  ASSERT_TRUE(manager.drain());

  const SessionResult result = manager.result(outcome.new_id);
  EXPECT_EQ(result.state, SessionState::Completed) << result.reason;
  EXPECT_TRUE(result.recovered);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.state_hash, reference_hash(kLevel, kCase, req.steps));

  // ≥1 parseable recovery flight dump: the black box names the resume.
  bool recovery_dumped = false;
  ASSERT_TRUE(fs::exists(opts.flight_dump.dir));
  for (const auto& entry : fs::directory_iterator(opts.flight_dump.dir)) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const auto fact = obs::json::parse(line);  // throws if torn
      if (fact.at("kind").as_string() == "recovery") recovery_dumped = true;
    }
  }
  EXPECT_TRUE(recovery_dumped);

  // The journal now tells the whole story offline (obs_query mode=recovery
  // applies these same folds).
  const JournalReplay replay = replay_journal(p.journal_path());
  EXPECT_EQ(replay.epochs, 2);
  EXPECT_TRUE(replay.incomplete().empty());
  EXPECT_TRUE(replay.sessions.at({1, 1}).readmitted);
}

// ---------------------------------------------------------- overhead budget

TEST(DurableOverhead, BackgroundCheckpointingStaysUnderTwoPercentOfAStep) {
  // A real serial SwModel step on the level-3 mesh for scale.
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  sw::SwModel model(*mesh, params);
  sw::apply_initial_conditions(*tc, *mesh, model.fields());
  model.initialize();
  constexpr int kSteps = 3;
  WallTimer step_timer;
  model.run(kSteps);
  const double per_step = step_timer.seconds() / kSteps;

  // Integrator-side durable cost at the default cadence (every=10),
  // amortized over 200 steps: 20 snapshot+stage calls (a copy of the four
  // state fields each; the fsyncs all happen on the background writer thread)
  // plus 180 off-cadence modulo checks.
  TempDir dir("overhead");
  DurabilityPolicy p;
  p.dir = dir.path();
  p.every = 10;
  p.keep = 3;
  SessionCheckpointer ckpt(p, (fs::path(dir.path()) / "chain").string(),
                           nullptr);
  constexpr int kCalls = 200;
  WallTimer durable_timer;
  for (int i = 1; i <= kCalls; ++i) ckpt.on_step(i, model.fields());
  const double per_step_durable = durable_timer.seconds() / kCalls;
  ASSERT_TRUE(ckpt.flush());

  EXPECT_LT(per_step_durable, 0.02 * per_step)
      << "durable=" << per_step_durable << "s/step, step=" << per_step << "s";

  // The off-cadence path alone (199 of every 200 steps at cadence 10 on a
  // long run hit only this) is a modulo and a return — far below budget.
  WallTimer off_timer;
  constexpr int kOffProbes = 100000;
  for (int i = 0; i < kOffProbes; ++i)
    ckpt.on_step(10 * static_cast<std::int64_t>(i) + 3, model.fields());
  const double per_off = off_timer.seconds() / kOffProbes;
  EXPECT_LT(per_off, 0.001 * per_step);
}

}  // namespace
}  // namespace mpas::service
