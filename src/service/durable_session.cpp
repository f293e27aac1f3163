#include "service/durable_session.hpp"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"  // trace_arg
#include "service/journal.hpp"
#include "service/session.hpp"  // state_hash
#include "sw/state_codec.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace mpas::service {

namespace fs = std::filesystem;

DurabilityPolicy DurabilityPolicy::from_env() {
  DurabilityPolicy policy;
  if (const char* dir = std::getenv("MPAS_CHECKPOINT_DIR");
      dir != nullptr && *dir != '\0')
    policy.dir = dir;
  policy.every =
      static_cast<int>(env_long("MPAS_CHECKPOINT_EVERY", policy.every, 1));
  policy.keep =
      static_cast<int>(env_long("MPAS_CHECKPOINT_KEEP", policy.keep, 1));
  return policy;
}

std::string DurabilityPolicy::journal_path() const {
  return (fs::path(dir) / "journal.jsonl").string();
}

std::string DurabilityPolicy::session_dir(int epoch, std::uint64_t id) const {
  std::ostringstream os;
  os << "e" << epoch << "_s" << id;
  return (fs::path(dir) / "sessions" / os.str()).string();
}

SessionCheckpointer::SessionCheckpointer(const DurabilityPolicy& policy,
                                         std::string chain_dir,
                                         std::uint64_t id, std::string tenant,
                                         SessionJournal* journal,
                                         resilience::FaultInjector* injector)
    : every_(policy.every),
      chain_dir_(std::move(chain_dir)),
      id_(id),
      tenant_(std::move(tenant)),
      journal_(journal),
      store_({chain_dir_, policy.keep, injector}),
      writer_(store_,
              // Runs on the writer thread, outside the writer's lock: the
              // journal append is file I/O under its own leaf lock.
              [this](const resilience::durable::CheckpointImage& image,
                     const resilience::durable::PublishResult& result) {
                if (!result.published || journal_ == nullptr) return;
                journal_->append(
                    "progress", tenant_, id_,
                    obs::trace_arg("step", image.step) + "," +
                        obs::trace_arg("generation", result.generation) + "," +
                        obs::trace_arg("hash", hash_hex(image.user_tag)));
              }) {
  MPAS_CHECK_MSG(every_ >= 1, "checkpoint cadence must be >= 1");
}

void SessionCheckpointer::on_step(std::int64_t completed_steps,
                                  const sw::FieldStore& fields) {
  if (completed_steps <= 0 || completed_steps % every_ != 0) return;
  resilience::durable::CheckpointImage image;
  image.step = completed_steps;
  sw::snapshot_state(fields, 0, image);
  image.user_tag = state_hash(fields);
  writer_.submit(std::move(image));
}

bool SessionCheckpointer::flush(long timeout_ms) {
  return writer_.flush(timeout_ms);
}

void SessionCheckpointer::retire() {
  flush();
  std::error_code ec;
  fs::remove_all(chain_dir_, ec);
}

}  // namespace mpas::service
