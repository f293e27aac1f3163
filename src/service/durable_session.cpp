#include "service/durable_session.hpp"

#include <filesystem>
#include <sstream>
#include <utility>

#include "service/session.hpp"  // state_hash
#include "sw/state_codec.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace mpas::service {

namespace fs = std::filesystem;

DurabilityPolicy DurabilityPolicy::from_env() {
  DurabilityPolicy policy;
  policy.dir = env::text("MPAS_CHECKPOINT_DIR").value_or("");
  policy.every = static_cast<int>(env::integer("MPAS_CHECKPOINT_EVERY"));
  policy.keep = static_cast<int>(env::integer("MPAS_CHECKPOINT_KEEP"));
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
                                         resilience::FaultInjector* injector)
    : every_(policy.every),
      chain_dir_(std::move(chain_dir)),
      store_({chain_dir_, policy.keep, injector}),
      writer_(store_) {
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
