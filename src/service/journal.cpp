#include "service/journal.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "service/facts.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mpas::service {

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::uint64_t parse_hash_hex(const std::string& hex) {
  MPAS_CHECK_MSG(!hex.empty() &&
                     hex.find_first_not_of("0123456789abcdefABCDEF") ==
                         std::string::npos,
                 "malformed hash hex '" << hex << "'");
  return std::stoull(hex, nullptr, 16);
}

void SessionJournal::open(const std::string& path, int epoch) {
  log_.open(path, obs::telemetry::EventLog::Mode::Append);
  epoch_.store(enabled() ? epoch : 0, std::memory_order_relaxed);
  if (enabled())
    record_fact(obs::telemetry::WideEvent("epoch", "", 0).add("epoch", epoch),
                nullptr, this);
}

void SessionJournal::close() {
  log_.close();
  epoch_.store(0, std::memory_order_relaxed);
}

std::vector<JournalSession> JournalReplay::incomplete() const {
  std::vector<JournalSession> out;
  for (const auto& [key, s] : sessions) {
    if (s.admitted && !s.terminal && !s.readmitted && s.epoch < epochs)
      out.push_back(s);
  }
  return out;
}

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  std::ifstream in(path);
  if (!in.good()) return replay;  // fresh directory: nothing to fold

  int epoch = 0;  // running epoch while folding forward
  std::string line;
  auto num = [](const obs::json::Value& v, const char* key, double dflt) {
    return v.has(key) ? v.at(key).as_number() : dflt;
  };
  // Flags are JSON bools; journals from older builds carry 0/1 numbers.
  auto flag = [](const obs::json::Value& v, const char* key, bool dflt) {
    if (!v.has(key)) return dflt;
    const obs::json::Value& f = v.at(key);
    return f.is_number() ? f.as_number() != 0 : f.as_bool();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const auto v = obs::json::parse(line);
      const std::string kind = v.at("kind").as_string();
      if (kind == "epoch") {
        epoch += 1;
        replay.epochs = epoch;
        continue;
      }
      const auto id = static_cast<std::uint64_t>(num(v, "session", 0));
      const auto key = std::make_pair(epoch, id);
      if (kind == "admit" || kind == "admit_degraded") {
        JournalSession s;
        s.epoch = epoch;
        s.id = id;
        s.tenant = v.at("tenant").as_string();
        s.admitted = true;
        const auto& a = v.at("attrs");
        s.request.tenant = s.tenant;
        s.request.mesh_level = static_cast<int>(num(a, "mesh_level", 3));
        s.request.test_case = static_cast<int>(num(a, "test_case", 2));
        s.request.steps = static_cast<int>(num(a, "steps", 10));
        s.request.output_every = static_cast<int>(num(a, "output_every", 1));
        s.request.priority = static_cast<int>(num(a, "priority", 1));
        s.request.deadline_modeled_s =
            static_cast<Real>(num(a, "deadline_modeled_s", 0));
        s.request.threads = static_cast<int>(num(a, "threads", 0));
        s.request.allow_degraded = flag(a, "allow_degraded", true);
        s.recovered_from =
            a.has("recovered_from")
                ? parse_hash_hex(a.at("recovered_from").as_string())
                : 0;
        s.recovered_from_epoch =
            static_cast<int>(num(a, "recovered_from_epoch", 0));
        replay.sessions[key] = std::move(s);
      } else if (kind == "progress") {
        auto it = replay.sessions.find(key);
        if (it == replay.sessions.end()) continue;  // progress w/o admit
        const auto& a = v.at("attrs");
        it->second.progress_step = static_cast<std::int64_t>(num(a, "step", -1));
        it->second.progress_generation =
            static_cast<std::uint64_t>(num(a, "generation", 0));
        if (a.has("hash"))
          it->second.progress_hash = parse_hash_hex(a.at("hash").as_string());
      } else if (kind == "terminal") {
        auto it = replay.sessions.find(key);
        if (it == replay.sessions.end()) continue;
        it->second.terminal = true;
        const auto& a = v.at("attrs");
        if (a.has("state"))
          it->second.terminal_state = a.at("state").as_string();
        it->second.terminal_diverged = flag(a, "diverged", false);
      } else if (kind == "readmitted") {
        // Emitted against the *old* session's (epoch, id).
        const auto& a = v.at("attrs");
        const int of_epoch = static_cast<int>(num(a, "of_epoch", 0));
        auto it = replay.sessions.find(std::make_pair(of_epoch, id));
        if (it != replay.sessions.end()) it->second.readmitted = true;
      }
    } catch (const std::exception&) {
      // A SIGKILL tears at most the final line; skip and count, never fail.
      replay.malformed_lines += 1;
    }
  }
  if (replay.malformed_lines > 0)
    MPAS_LOG_WARN << "journal " << path << ": skipped "
                  << replay.malformed_lines << " malformed line(s)";
  return replay;
}

}  // namespace mpas::service
