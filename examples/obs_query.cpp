// obs_query: the service's facts, queryable.
//
// Reads any file of service facts — one JSONL WideEvent per decision or
// session state change: the MPAS_EVENTS event log, the durability
// journal, or a flight dump (flight_session<id>.jsonl, whose first line
// is the flight_dump fact) — and answers the questions CI and humans
// both ask: what happened, to whom, when — and did the service keep its
// SLOs?
//
//   obs_query <events.jsonl> [mode=summary|events|slo] [filters...]
//   obs_query <profile.json> mode=profile [max_drift=<ratio>]
//   obs_query <journal.jsonl> mode=recovery [require_recovered=<n>]
//
// Filters (combine freely):
//   tenant=<name>   kind=<event kind>   session=<id>
//   since=<ts_s>    until=<ts_s>        limit=<n>   (events mode)
//
// SLO mode is the service's one SLO evaluator: service::fold_slo counts
// per-tenant attainment in four dimensions (admission_latency, deadline,
// errors, fidelity; see service/journal.hpp) over the filtered facts, so
// a CI job asserts service behaviour from the artifact alone:
//   mode=slo slo_target=0.95 [latency_budget_us=250000]
//     exit 1 when any tenant/dimension with samples is below target.
//
// Profile mode reads a MPAS_PROFILE JSON artifact instead of an event
// log: round-trips it through the parser (byte-exact, exit 2 on any
// mismatch), prints the measured-vs-modeled share table per profiled
// slot, and with max_drift= exits 1 when the worst share-normalized
// divergence (max(ratio, 1/ratio), machine-scale-free) exceeds it, or
// when no profiled slot carries a prediction to compare against.
//
// Recovery mode folds a durability journal (MPAS_CHECKPOINT_DIR/
// journal.jsonl) with the same replay the service boots from — torn
// final lines from a SIGKILL are tolerated, not fatal — and audits the
// crash-recovery story. Its last_step column is the step a dead session
// was re-admitted from, or the steps a terminal session ran. Exit 1 when
// any recovered session's terminal state diverged from the uninterrupted
// reference, when anything is still incomplete, or when
// require_recovered= sessions did not recover to a terminal state.
//
// Presence assertions (summary, events and slo modes; profile and
// recovery modes reject them with exit 2):
//   require_kind=<kind> [require_min=<n>]
//     exit 1 when fewer than n matching events of that kind exist.
//
// Exit codes: 0 ok, 1 assertion failed, 2 usage / parse error.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profiling/profile_store.hpp"
#include "obs/profiling/profile_trace.hpp"
#include "service/journal.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

using mpas::obs::json::Value;

int main(int argc, char** argv) {
  // The file path is the one positional argument; everything else is
  // key=value. Split them before Config sees the argv (a bare token would
  // otherwise parse as `path=true`).
  std::string path;
  std::vector<const char*> config_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.find('=') == std::string::npos && path.empty()) {
      path = arg;
    } else {
      config_args.push_back(argv[i]);
    }
  }
  if (path.empty()) {
    std::cerr << "usage: obs_query <events.jsonl> "
              << "[mode=summary|events|slo|profile|recovery]"
              << " [tenant=] [kind=] [session=] [since=] [until=]"
              << " [slo_target=] [require_kind=] [require_min=] [limit=]"
              << " [max_drift=] [require_recovered=]\n";
    return 2;
  }

  mpas::Config cfg;
  try {
    cfg = mpas::Config::from_args(static_cast<int>(config_args.size()),
                                  config_args.data());
  } catch (const std::exception& e) {
    std::cerr << "obs_query: " << e.what() << "\n";
    return 2;
  }

  const std::string mode = cfg.get_string("mode", "summary");
  if ((mode == "profile" || mode == "recovery") && cfg.has("require_kind")) {
    std::cerr << "obs_query: require_kind= is not evaluated in mode=" << mode
              << "; use mode=summary, events or slo\n";
    return 2;
  }

  if (mode == "profile") {
    namespace profiling = mpas::obs::profiling;
    profiling::Profile profile;
    try {
      profile = profiling::read_profile_file(path);
    } catch (const std::exception& e) {
      std::cerr << "obs_query: " << e.what() << "\n";
      return 2;
    }
    // Round-trip: serialize -> parse -> serialize must be byte-identical
    // (the ProfileStore exactness contract CI leans on).
    const std::string once = profile.to_json();
    std::string twice;
    try {
      twice = profiling::Profile::from_json(once).to_json();
    } catch (const std::exception& e) {
      std::cerr << "obs_query: profile re-parse failed: " << e.what() << "\n";
      return 2;
    }
    if (once != twice) {
      std::cerr << "obs_query: profile round-trip mismatch for '" << path
                << "'\n";
      return 2;
    }
    std::cout << "profile: " << profile.entries.size() << " slots, backend '"
              << profile.backend << "', threads " << profile.threads
              << ", counters "
              << (profile.counters_available ? "sampled" : "unavailable")
              << ", round-trip exact\n";

    mpas::Table table({"pattern", "kernel", "device", "calls", "measured_us",
                       "modeled_us", "meas_share", "model_share", "drift"});
    for (const profiling::ShareDrift& d : profiling::share_drift(profile)) {
      const auto it = std::find_if(
          profile.entries.begin(), profile.entries.end(),
          [&](const profiling::ProfileEntry& e) { return e.key == d.key; });
      if (it == profile.entries.end()) continue;
      table.add_row(
          {d.key.pattern, d.key.kernel, d.key.device,
           std::to_string(it->calls), mpas::Table::num(it->mean_s() * 1e6),
           mpas::Table::num(it->predicted_s_per_call * 1e6),
           mpas::Table::num(d.measured_share),
           mpas::Table::num(d.predicted_share),
           d.ratio > 0 ? mpas::Table::num(d.divergence()) : "-"});
    }
    std::cout << table.to_ascii();

    const double worst = profiling::worst_share_drift(profile);
    std::cout << "worst share drift: " << worst << "\n";
    if (cfg.has("max_drift")) {
      const double max_drift = cfg.get_real("max_drift", 2.0);
      // Fail closed: with no predicted slot the gate would compare nothing.
      const bool predicted = std::any_of(
          profile.entries.begin(), profile.entries.end(),
          [](const profiling::ProfileEntry& e) {
            return e.calls > 0 && e.predicted_s_per_call > 0;
          });
      if (!predicted) {
        std::cerr << "DRIFT: no profiled slot carries a prediction, so "
                     "max_drift has nothing to check\n";
        return 1;
      }
      if (worst > max_drift) {
        std::cerr << "DRIFT: worst share divergence " << worst
                  << " > max_drift " << max_drift << "\n";
        return 1;
      }
      std::cout << "share drift <= " << max_drift
                << " for every profiled slot\n";
    }
    return 0;
  }

  if (mode == "recovery") {
    namespace service = mpas::service;
    if (!std::ifstream(path).good()) {
      std::cerr << "obs_query: cannot open '" << path << "'\n";
      return 2;
    }
    // The same fold the service boots from: torn lines are skipped and
    // counted (a SIGKILL tears at most the final line), never fatal.
    const service::JournalReplay replay = service::replay_journal(path);
    std::cout << "epochs: " << replay.epochs << "\n";
    if (replay.malformed_lines > 0)
      std::cout << "torn_lines_skipped: " << replay.malformed_lines << "\n";

    mpas::Table table({"epoch", "session", "tenant", "recovered_from",
                       "last_step", "state", "diverged"});
    std::uint64_t recovered_terminal = 0;
    std::uint64_t diverged = 0;
    std::uint64_t incomplete = 0;
    for (const auto& [key, s] : replay.sessions) {
      const bool is_recovery = s.recovered_from != 0;
      const bool done = s.terminal || s.readmitted;
      if (!done) incomplete += 1;
      if (is_recovery && s.terminal) {
        recovered_terminal += 1;
        if (s.terminal_diverged) diverged += 1;
      }
      table.add_row(
          {std::to_string(s.epoch), std::to_string(s.id), s.tenant,
           is_recovery ? service::hash_hex(s.recovered_from) +
                             "@e" + std::to_string(s.recovered_from_epoch)
                       : "-",
           std::to_string(s.last_step),
           s.terminal     ? s.terminal_state
           : s.readmitted ? std::string("readmitted")
                          : std::string("INCOMPLETE"),
           s.terminal ? (s.terminal_diverged ? "YES" : "no") : "-"});
    }
    std::cout << table.to_ascii();
    std::cout << "recovered_terminal: " << recovered_terminal << "\n";
    std::cout << "diverged: " << diverged << "\n";
    std::cout << "incomplete: " << incomplete << "\n";

    int rc = 0;
    if (diverged > 0) {
      std::cerr << "DIVERGED: " << diverged
                << " recovered session(s) ended bitwise-different from the"
                << " uninterrupted reference\n";
      rc = 1;
    }
    if (incomplete > 0) {
      std::cerr << "INCOMPLETE: " << incomplete
                << " session(s) neither terminal nor readmitted\n";
      rc = 1;
    }
    if (cfg.has("require_recovered")) {
      const long want = cfg.get_int("require_recovered", 1);
      if (static_cast<long>(recovered_terminal) < want) {
        std::cerr << "MISSING RECOVERIES: " << recovered_terminal
                  << " recovered session(s) reached terminal, need >= "
                  << want << "\n";
        rc = 1;
      } else {
        std::cout << recovered_terminal
                  << " recovered session(s) reached terminal (>= " << want
                  << ")\n";
      }
    }
    if (rc == 0) std::cout << "recovery audit clean\n";
    return rc;
  }

  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "obs_query: cannot open '" << path << "'\n";
    return 2;
  }
  const std::string want_tenant = cfg.get_string("tenant", "");
  const std::string want_kind = cfg.get_string("kind", "");
  const long want_session = cfg.get_int("session", -1);
  const double since = cfg.get_real("since", -1e300);
  const double until = cfg.get_real("until", 1e300);

  // The facts that pass the filters, parsed and verbatim (events mode).
  std::vector<Value> facts;
  std::vector<std::string> lines;
  const auto kind_of = [](const Value& f) -> const std::string& {
    return f.at("kind").as_string();
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    line_no += 1;
    if (line.empty()) continue;
    Value v;
    try {
      v = mpas::obs::json::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "obs_query: " << path << ":" << line_no
                << ": malformed event: " << e.what() << "\n";
      return 2;
    }
    const double ts = v.at("ts").as_number();
    if (!want_tenant.empty() && v.at("tenant").as_string() != want_tenant)
      continue;
    if (!want_kind.empty() && kind_of(v) != want_kind) continue;
    if (want_session >= 0 &&
        static_cast<std::uint64_t>(v.at("session").as_number()) !=
            static_cast<std::uint64_t>(want_session))
      continue;
    if (ts < since || ts > until) continue;
    facts.push_back(std::move(v));
    lines.push_back(line);
  }

  int exit_code = 0;

  if (mode == "events") {
    const long limit = cfg.get_int("limit", -1);
    long printed = 0;
    for (const std::string& raw : lines) {
      if (limit >= 0 && printed >= limit) break;
      std::cout << raw << "\n";
      printed += 1;
    }
  } else if (mode == "summary") {
    std::map<std::string, std::uint64_t> by_kind;
    std::map<std::string, std::uint64_t> by_tenant;
    double first_ts = 1e300;
    double last_ts = -1e300;
    for (const Value& f : facts) {
      by_kind[kind_of(f)] += 1;
      const std::string& tenant = f.at("tenant").as_string();
      if (!tenant.empty()) by_tenant[tenant] += 1;
      const double ts = f.at("ts").as_number();
      first_ts = std::min(first_ts, ts);
      last_ts = std::max(last_ts, ts);
    }
    std::cout << "events: " << facts.size() << "\n";
    if (!facts.empty())
      std::cout << "span_s: " << (last_ts - first_ts) << "\n";
    mpas::Table kinds({"kind", "count"});
    for (const auto& [kind, count] : by_kind)
      kinds.add_row({kind, std::to_string(count)});
    std::cout << kinds.to_ascii();
    mpas::Table tenants({"tenant", "events"});
    for (const auto& [tenant, count] : by_tenant)
      tenants.add_row({tenant, std::to_string(count)});
    std::cout << tenants.to_ascii();
  } else if (mode == "slo") {
    const mpas::service::SloFold windows = mpas::service::fold_slo(
        facts, cfg.get_real("latency_budget_us", 250000.0));
    mpas::Table table({"tenant", "dimension", "samples", "attainment"});
    for (const auto& [tenant, dims] : windows)
      for (const auto& [dim, w] : dims)
        table.add_row({tenant, dim, std::to_string(w.total),
                       mpas::Table::num(w.attainment())});
    std::cout << table.to_ascii();
    if (cfg.has("slo_target")) {
      const double target = cfg.get_real("slo_target", 0.95);
      for (const auto& [tenant, dims] : windows)
        for (const auto& [dim, w] : dims)
          if (w.total > 0 && w.attainment() < target) {
            std::cerr << "SLO MISS: tenant '" << tenant << "' " << dim
                      << " attainment " << w.attainment() << " < target "
                      << target << " over " << w.total << " samples\n";
            exit_code = 1;
          }
      if (exit_code == 0)
        std::cout << "SLO attainment >= " << target
                  << " for every tenant/dimension\n";
    }
  } else {
    std::cerr << "obs_query: unknown mode '" << mode << "'\n";
    return 2;
  }

  if (cfg.has("require_kind")) {
    const std::string required = cfg.get_string("require_kind", "");
    const long min_count = cfg.get_int("require_min", 1);
    const long found = static_cast<long>(
        std::count_if(facts.begin(), facts.end(), [&](const Value& f) {
          return kind_of(f) == required;
        }));
    if (found < min_count) {
      std::cerr << "MISSING EVENTS: " << found << " '" << required
                << "' events, need >= " << min_count << "\n";
      exit_code = 1;
    } else {
      std::cout << found << " '" << required << "' events (>= " << min_count
                << ")\n";
    }
  }

  return exit_code;
}
