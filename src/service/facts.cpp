#include "service/facts.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "service/journal.hpp"
#include "util/timer.hpp"

namespace mpas::service {

void record_fact(obs::telemetry::WideEvent fact,
                 obs::telemetry::FlightRecorder* ring,
                 SessionJournal* journal) {
  if (fact.ts_s < 0) fact.ts_s = monotonic_seconds();
  obs::telemetry::EventLog::global().emit(fact);
  auto& tracer = obs::TraceRecorder::global();
  if (tracer.enabled()) {
    std::string args = attrs_json(obs::telemetry::WideEvent()
                                      .add("id", fact.session)
                                      .add("tenant", fact.tenant));
    if (!fact.attrs.empty()) {
      args += ',';
      args += attrs_json(fact);
    }
    tracer.instant("service:" + fact.kind, std::move(args));
  }
  if (journal != nullptr) journal->append(fact);
  // Last, so the ring takes the fact by move.
  if (ring != nullptr) ring->record(std::move(fact));
}

}  // namespace mpas::service
