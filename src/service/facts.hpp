// One service fact, recorded once.
//
// Every service decision and session state change is one
// obs::telemetry::WideEvent, built with typed attrs where it is decided
// and handed to record_fact, which stamps it once and writes the same
// record to every sink that takes it:
//
//   event log    EventLog::global() (MPAS_EVENTS);
//   trace        an instant `service:<kind>`, args id, tenant and attrs;
//   flight ring  the session's FlightRecorder, when the caller has one;
//   journal      the durability WAL, for the journal kinds (journal.hpp).
//
// The four sinks are fixed and every call site knows its ring and whether
// the fact is a WAL record, so a null pointer is all the routing there is.
// DESIGN.md §13 lists the kinds and their attrs.
#pragma once

#include "obs/telemetry/event_log.hpp"
#include "obs/telemetry/flight_recorder.hpp"

namespace mpas::service {

class SessionJournal;

/// Stamp `fact` (a fact that arrives stamped keeps its ts) and write it to
/// the event log, the trace, `journal` when non-null and enabled, and
/// `ring` when non-null. Each sink takes only its own leaf lock.
void record_fact(obs::telemetry::WideEvent fact,
                 obs::telemetry::FlightRecorder* ring = nullptr,
                 SessionJournal* journal = nullptr);

}  // namespace mpas::service
