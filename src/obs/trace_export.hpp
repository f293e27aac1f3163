// Chrome-trace / Perfetto JSON rendering of a TraceRecorder.
//
// The output is the "JSON Array Format with metadata" that both
// chrome://tracing and https://ui.perfetto.dev load directly:
//   { "traceEvents": [ {...}, ... ], "displayTimeUnit": "ms",
//     "otherData": { "MPAS_...": "<effective value>", ... } }
// otherData holds env::resolved(): the configuration the run used.
// Tracks map to pids (process_name metadata), lanes to tids (thread_name
// metadata), spans to "X" complete events, instants to "i", counter
// samples to "C". Timestamps are microseconds, as the format requires.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace mpas::obs {

/// Render the recorder's current contents as one Chrome-trace JSON string.
[[nodiscard]] std::string to_chrome_json(const TraceRecorder& recorder);

/// Write to_chrome_json() to `path` (parent directory must exist).
void write_chrome_trace(const std::string& path,
                        const TraceRecorder& recorder);

}  // namespace mpas::obs
