// Chrome trace-event exporter (chrome://tracing / Perfetto JSON format).
//
// Merges the two halves of the observability stack into one timeline file:
//   - ProfileRegistry wall-clock spans become "B"/"E" duration events on a
//     dedicated "wall clock" process, one track per nesting depth — *what
//     it cost*;
//   - EventLog sim-time events become instant events on a "sim time"
//     process with one track per AS (tid = actor) — *what happened*, with
//     each event's id and causal parent in its args.
// The two processes carry independent clocks (nanoseconds vs sim ticks);
// sim ticks are scaled onto the microsecond timeline Perfetto expects at
// 1000 us per tick (the protocol code treats one tick as a millisecond).
//
// Output is the object form `{"traceEvents":[...]}` with process/thread
// metadata events, so the file loads directly in Perfetto's UI.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/profile.hpp"

namespace miro::obs {

/// Writes the merged trace (`sim_events` is typically `log.events()`).
/// Either source may be null/empty — a profiler-only or sim-only trace is
/// still a valid file.
void write_chrome_trace(std::ostream& out, const ProfileRegistry* profile,
                        const std::vector<Event>& sim_events);

/// File convenience wrapper; returns false (with a note on stderr) when the
/// path cannot be opened or a write or the final flush fails.
bool write_chrome_trace_file(const std::string& path,
                             const ProfileRegistry* profile,
                             const std::vector<Event>& sim_events);

}  // namespace miro::obs
