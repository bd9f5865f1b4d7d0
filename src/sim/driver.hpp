/**
 * @file
 * The single-appliance driver: sim::replay (sim/replay.hpp) with one
 * node and Route::whole(). Audits run at every day boundary and at end
 * of trace when check_invariants holds — per run, or globally via
 * SIEVE_CHECK_INVARIANTS=1; DCHECK-enabled builds audit by default.
 */

#ifndef SIEVESTORE_SIM_DRIVER_HPP
#define SIEVESTORE_SIM_DRIVER_HPP

#include "core/appliance.hpp"
#include "sim/replay.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/** Replay an entire trace through an appliance (see sim::replay). No
 * epoch is run after the final day — there is no next day to serve. */
void runTrace(trace::TraceReader &reader, core::Appliance &appliance,
              const DriverOptions &options = DriverOptions{});

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_DRIVER_HPP
