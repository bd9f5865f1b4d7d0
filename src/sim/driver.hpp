/**
 * @file
 * Trace-to-appliance drivers.
 *
 * runTrace() streams a time-ordered request trace into one appliance,
 * issuing calendar-day boundaries (epoch boundaries for discrete
 * configurations) exactly as the paper's day-partitioned analysis does.
 *
 * Every replay driver (runTrace here, sim/sharded.hpp's runSharded
 * and runShardedParallel, sim/per_server.hpp's runPerServer) can audit
 * appliance invariants at every day boundary and at end of trace:
 * opt in per run via DriverOptions (runTrace), or globally via the
 * SIEVE_CHECK_INVARIANTS=1 environment variable. DCHECK-enabled builds
 * (Debug, the sanitizer presets) audit by default.
 */

#ifndef SIEVESTORE_SIM_DRIVER_HPP
#define SIEVESTORE_SIM_DRIVER_HPP

#include "core/appliance.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/**
 * Default for DriverOptions::check_invariants: true when the
 * SIEVE_CHECK_INVARIANTS environment variable is a non-zero value, or
 * (absent the variable) when SIEVE_DCHECK is compiled in. Setting
 * SIEVE_CHECK_INVARIANTS=0 disables auditing even in debug builds.
 */
bool defaultCheckInvariants();

/** Replay options shared by the sim drivers. */
struct DriverOptions
{
    /** Audit Appliance::checkInvariants() at every day boundary and
     * at end of trace. */
    bool check_invariants = defaultCheckInvariants();
    /**
     * Requests per decode batch (see sim/batch.hpp). Batch size never
     * changes replay results — only the grouping of the request
     * stream; 1 reproduces the historical per-request path.
     */
    size_t batch = trace::kDefaultBatchRequests;
};

/**
 * Replay an entire trace through an appliance. Day boundaries are
 * detected from request timestamps; finishDay() is invoked for every
 * crossed boundary (including empty days) and finishTrace() at the end.
 * No epoch is run after the final day — there is no next day to serve.
 */
void runTrace(trace::TraceReader &reader, core::Appliance &appliance,
              const DriverOptions &options);

/** Replay with default options (env-controlled invariant auditing). */
void runTrace(trace::TraceReader &reader, core::Appliance &appliance);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_DRIVER_HPP
