#ifndef TSB_OBS_ADMIN_H_
#define TSB_OBS_ADMIN_H_

#include <functional>
#include <string>

#include "obs/fleet.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace tsb {
namespace obs {

/// The server side of the admin channel: bundles whichever observability
/// surfaces a process exposes (any may be null — the matching commands
/// then answer with an empty body) and renders one AdminRequest into an
/// AdminResponse. Both shard servers and frontends serve this; topctl is
/// the client.
struct AdminState {
  const MetricsRegistry* registry = nullptr;
  const Tracer* tracer = nullptr;
  const SlowQueryLog* slow_log = nullptr;
  /// Optional human-readable rendering for kMetricsText; processes render
  /// it from a metrics read (service::MetricsTable).
  std::function<std::string()> text_renderer;
  /// Optional mutation-engine status block for kCompaction (generation,
  /// pending pairs, last fold, WAL counters); processes with a mutation
  /// engine point this at MutationEngine::StatusString.
  std::function<std::string()> compaction_renderer;
  /// Optional fleet cost view for kCostSnapshot: the process's mergeable
  /// histograms + cost counters, binary-encoded into the response body
  /// (`topctl top` merges snapshots from every endpoint it polls).
  std::function<FleetSnapshot()> cost_snapshot;
};

/// Executes one admin command against the state.
wire::AdminResponse HandleAdmin(const AdminState& state,
                                const wire::AdminRequest& request);

/// Frame-level entry point: decodes a kAdminRequest frame, executes it,
/// and returns the encoded kAdminResponse. Decode failures come back as
/// an encoded error response, so a server can always answer in-band.
std::string HandleAdminFrame(const AdminState& state,
                             const std::string& frame);

}  // namespace obs
}  // namespace tsb

#endif  // TSB_OBS_ADMIN_H_
