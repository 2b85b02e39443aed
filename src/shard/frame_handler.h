#ifndef TSB_SHARD_FRAME_HANDLER_H_
#define TSB_SHARD_FRAME_HANDLER_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/store.h"
#include "engine/engine.h"
#include "mutation/mutation_engine.h"
#include "obs/admin.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "storage/catalog.h"

namespace tsb {

namespace service {
class ServiceMetrics;
}  // namespace service

namespace shard {

/// Optional observability hooks of a serving shard. All pointers are
/// non-owning and may be null individually; the referenced objects must
/// outlive every handler copy. With `admin` set the handler also answers
/// kAdminRequest frames (the topctl pull channel).
struct ShardObservability {
  service::ServiceMetrics* metrics = nullptr;  // Per-frame request metrics.
  obs::Tracer* tracer = nullptr;     // Records shard-side trace fragments.
  obs::SlowQueryLog* slow_log = nullptr;
  const obs::AdminState* admin = nullptr;
};

/// The server side of the shard wire protocol, independent of how the
/// request frame arrived: decodes one request frame against the local
/// catalog, evaluates it on this shard's engine (2-query sub-queries) or
/// store snapshot (triple-collect scans), and encodes the response frame.
///
/// This is the single dispatch implementation behind both replica
/// channels — LoopbackReplicaChannel calls it in-process, net::ShardServer
/// calls it per received socket frame — so the byte-identity guarantees
/// proven in-process carry over to the cross-process path by
/// construction.
class ShardFrameHandler {
 public:
  /// Provider of the store snapshot triple-collect scans run against —
  /// indirected so the handler follows live epoch swaps of its shard.
  using SnapshotFn = std::function<std::shared_ptr<core::TopologyStore>()>;

  /// Provider of the serving stamp ("r<replica>:e<epoch>", see
  /// wire::MakeServingStamp) written into every query response —
  /// indirected so the epoch component follows live swaps. Null means
  /// responses carry no stamp (a non-replica-aware server).
  using StampFn = std::function<std::string()>;

  /// Applies one mutation batch to this shard's store (the server wires it
  /// at MutationEngine::ApplyLogged). Unset means kMutationRequest frames
  /// answer kFailedPrecondition — a read-only server.
  using MutationApplyFn = std::function<Result<mutation::ApplyStats>(
      const mutation::MutationBatch&)>;

  /// `db` and `engine` must outlive the handler; `snapshot` (and `stamp`,
  /// when set) must be safe to call from any thread.
  ShardFrameHandler(storage::Catalog* db, const engine::Engine* engine,
                    SnapshotFn snapshot, StampFn stamp = nullptr);

  /// Attaches observability hooks (see ShardObservability). Handlers are
  /// frequently copied (loopback channels); copies share the referenced
  /// objects.
  void set_observability(ShardObservability observability) {
    observability_ = observability;
  }

  /// Enables the v5 mutation channel (see MutationApplyFn). Must be safe
  /// to call from any transport thread.
  void set_mutation_apply(MutationApplyFn apply) {
    mutation_apply_ = std::move(apply);
  }

  /// Synchronous request handling. Engine-level failures come back as an
  /// encoded response carrying a WireError (the request reached the shard
  /// and was understood); only transport-level problems — an undecodable
  /// or unexpected frame — surface as a Status.
  Result<std::string> Handle(const std::string& request) const;

  /// The socket-serving variant: never fails. Transport-level problems are
  /// encoded as a kQueryResponse frame carrying the error, so a remote
  /// caller always gets *some* frame back instead of a silent hang until
  /// its deadline. (A caller that expected a different response kind fails
  /// its decode and treats the shard as failed — the same degradation.)
  std::string HandleOrEncodeError(const std::string& request) const;

  /// Thread safety: Handle is safe from any number of threads (the engine
  /// is concurrency-safe and the snapshot provider pins per-call).
 private:
  storage::Catalog* db_;
  const engine::Engine* engine_;
  SnapshotFn snapshot_;
  StampFn stamp_;
  MutationApplyFn mutation_apply_;
  ShardObservability observability_;
};

}  // namespace shard
}  // namespace tsb

#endif  // TSB_SHARD_FRAME_HANDLER_H_
