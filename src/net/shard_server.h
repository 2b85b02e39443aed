#ifndef TSB_NET_SHARD_SERVER_H_
#define TSB_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/frame_conn.h"
#include "shard/frame_handler.h"
#include "wire/codec.h"

namespace tsb {
namespace net {

struct ShardServerConfig {
  /// Listen on a Unix-domain socket when non-empty, else on TCP
  /// `tcp_host:tcp_port` (port 0 picks an ephemeral port; read it back
  /// with port()).
  std::string uds_path;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
  /// Per-frame payload cap on requests (a poisoned client must not make
  /// the server buffer gigabytes).
  size_t max_payload_bytes = wire::kDefaultMaxFramePayload;
  /// Deadline for writing one response frame: a client that stops
  /// reading must not pin a serving thread (and its response buffer)
  /// forever. Reads stay unbounded — an idle pooled connection between
  /// requests is normal, a stalled mid-response write is not.
  double write_timeout_seconds = 30.0;
};

/// The shard server daemon core: accepts connections and serves wire
/// frames through a shard::ShardFrameHandler — the same dispatch
/// implementation shard::LoopbackReplicaChannel runs in-process, so a
/// query answered over a socket is byte-identical to one answered
/// in-process.
///
/// One thread per connection, blocking frame loop: read request frame →
/// handle → write response frame, until the peer disconnects or a
/// malformed frame poisons the stream (the conn is closed; decode-level
/// errors inside a valid frame come back as encoded error responses
/// instead — see ShardFrameHandler::HandleOrEncodeError). Stop() (or the
/// destructor) closes the listener and every live connection and joins
/// all threads; in-flight requests finish their response first.
///
/// Embeddable (tests/benches run it in-process against an executor's
/// engines) and daemonizable (tools/shard_server_main.cc builds a fixture
/// and serves one shard of N as a standalone process).
class ShardServer {
 public:
  /// One received frame in, one encoded response frame out. Must never
  /// fail (encode errors as response frames — the contract of
  /// ShardFrameHandler::HandleOrEncodeError) and must be safe to call
  /// from any number of connection threads.
  using FrameHandlerFn = std::function<std::string(const std::string&)>;

  /// `handler` must outlive the server.
  ShardServer(const shard::ShardFrameHandler* handler,
              ShardServerConfig config);

  /// Serves an arbitrary frame function instead of a shard handler — the
  /// seam a frontend uses to expose an admin-only endpoint (metrics /
  /// trace pulls) without being a shard.
  ShardServer(FrameHandlerFn handler, ShardServerConfig config);

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds, listens, and starts the accept loop. Fails if the endpoint
  /// cannot be bound; idempotence is not supported (one Start per server).
  Status Start();

  /// Stops accepting, closes live connections, joins every thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The bound TCP port (after Start; 0 for UDS servers).
  uint16_t port() const { return port_; }
  /// Human-readable bound endpoint, e.g. "unix:/tmp/s0.sock".
  std::string endpoint() const;

  /// Telemetry: lifetime accepted connections / served frames.
  uint64_t connections_accepted() const { return connections_.load(); }
  uint64_t frames_served() const { return frames_.load(); }

 private:
  void AcceptLoop();
  void Serve(std::unique_ptr<FrameConn> conn);
  /// Joins threads whose connections already ended (their handles park in
  /// finished_threads_), so a long-lived daemon taking short-lived
  /// connections does not accumulate unjoined threads.
  void ReapFinishedThreads();

  FrameHandlerFn handler_;
  ShardServerConfig config_;
  Listener listener_;
  uint16_t port_ = 0;
  std::string bound_description_;

  std::atomic<bool> stopping_{false};
  /// Serializes Stop callers (including the destructor racing a user
  /// Stop); guards stopped_.
  std::mutex stop_mu_;
  bool stopped_ = false;
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> frames_{0};

  std::thread accept_thread_;
  /// Live connection fds (shutdown on Stop so blocked I/O wakes), serving
  /// threads, and the handles of threads whose Serve loop has ended
  /// (joined by the accept loop or Stop). All guarded by conns_mu_.
  std::mutex conns_mu_;
  std::vector<FrameConn*> live_conns_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;
};

}  // namespace net
}  // namespace tsb

#endif  // TSB_NET_SHARD_SERVER_H_
