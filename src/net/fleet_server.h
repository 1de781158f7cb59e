// FleetServer — the network front end that turns one serve::CompileService
// into a shard of a compile fleet.
//
// One accept thread feeds a core::ThreadPool of connection handlers
// (thread-per-connection over blocking sockets: a worker owns a connection
// for its lifetime and serves its frames sequentially).  Three roles in one
// server:
//
//   * Serving: every kCompileRequest frame answered here is Submitted to
//     the local CompileService and waited on, so wire traffic takes the
//     same queue as in-process traffic — priority lanes, aging, in-queue
//     expiry, weighted-fair tenant flows and lane shedding.  Connection
//     threads only do I/O; the service pool alone solves.  The service's
//     typed failures (DeadlineExceeded, Overloaded, invalid_argument)
//     travel back as kError frames and rethrow as the same types
//     client-side.
//   * Routing: with a membership list installed, a kUse request whose key
//     (CanonicalHash.lo on the consistent-hash ring) belongs to another
//     member is answered locally only when already warm (TryServeLocal);
//     otherwise the frame is re-encoded with no_forward=true and relayed
//     to its owner, so each unique graph is solved once, at its home
//     shard.  A dead owner degrades to a local solve — forwarding is an
//     optimization, never a point of failure.
//   * Peer warm: the server installs a CompileService peer-fetch hook that
//     asks each peer (owner first) for its spill envelope on a cold miss,
//     and answers peers' kSpillGet fetch-by-hex requests from the local
//     store — so a restarted shard refills from the fleet instead of
//     re-solving (CacheOutcome::kPeerHit).
//
// Liveness: every peer RPC runs under io_timeout_ms and every failure
// degrades (local solve, skipped peer) — a wedged member costs latency,
// never correctness.  Stop() uninstalls the hook, joins the accept thread,
// shuts every open connection, and drains the pool; it is called by the
// destructor.  Stop (or destroy) the server before destroying the service
// it fronts.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/canonical_hash.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/compile_service.h"

namespace respect::core {
class ThreadPool;
}  // namespace respect::core

namespace respect::net {

struct FleetServerOptions {
  /// Numeric listen address; port 0 binds an ephemeral port (Port()
  /// reports the real one).
  std::string host = "127.0.0.1";
  int port = 0;

  /// Connection-handler workers.  Thread-per-connection: size this at
  /// least (expected client connections + 2 * (fleet size - 1)) — each
  /// peer may hold one forward link and one spill-fetch link inbound.
  int num_threads = 8;

  /// Fleet membership ("host:port" per member, self included) and this
  /// server's own address in that list.  Leave empty to start standalone
  /// and install later via SetMembers (the demo's two-phase handshake:
  /// bind first, learn the full member list, then join).
  std::vector<std::string> members;
  std::string self_address;

  /// Per peer-RPC I/O bound (forward + fetch).  Also the liveness
  /// backstop: mutual peer traffic can never deadlock, only time out and
  /// degrade.
  int io_timeout_ms = 10000;

  /// Stamped as the chrometrace `pid` on this shard's kTraceDump replies,
  /// so a merged fleet trace shows one process row per shard.
  std::uint32_t shard_id = 0;
};

/// What perfbench/ reads as fields; every other server counter (accepted,
/// requests, spill traffic, flushes) is read from the fronted service's
/// registry by series name (respect_fleet_*_total).
struct FleetServerMetrics {
  std::uint64_t forwarded = 0;         // respect_fleet_forwarded_total
  std::uint64_t forward_failures = 0;  // ..._forward_failures_total
  std::uint64_t protocol_errors = 0;   // ..._protocol_errors_total
};

class FleetServer {
 public:
  /// Binds, installs the ring/hook when members are given, and starts
  /// accepting.  Throws NetError when the address cannot be bound.
  explicit FleetServer(serve::CompileService& service,
                       const FleetServerOptions& options = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  [[nodiscard]] int Port() const { return listener_.Port(); }

  /// "host:port" as bound (self_address when set, else host + real port).
  [[nodiscard]] std::string Address() const;

  /// Installs (or replaces) the fleet membership after start — the ring is
  /// rebuilt and swapped atomically under traffic.
  void SetMembers(std::vector<std::string> members, std::string self_address);

  [[nodiscard]] FleetServerMetrics Metrics() const;

  /// Idempotent orderly shutdown; see the file comment.
  void Stop();

 private:
  /// One persistent outbound connection per peer (forwarding and spill
  /// fetch share it); reset on transport failure, reconnected on next use.
  struct PeerLink {
    std::mutex mutex;
    std::unique_ptr<FleetClient> client;  // null until first use / after
                                          // a failure
  };

  void AcceptLoop();
  void ServeConnection(const std::shared_ptr<Socket>& conn);

  /// Dispatches one frame; sends exactly one reply frame (or throws
  /// NetError when the connection died).
  void HandleFrame(Socket& conn, FrameType type, const std::string& payload);

  void HandleCompile(Socket& conn, const std::string& payload);
  void HandleSpillGet(Socket& conn, const std::string& payload);

  [[nodiscard]] std::shared_ptr<const ConsistentHashRing> RingSnapshot() const;
  [[nodiscard]] PeerLink& LinkFor(const std::string& address);

  /// Runs `rpc(client)` on `address`'s persistent link under its mutex,
  /// connecting (with io_timeout_ms) when the link has no client; a
  /// failure resets the link, so the next call reconnects, and rethrows.
  template <typename Rpc>
  auto OnPeerLink(const std::string& address, const Rpc& rpc);

  /// Relays one compile frame to its owner shard (see OnPeerLink).
  [[nodiscard]] std::pair<FrameType, std::string> ForwardCompile(
      const std::string& owner, std::string_view request_payload);

  /// The CompileService peer-fetch hook body: ask each peer (owner first)
  /// for the envelope; "" when every peer missed or failed.
  [[nodiscard]] std::string PeerFetch(const graph::CanonicalHash& key);

  serve::CompileService& service_;
  FleetServerOptions options_;
  ListenSocket listener_;

  mutable std::mutex ring_mutex_;
  std::shared_ptr<const ConsistentHashRing> ring_;  // null = standalone
  std::string self_;

  std::unique_ptr<core::ThreadPool> pool_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  mutable std::mutex links_mutex_;
  std::map<std::string, std::unique_ptr<PeerLink>> links_;

  /// Open connections, so Stop can shut them down and unblock handlers.
  std::mutex conns_mutex_;
  std::list<std::weak_ptr<Socket>> conns_;

  /// Counters live in the fronted service's registry (one exposition page
  /// per shard covers service + store + fleet tiers).
  obs::Counter& accepted_;
  obs::Counter& requests_;
  obs::Counter& forwarded_;
  obs::Counter& forward_failures_;
  obs::Counter& spill_requests_;
  obs::Counter& spill_served_;
  obs::Counter& spill_missed_;
  obs::Counter& protocol_errors_;
  obs::Counter& flushes_;
};

}  // namespace respect::net
