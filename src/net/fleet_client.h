// FleetClient — one blocking connection to a net::FleetServer shard.
//
// Each method is a complete request/response exchange on the same socket
// (the protocol is strictly client-speaks-first, one frame each way), so a
// client is cheap state: reconnecting after a NetError is just constructing
// a new one.  Not thread-safe — one client per thread, or external
// locking (net::FleetServer keeps one mutex-guarded client per peer link).
//
// Error mapping: transport failures throw NetError, malformed frames throw
// WireError, and a peer's kError frames rethrow as the typed exception the
// remote service threw — std::invalid_argument, serve::DeadlineExceeded,
// serve::Overloaded, or RemoteError for everything else.  "Valid result or
// typed error" survives the hop.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "graph/canonical_hash.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/request.h"

namespace respect::net {

struct FleetClientOptions {
  int connect_timeout_ms = 2000;

  /// Bound on every blocking send/recv; covers the peer's whole handling
  /// of one request (including a cold solve), so keep it generous relative
  /// to solve budgets.  <= 0 blocks indefinitely.
  int io_timeout_ms = 10000;
};

class FleetClient {
 public:
  /// Connects immediately ("host:port", numeric host).  Throws NetError.
  explicit FleetClient(const std::string& address,
                       const FleetClientOptions& options = {});

  [[nodiscard]] const std::string& Address() const { return address_; }

  /// Remote compile: encodes the request, round-trips, decodes the
  /// response or rethrows the typed remote error.
  [[nodiscard]] serve::CompileResponse Compile(
      const serve::CompileRequest& request);

  /// Relay form: sends pre-encoded compile-request payload bytes and
  /// returns the raw reply frame (kCompileResponse or kError) without
  /// decoding — the forward-to-owner hop copies frames, not objects.
  [[nodiscard]] std::pair<FrameType, std::string> CompileRaw(
      std::string_view request_payload);

  /// Fetch-by-hex of the peer's spill envelope for `key`: bytes on a hit,
  /// nullopt on a typed miss (absent or corrupt on the peer).
  [[nodiscard]] std::optional<std::string> FetchSpill(
      const graph::CanonicalHash& key);

  /// The peer's metrics page: its whole registry (service, store and
  /// fleet series) as Prometheus exposition text, byte for byte what
  /// obs::Registry::RenderPrometheus writes on the peer.
  [[nodiscard]] std::string MetricsPage();

  /// Drains the peer's trace ring: its shard id plus a chrometrace event
  /// fragment ready to splice into a merged fleet trace.  Draining is
  /// destructive on the peer — each event is reported exactly once.
  [[nodiscard]] TraceDump TraceDumpFetch();

  /// Blocks until the peer's background spill writes have landed.
  void Flush();

  void Ping();

 private:
  [[nodiscard]] std::pair<FrameType, std::string> Roundtrip(
      FrameType type, std::string_view payload);

  /// Throws the decoded typed error for a kError frame; otherwise asserts
  /// the frame type is `expected` (WireError when not).
  static void ExpectType(const std::pair<FrameType, std::string>& frame,
                         FrameType expected);

  std::string address_;
  Socket socket_;
};

}  // namespace respect::net
