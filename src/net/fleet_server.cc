#include "net/fleet_server.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "obs/chrometrace.h"
#include "obs/trace.h"

namespace respect::net {

FleetServer::FleetServer(serve::CompileService& service,
                         const FleetServerOptions& options)
    : service_(service),
      options_(options),
      listener_(options.host, options.port),
      accepted_(service.MetricsRegistry().GetCounter(
          "respect_fleet_accepted_total", "Connections accepted")),
      requests_(service.MetricsRegistry().GetCounter(
          "respect_fleet_requests_total", "Compile frames handled")),
      forwarded_(service.MetricsRegistry().GetCounter(
          "respect_fleet_forwarded_total",
          "Compile requests relayed to their owner shard")),
      forward_failures_(service.MetricsRegistry().GetCounter(
          "respect_fleet_forward_failures_total",
          "Relays degraded to a local solve")),
      spill_requests_(service.MetricsRegistry().GetCounter(
          "respect_fleet_spill_requests_total", "kSpillGet frames received")),
      spill_served_(service.MetricsRegistry().GetCounter(
          "respect_fleet_spill_served_total",
          "Spill fetches answered with envelope bytes")),
      spill_missed_(service.MetricsRegistry().GetCounter(
          "respect_fleet_spill_missed_total",
          "Spill fetches answered with a miss")),
      protocol_errors_(service.MetricsRegistry().GetCounter(
          "respect_fleet_protocol_errors_total",
          "Malformed frames from clients")),
      flushes_(service.MetricsRegistry().GetCounter(
          "respect_fleet_flushes_total", "kFlush frames handled")) {
  if (!options_.members.empty()) {
    SetMembers(options_.members, options_.self_address);
  }
  service_.SetPeerFetch(
      [this](const graph::CanonicalHash& key) { return PeerFetch(key); });
  pool_ = std::make_unique<core::ThreadPool>(std::max(1, options_.num_threads));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

FleetServer::~FleetServer() { Stop(); }

std::string FleetServer::Address() const {
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    if (!self_.empty()) return self_;
  }
  return options_.host + ":" + std::to_string(listener_.Port());
}

void FleetServer::SetMembers(std::vector<std::string> members,
                             std::string self_address) {
  auto ring = std::make_shared<const ConsistentHashRing>(std::move(members));
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  ring_ = std::move(ring);
  self_ = std::move(self_address);
}

std::shared_ptr<const ConsistentHashRing> FleetServer::RingSnapshot() const {
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  return ring_;
}

void FleetServer::Stop() {
  if (stop_.exchange(true)) return;
  // Uninstall the hook first: after Stop returns, no service thread may
  // call back into this (soon-to-be-destroyed) server.
  service_.SetPeerFetch(nullptr);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Unstick handlers blocked in RecvFrame; they observe the shutdown as
    // a NetError and return.
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::weak_ptr<Socket>& weak : conns_) {
      if (const std::shared_ptr<Socket> conn = weak.lock()) {
        conn->ShutdownBoth();
      }
    }
  }
  pool_.reset();  // joins every connection handler
}

void FleetServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket accepted;
    try {
      accepted = listener_.AcceptOnce(/*poll_ms=*/100);
    } catch (const std::exception&) {
      // Injected (net.accept) or real accept failure: stay listening —
      // existing connections are unaffected and the condition may clear.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!accepted.Valid()) continue;  // poll tick; re-check stop
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Socket>(std::move(accepted));
    {
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.remove_if(
          [](const std::weak_ptr<Socket>& weak) { return weak.expired(); });
      conns_.push_back(conn);
    }
    pool_->Submit([this, conn] { ServeConnection(conn); });
  }
}

namespace {

/// Best-effort error reply; false when the connection is already dead.
bool TrySendError(Socket& conn, WireErrorKind kind, const char* message) {
  try {
    SendFrame(conn, FrameType::kError, EncodeErrorPayload(kind, message));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

void FleetServer::ServeConnection(const std::shared_ptr<Socket>& conn) {
  while (!stop_.load(std::memory_order_relaxed)) {
    FrameType type = FrameType::kPing;
    std::string payload;
    try {
      auto frame = RecvFrame(*conn);
      type = frame.first;
      payload = std::move(frame.second);
    } catch (const WireError&) {
      // Garbage framing: the stream position is unrecoverable — reply if
      // possible and drop the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      TrySendError(*conn, WireErrorKind::kInvalidArgument,
                   "malformed frame; closing connection");
      return;
    } catch (const NetError&) {
      return;  // clean close, reset, or Stop's shutdown
    }
    try {
      HandleFrame(*conn, type, payload);
    } catch (const WireError& e) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      TrySendError(*conn, WireErrorKind::kInvalidArgument, e.what());
      return;
    } catch (const NetError&) {
      return;
    } catch (const std::exception& e) {
      // Unexpected service failure: typed kInternal, connection stays up.
      if (!TrySendError(*conn, WireErrorKind::kInternal, e.what())) return;
    }
  }
}

void FleetServer::HandleFrame(Socket& conn, FrameType type,
                              const std::string& payload) {
  switch (type) {
    case FrameType::kCompileRequest:
      HandleCompile(conn, payload);
      return;
    case FrameType::kSpillGet:
      HandleSpillGet(conn, payload);
      return;
    case FrameType::kMetricsGet: {
      std::ostringstream page;
      service_.MetricsRegistry().RenderPrometheus(page);
      SendFrame(conn, FrameType::kMetricsData, std::move(page).str());
      return;
    }
    case FrameType::kFlush:
      flushes_.fetch_add(1, std::memory_order_relaxed);
      service_.FlushStore();
      SendFrame(conn, FrameType::kFlushOk, {});
      return;
    case FrameType::kPing:
      SendFrame(conn, FrameType::kPong, {});
      return;
    case FrameType::kTraceDump: {
      // Drain this shard's ring into a bracket-less fragment; the collector
      // splices every shard's fragment into one merged chrometrace, with
      // this shard's events on process row `shard_id`.
      TraceDump dump;
      dump.shard_id = options_.shard_id;
      obs::AppendChromeTraceEvents(dump.events_json,
                                   obs::Tracer::Global().Drain(),
                                   options_.shard_id);
      SendFrame(conn, FrameType::kTraceData, EncodeTraceDump(dump));
      return;
    }
    default:
      throw WireError(std::string("wire: unexpected client frame ") +
                      std::string(FrameTypeName(type)));
  }
}

void FleetServer::HandleCompile(Socket& conn, const std::string& payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Malformed payloads throw WireError through to the caller (protocol
  // error); everything after this line is a well-formed request whose
  // failures are typed kError replies.
  WireCompileRequest decoded = DecodeCompileRequest(payload);
  serve::CompileRequest& request = decoded.request;
  // Adopt the client-minted trace id for everything this frame triggers
  // (routing, the local solve, the reply) so a forwarded request's spans on
  // every shard share one trace.
  const obs::ScopedTraceId trace_scope(request.trace_id);
  OBS_SPAN("net.handle_compile");
  // Outlives the handlers below: a failed ticket rethrows the exception its
  // shared state holds, so this thread keeps that state alive while it
  // reads the exception and releases it before a worker can free it.
  serve::CompileService::Ticket ticket;
  try {
    if (request.cache_policy == serve::CachePolicy::kUse &&
        !decoded.no_forward) {
      const std::shared_ptr<const ConsistentHashRing> ring = RingSnapshot();
      if (ring != nullptr && !ring->Empty()) {
        const graph::CanonicalHash key = service_.KeyFor(request);
        const std::string owner = ring->OwnerOf(key.lo);
        const std::string self = [this] {
          const std::lock_guard<std::mutex> lock(ring_mutex_);
          return self_;
        }();
        if (owner != self) {
          // Not ours: answer in place only when a local tier is already
          // warm; otherwise relay to the home shard so the fleet solves
          // each unique graph once.
          if (const std::optional<serve::CompileResponse> local =
                  service_.TryServeLocal(request)) {
            SendFrame(conn, FrameType::kCompileResponse,
                      EncodeCompileResponse(*local));
            return;
          }
          std::optional<std::pair<FrameType, std::string>> reply;
          try {
            reply = ForwardCompile(
                owner, EncodeCompileRequest(request, /*no_forward=*/true));
          } catch (const std::exception&) {
            // Dead/misbehaving owner: degrade to a local solve below.
            // Valid-or-typed holds; ownership is an optimization.
            forward_failures_.fetch_add(1, std::memory_order_relaxed);
          }
          if (reply) {
            forwarded_.fetch_add(1, std::memory_order_relaxed);
            SendFrame(conn, reply->first, reply->second);  // raw relay
            return;
          }
        }
      }
    }
    // Every local answer queues like an in-process Submit: the request's
    // lane, deadline and tenant apply, and a service worker (not this
    // connection thread) runs the solve.
    ticket = service_.Submit(std::move(request));
    SendFrame(conn, FrameType::kCompileResponse,
              EncodeCompileResponse(ticket.WaitResponse()));
  } catch (const serve::DeadlineExceeded& e) {
    SendFrame(conn, FrameType::kError,
              EncodeErrorPayload(WireErrorKind::kDeadlineExceeded, e.what()));
  } catch (const serve::Overloaded& e) {
    SendFrame(conn, FrameType::kError,
              EncodeErrorPayload(WireErrorKind::kOverloaded, e.what()));
  } catch (const std::invalid_argument& e) {
    SendFrame(conn, FrameType::kError,
              EncodeErrorPayload(WireErrorKind::kInvalidArgument, e.what()));
  } catch (const NetError&) {
    throw;  // this connection died mid-reply; nothing left to send
  } catch (const std::exception& e) {
    SendFrame(conn, FrameType::kError,
              EncodeErrorPayload(WireErrorKind::kInternal, e.what()));
  }
}

void FleetServer::HandleSpillGet(Socket& conn, const std::string& payload) {
  spill_requests_.fetch_add(1, std::memory_order_relaxed);
  const std::optional<graph::CanonicalHash> key =
      graph::CanonicalHash::FromHex(payload);
  if (!key) {
    throw WireError("wire: spill-get payload is not a key hex");
  }
  const std::optional<std::string> bytes = service_.ExportSpill(*key);
  if (bytes) {
    spill_served_.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, FrameType::kSpillData, *bytes);
  } else {
    // Absent or corrupt (quarantined server-side): one typed miss, never a
    // guess.
    spill_missed_.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, FrameType::kSpillMiss, {});
  }
}

FleetServer::PeerLink& FleetServer::LinkFor(const std::string& address) {
  const std::lock_guard<std::mutex> lock(links_mutex_);
  std::unique_ptr<PeerLink>& link = links_[address];
  if (link == nullptr) link = std::make_unique<PeerLink>();
  return *link;
}

template <typename Rpc>
auto FleetServer::OnPeerLink(const std::string& address, const Rpc& rpc) {
  PeerLink& link = LinkFor(address);
  const std::lock_guard<std::mutex> lock(link.mutex);
  if (link.client == nullptr) {
    FleetClientOptions client_options;
    client_options.io_timeout_ms = options_.io_timeout_ms;
    link.client = std::make_unique<FleetClient>(address, client_options);
  }
  try {
    return rpc(*link.client);
  } catch (const std::exception&) {
    link.client.reset();  // reconnect on next use
    throw;
  }
}

std::pair<FrameType, std::string> FleetServer::ForwardCompile(
    const std::string& owner, std::string_view request_payload) {
  OBS_SPAN("net.forward");
  return OnPeerLink(owner, [request_payload](FleetClient& client) {
    return client.CompileRaw(request_payload);
  });
}

std::string FleetServer::PeerFetch(const graph::CanonicalHash& key) {
  OBS_SPAN("net.spill_fetch");
  // Chaos seam: an injected fetch error degrades this miss to a local
  // solve, exactly like an unreachable fleet.
  RESPECT_FAILPOINT("net.peer_fetch");
  const std::shared_ptr<const ConsistentHashRing> ring = RingSnapshot();
  if (ring == nullptr || ring->Empty()) return {};
  const std::string self = [this] {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    return self_;
  }();
  // Owner first — the home shard is the member most likely to hold the
  // spill — then every other peer.
  std::vector<std::string> order;
  order.reserve(ring->Members().size());
  const std::string& owner = ring->OwnerOf(key.lo);
  if (owner != self) order.push_back(owner);
  for (const std::string& member : ring->Members()) {
    if (member != self && member != owner) order.push_back(member);
  }
  for (const std::string& member : order) {
    if (stop_.load(std::memory_order_relaxed)) break;
    try {
      if (std::optional<std::string> bytes = OnPeerLink(
              member,
              [&key](FleetClient& client) { return client.FetchSpill(key); });
          bytes && !bytes->empty()) {
        return *std::move(bytes);
      }
    } catch (const std::exception&) {
      // Dead peer: the next member may still have it.
    }
  }
  return {};  // clean fleet-wide miss
}

FleetServerMetrics FleetServer::Metrics() const {
  FleetServerMetrics metrics;
  metrics.forwarded = forwarded_.load(std::memory_order_relaxed);
  metrics.forward_failures =
      forward_failures_.load(std::memory_order_relaxed);
  metrics.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return metrics;
}

}  // namespace respect::net
