// Fleet networking correctness: the wire codec must round-trip every
// request/response field and reject every truncated or bit-flipped frame
// with a typed WireError (never UB — this file is part of the ASan leg);
// the consistent-hash ring must spread keys, stay stable across member
// order, and move only the departed member's keys; and a live
// FleetServer/FleetClient pair must preserve the service's "valid result
// or typed error" contract across the hop — including forward-to-owner
// routing, degrade-to-local on a dead owner, and peer spill fetch warming
// a cold shard without a local solve.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/respect.h"
#include "graph/canonical_hash.h"
#include "graph/sampler.h"
#include "net/consistent_hash.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/compile_service.h"
#include "serve/request.h"
#include "serve/store/spill_codec.h"

namespace respect {
namespace {

using net::ConsistentHashRing;
using net::FleetClient;
using net::FleetClientOptions;
using net::FleetServer;
using net::FleetServerOptions;
using net::FrameType;
using net::NetError;
using net::WireError;
using net::WireErrorKind;
using serve::CacheOutcome;
using serve::CachePolicy;
using serve::CompileRequest;
using serve::CompileResponse;
using serve::Priority;

CompilerOptions FastOptions() {
  CompilerOptions options;
  options.net.hidden_dim = 12;
  options.exact_max_expansions = 200'000;
  options.exact_time_limit_seconds = 0.0;
  options.compiler.refinement_rounds = 2;
  options.compiler.compile_passes = 1;
  return options;
}

graph::Dag SampleDag(int nodes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return graph::SampleTrainingDag(nodes, rng);
}

std::string FreshDir(const std::string& stem) {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (stem + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

CompileRequest AnnealRequest(const graph::Dag& dag) {
  return CompileRequest{.dag = dag, .num_stages = 4, .engine = "anneal"};
}

/// One real CompileResult for codec tests (solved once, shared).
const CompileResult& SampleResult() {
  static const CompileResult result = [] {
    serve::CompileService service(FastOptions());
    return *service.Compile(AnnealRequest(SampleDag(18, 7))).result;
  }();
  return result;
}

void ExpectSameResult(const CompileResult& a, const CompileResult& b) {
  EXPECT_EQ(a.schedule.num_stages, b.schedule.num_stages);
  EXPECT_EQ(a.schedule.stage, b.schedule.stage);
  EXPECT_EQ(a.peak_stage_param_bytes, b.peak_stage_param_bytes);
  EXPECT_EQ(a.proved_optimal, b.proved_optimal);
  ASSERT_EQ(a.package.segments.size(), b.package.segments.size());
  for (std::size_t s = 0; s < a.package.segments.size(); ++s) {
    EXPECT_EQ(a.package.segments[s].ops, b.package.segments[s].ops);
    EXPECT_EQ(a.package.segments[s].param_bytes,
              b.package.segments[s].param_bytes);
  }
}

// ── Consistent-hash ring ───────────────────────────────────────────────────

TEST(ConsistentHashRingTest, OwnerIsIndependentOfMemberOrder) {
  const std::vector<std::string> forward = {"127.0.0.1:7001", "127.0.0.1:7002",
                                            "127.0.0.1:7003"};
  std::vector<std::string> reversed(forward.rbegin(), forward.rend());
  const ConsistentHashRing a(forward);
  const ConsistentHashRing b(reversed);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t point = rng();
    EXPECT_EQ(a.OwnerOf(point), b.OwnerOf(point));
  }
}

TEST(ConsistentHashRingTest, RemovingAMemberOnlyMovesItsKeys) {
  const std::vector<std::string> full = {"127.0.0.1:7001", "127.0.0.1:7002",
                                         "127.0.0.1:7003"};
  const ConsistentHashRing before(full);
  const ConsistentHashRing after(
      std::vector<std::string>{full[0], full[1]});  // 7003 departed
  std::mt19937_64 rng(12);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t point = rng();
    const std::string& owner = before.OwnerOf(point);
    if (owner != full[2]) {
      // A surviving member's keys must not migrate — the whole point of
      // consistent hashing over modulo assignment.
      EXPECT_EQ(after.OwnerOf(point), owner);
    } else {
      EXPECT_NE(after.OwnerOf(point), full[2]);
    }
  }
}

TEST(ConsistentHashRingTest, SpreadsKeysAcrossMembers) {
  const std::vector<std::string> members = {"127.0.0.1:7001", "127.0.0.1:7002",
                                            "127.0.0.1:7003"};
  const ConsistentHashRing ring(members);
  std::map<std::string, int> owned;
  std::mt19937_64 rng(13);
  const int kPoints = 3000;
  for (int i = 0; i < kPoints; ++i) owned[ring.OwnerOf(rng())]++;
  for (const std::string& member : members) {
    // 64 virtual nodes keep every member within a loose band of its fair
    // third; 10% is far below fair share and far above pathological.
    EXPECT_GT(owned[member], kPoints / 10) << member;
  }
}

TEST(ConsistentHashRingTest, EmptyRingThrowsAndSingletonOwnsAll) {
  const ConsistentHashRing empty(std::vector<std::string>{});
  EXPECT_TRUE(empty.Empty());
  EXPECT_THROW((void)empty.OwnerOf(42), std::logic_error);
  const ConsistentHashRing solo({"127.0.0.1:7001"});
  std::mt19937_64 rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(solo.OwnerOf(rng()), "127.0.0.1:7001");
  }
}

// ── Wire codec (no sockets) ────────────────────────────────────────────────

TEST(WireCodecTest, CompileRequestRoundTripsEveryField) {
  CompileRequest request = AnnealRequest(SampleDag(20, 21));
  request.num_stages = 5;
  request.priority = Priority::kBatch;
  request.deadline = serve::DeadlineIn(2.5);
  request.cache_policy = CachePolicy::kRefresh;
  request.tenant = "tenant-a";
  request.solve_budget_seconds = 1.25;

  const std::string payload =
      net::EncodeCompileRequest(request, /*no_forward=*/true);
  const net::WireCompileRequest decoded = net::DecodeCompileRequest(payload);
  const CompileRequest& out = decoded.request;

  EXPECT_TRUE(decoded.no_forward);
  EXPECT_EQ(graph::HashDag(out.dag), graph::HashDag(request.dag));
  EXPECT_EQ(out.num_stages, 5);
  EXPECT_EQ(out.engine, "anneal");
  EXPECT_EQ(out.priority, Priority::kBatch);
  EXPECT_EQ(out.cache_policy, CachePolicy::kRefresh);
  EXPECT_EQ(out.profile, "");
  EXPECT_EQ(out.tenant, "tenant-a");
  EXPECT_DOUBLE_EQ(out.solve_budget_seconds, 1.25);
  // The deadline travels as remaining time and re-anchors on decode:
  // within encode/decode slop of the original 2.5 s.
  ASSERT_TRUE(out.deadline.has_value());
  const double remaining =
      std::chrono::duration<double>(*out.deadline -
                                    std::chrono::steady_clock::now())
          .count();
  EXPECT_GT(remaining, 2.0);
  EXPECT_LT(remaining, 2.6);

  // An unset engine and no deadline survive the trip as exactly that.
  CompileRequest bare;
  bare.dag = SampleDag(8, 3);
  const net::WireCompileRequest bare_out =
      net::DecodeCompileRequest(net::EncodeCompileRequest(bare, false));
  EXPECT_TRUE(bare_out.request.engine.empty());
  EXPECT_FALSE(bare_out.request.deadline.has_value());
  EXPECT_FALSE(bare_out.no_forward);
}

TEST(WireCodecTest, CompileResponseRoundTripsEveryField) {
  CompileResponse response;
  response.result = std::make_shared<const CompileResult>(SampleResult());
  response.outcome = CacheOutcome::kPeerHit;
  response.queue_wait_seconds = 0.5;
  response.solve_seconds = 1.5;
  response.engine_name = "Annealing";
  response.key_hex = "00112233445566778899aabbccddeeff";
  response.degraded = true;
  response.requested_engine = "RESPECT";

  const serve::CompileResponse out =
      net::DecodeCompileResponse(net::EncodeCompileResponse(response));
  EXPECT_EQ(out.outcome, CacheOutcome::kPeerHit);
  EXPECT_DOUBLE_EQ(out.queue_wait_seconds, 0.5);
  EXPECT_DOUBLE_EQ(out.solve_seconds, 1.5);
  EXPECT_EQ(out.engine_name, "Annealing");
  EXPECT_EQ(out.requested_engine, "RESPECT");
  EXPECT_EQ(out.key_hex, "00112233445566778899aabbccddeeff");
  EXPECT_TRUE(out.degraded);
  ASSERT_NE(out.result, nullptr);
  ExpectSameResult(*out.result, SampleResult());

  // Unknown engine names (a peer running a newer build) intern instead of
  // dangling; a null result survives as null.
  response.engine_name = "engine-from-the-future";
  response.result = nullptr;
  const serve::CompileResponse interned =
      net::DecodeCompileResponse(net::EncodeCompileResponse(response));
  EXPECT_EQ(interned.engine_name, "engine-from-the-future");
  EXPECT_EQ(interned.result, nullptr);
}

TEST(WireCodecTest, ErrorPayloadMapsToTypedExceptions) {
  using Kind = WireErrorKind;
  const auto roundtrip = [](Kind kind, const char* message) {
    const auto [out_kind, out_message] =
        net::DecodeErrorPayload(net::EncodeErrorPayload(kind, message));
    EXPECT_EQ(out_kind, kind);
    EXPECT_EQ(out_message, message);
    net::ThrowDecodedError(out_kind, out_message);
  };
  EXPECT_THROW(roundtrip(Kind::kInvalidArgument, "bad engine"),
               std::invalid_argument);
  EXPECT_THROW(roundtrip(Kind::kDeadlineExceeded, "too late"),
               serve::DeadlineExceeded);
  EXPECT_THROW(roundtrip(Kind::kOverloaded, "shed"), serve::Overloaded);
  EXPECT_THROW(roundtrip(Kind::kInternal, "boom"), net::RemoteError);
}

TEST(WireCodecTest, FleetStatsRoundTrip) {
  net::FleetStats stats;
  stats.requests = 1;
  stats.engine_solves = 2;
  stats.cache_hits = 3;
  stats.disk_hits = 4;
  stats.peer_hits = 5;
  stats.peer_fetches = 6;
  stats.forwarded = 7;
  stats.forward_failures = 8;
  stats.spill_served = 9;
  stats.spill_missed = 10;
  const net::FleetStats out =
      net::DecodeFleetStats(net::EncodeFleetStats(stats));
  EXPECT_EQ(out.requests, 1u);
  EXPECT_EQ(out.engine_solves, 2u);
  EXPECT_EQ(out.cache_hits, 3u);
  EXPECT_EQ(out.disk_hits, 4u);
  EXPECT_EQ(out.peer_hits, 5u);
  EXPECT_EQ(out.peer_fetches, 6u);
  EXPECT_EQ(out.forwarded, 7u);
  EXPECT_EQ(out.forward_failures, 8u);
  EXPECT_EQ(out.spill_served, 9u);
  EXPECT_EQ(out.spill_missed, 10u);
}

/// Decode one full frame the way a receiver would: header, payload
/// verification, then the typed payload decoder.
void DecodeFullFrame(std::string_view bytes) {
  const net::FrameHeader header = net::DecodeFrameHeader(bytes);
  if (bytes.size() < net::kFrameHeaderBytes + header.payload_size) {
    throw WireError("test: truncated payload");
  }
  const std::string_view payload =
      bytes.substr(net::kFrameHeaderBytes,
                   static_cast<std::size_t>(header.payload_size));
  net::VerifyFramePayload(header, payload);
  switch (header.type) {
    case FrameType::kCompileRequest:
      (void)net::DecodeCompileRequest(payload);
      break;
    case FrameType::kCompileResponse:
      (void)net::DecodeCompileResponse(payload);
      break;
    case FrameType::kError:
      (void)net::DecodeErrorPayload(payload);
      break;
    case FrameType::kStatsData:
      (void)net::DecodeFleetStats(payload);
      break;
    default:
      break;  // opaque payloads (spill bytes, pings)
  }
}

TEST(WireFuzzTest, EveryTruncationIsRejectedTyped) {
  const CompileRequest request = AnnealRequest(SampleDag(10, 31));
  const std::string payload = net::EncodeCompileRequest(request, false);
  std::string frame = net::EncodeFrameHeader(FrameType::kCompileRequest,
                                             payload);
  frame += payload;
  // Every proper prefix must throw WireError — and, under ASan, never read
  // out of bounds.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(DecodeFullFrame(std::string_view(frame.data(), cut)),
                 WireError)
        << "prefix length " << cut;
  }
  // The full frame decodes.
  EXPECT_NO_THROW(DecodeFullFrame(frame));
}

TEST(WireFuzzTest, EveryBitFlipIsRejectedOrConfinedToTheTypeField) {
  const CompileRequest request = AnnealRequest(SampleDag(10, 32));
  const std::string payload = net::EncodeCompileRequest(request, false);
  std::string frame = net::EncodeFrameHeader(FrameType::kCompileRequest,
                                             payload);
  frame += payload;
  int rejected = 0;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      try {
        const net::FrameHeader header = net::DecodeFrameHeader(corrupt);
        net::VerifyFramePayload(
            header,
            std::string_view(corrupt).substr(
                net::kFrameHeaderBytes,
                static_cast<std::size_t>(header.payload_size)));
        // The payload checksum covers every payload byte, so the only
        // undetected single-bit flip lives in the header's own type field
        // (which framing validates as a known type but cannot checksum).
        EXPECT_NE(header.type, FrameType::kCompileRequest)
            << "byte " << byte << " bit " << bit;
        EXPECT_GE(byte, 4u);  // within the type field's bytes
        EXPECT_LT(byte, 8u);
      } catch (const WireError&) {
        ++rejected;  // the expected outcome for nearly every flip
      }
    }
  }
  EXPECT_GT(rejected, static_cast<int>(frame.size() * 8 - 32));
}

TEST(WireFuzzTest, TrailingBytesFromNewerWritersAreTolerated) {
  const CompileRequest request = AnnealRequest(SampleDag(12, 33));
  std::string payload = net::EncodeCompileRequest(request, true);
  payload += "fields-from-v2-this-reader-does-not-know";
  const net::WireCompileRequest decoded = net::DecodeCompileRequest(payload);
  EXPECT_EQ(graph::HashDag(decoded.request.dag), graph::HashDag(request.dag));
  EXPECT_TRUE(decoded.no_forward);
}

TEST(WireFuzzTest, GarbageBytesNeverDecode) {
  std::mt19937_64 rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(1 + static_cast<std::size_t>(rng() % 96), '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    EXPECT_THROW((void)net::DecodeCompileRequest(junk), WireError);
    EXPECT_THROW((void)net::DecodeCompileResponse(junk), WireError);
    EXPECT_THROW((void)net::DecodeErrorPayload(junk), WireError);
    // DecodeFleetStats is deliberately absent: it is all fixed-width
    // counters with no internal structure to validate, so random bytes of
    // sufficient length parse as (meaningless) numbers — the frame
    // checksum is what guards it, and that is exercised above.
  }
}

// ── Sockets and addresses ──────────────────────────────────────────────────

TEST(SocketTest, SplitHostPortParsesAndRejects) {
  const auto [host, port] = net::SplitHostPort("127.0.0.1:7430");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7430);
  EXPECT_THROW((void)net::SplitHostPort("no-colon"), NetError);
  EXPECT_THROW((void)net::SplitHostPort(":7430"), NetError);
  EXPECT_THROW((void)net::SplitHostPort("127.0.0.1:"), NetError);
  EXPECT_THROW((void)net::SplitHostPort("127.0.0.1:notaport"), NetError);
  EXPECT_THROW((void)net::SplitHostPort("127.0.0.1:99999"), NetError);
}

TEST(SocketTest, ConnectToClosedPortIsTypedFailure) {
  // Port 1 is privileged and unbound in the test environment: the connect
  // must fail with NetError, quickly, never hang or crash.
  EXPECT_THROW((void)net::Socket::Connect("127.0.0.1", 1, 500), NetError);
}

// ── Live server/client ─────────────────────────────────────────────────────

TEST(FleetServerTest, PingStatsAndFlushRoundTrip) {
  serve::CompileService service(FastOptions());
  FleetServer server(service);
  ASSERT_GT(server.Port(), 0);

  FleetClient client(server.Address());
  client.Ping();
  client.Flush();
  const net::FleetStats stats = client.Stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.engine_solves, 0u);
  server.Stop();
}

TEST(FleetServerTest, CompileOverWireColdThenWarm) {
  serve::CompileService service(FastOptions());
  FleetServer server(service);
  FleetClient client(server.Address());

  const CompileRequest request = AnnealRequest(SampleDag(22, 51));
  const CompileResponse cold = client.Compile(request);
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  ASSERT_NE(cold.result, nullptr);
  EXPECT_EQ(cold.engine_name, "Annealing");
  EXPECT_EQ(cold.key_hex.size(), 32u);

  const CompileResponse warm = client.Compile(request);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.key_hex, cold.key_hex);
  ASSERT_NE(warm.result, nullptr);
  // The remote warm answer is bit-identical to the remote cold solve.
  ExpectSameResult(*warm.result, *cold.result);

  const net::FleetStats stats = client.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.engine_solves, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  server.Stop();
}

TEST(FleetServerTest, TypedErrorsSurviveTheHop) {
  serve::CompileService service(FastOptions());
  FleetServer server(service);
  FleetClient client(server.Address());

  CompileRequest unknown_engine = AnnealRequest(SampleDag(10, 52));
  unknown_engine.engine = "no-such-engine";
  EXPECT_THROW((void)client.Compile(unknown_engine), std::invalid_argument);

  CompileRequest expired = AnnealRequest(SampleDag(10, 53));
  expired.deadline = serve::DeadlineIn(-0.5);
  EXPECT_THROW((void)client.Compile(expired), serve::DeadlineExceeded);

  // Rejected at admission: before the check, a zero stage count crashed
  // the list scheduler and took the whole shard down.
  CompileRequest no_stages = AnnealRequest(SampleDag(10, 55));
  no_stages.engine = "list";
  no_stages.num_stages = 0;
  EXPECT_THROW((void)client.Compile(no_stages), std::invalid_argument);

  // The connection survives typed failures: a good request still works.
  const CompileResponse ok = client.Compile(AnnealRequest(SampleDag(10, 54)));
  ASSERT_NE(ok.result, nullptr);
  server.Stop();
}

TEST(FleetServerTest, MalformedFramesGetTypedErrorAndClose) {
  serve::CompileService service(FastOptions());
  FleetServer server(service);

  const auto [host, port] = net::SplitHostPort(server.Address());
  net::Socket raw = net::Socket::Connect(host, port);
  raw.SetIoTimeout(2000);
  std::string garbage(64, '\x5a');  // wrong magic, wrong everything
  raw.SendAll(garbage);
  auto frame = net::RecvFrame(raw);
  EXPECT_EQ(frame.first, FrameType::kError);
  const auto [kind, message] = net::DecodeErrorPayload(frame.second);
  EXPECT_EQ(kind, WireErrorKind::kInvalidArgument);
  // The server closed the stream after the protocol error.
  EXPECT_THROW((void)net::RecvFrame(raw), NetError);
  EXPECT_GE(server.Metrics().protocol_errors, 1u);
  server.Stop();
}

TEST(FleetServerTest, SpillFetchByHexServesVerifiedEnvelopes) {
  const std::string dir = FreshDir("net-spill");
  serve::ServiceOptions options;
  options.cache_dir = dir;
  serve::CompileService service(FastOptions(), options);
  FleetServer server(service);
  FleetClient client(server.Address());

  const CompileRequest request = AnnealRequest(SampleDag(20, 61));
  const CompileResponse solved = client.Compile(request);
  client.Flush();  // spill writeback is async; the frame blocks until done

  const graph::CanonicalHash key = service.KeyFor(request);
  const std::optional<std::string> bytes = client.FetchSpill(key);
  ASSERT_TRUE(bytes.has_value());
  const auto envelope = serve::store::TryDecodeSpillEnvelope(*bytes);
  ASSERT_TRUE(envelope.has_value());
  EXPECT_EQ(envelope->meta.key, key);
  ExpectSameResult(*envelope->result, *solved.result);

  // Unknown key: a typed miss, not an error, not bytes.
  graph::CanonicalHash absent = key;
  absent.lo ^= 0x1;
  EXPECT_FALSE(client.FetchSpill(absent).has_value());
  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.spill_served, 1u);
  EXPECT_EQ(metrics.spill_missed, 1u);
  server.Stop();
}

TEST(FleetServerTest, ExportImportRawEdgeCases) {
  const std::string dir = FreshDir("net-import");
  serve::ServiceOptions options;
  options.cache_dir = dir;
  serve::CompileService service(FastOptions(), options);

  const CompileRequest request = AnnealRequest(SampleDag(18, 62));
  (void)service.Compile(request);
  service.FlushStore();
  const graph::CanonicalHash key = service.KeyFor(request);

  const std::optional<std::string> bytes = service.ExportSpill(key);
  ASSERT_TRUE(bytes.has_value());

  // Re-import of valid bytes under the right key: accepted.
  EXPECT_TRUE(service.ImportSpill(key, *bytes));
  // Same bytes under a different key: refused (a lying peer cannot poison
  // the store).
  graph::CanonicalHash wrong = key;
  wrong.hi ^= 0xdead;
  EXPECT_FALSE(service.ImportSpill(wrong, *bytes));
  // Corrupt bytes: refused.
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_FALSE(service.ImportSpill(key, corrupt));
  // Unknown key exports nothing.
  EXPECT_FALSE(service.ExportSpill(wrong).has_value());
}

/// Finds a dag whose request key lands on `want_owner` under `ring`.
CompileRequest RequestOwnedBy(const serve::CompileService& service,
                              const ConsistentHashRing& ring,
                              const std::string& want_owner) {
  for (std::uint64_t seed = 100; seed < 200; ++seed) {
    CompileRequest request = AnnealRequest(SampleDag(16, seed));
    if (ring.OwnerOf(service.KeyFor(request).lo) == want_owner) {
      return request;
    }
  }
  throw std::logic_error("no seed landed on the wanted owner");
}

TEST(FleetServerTest, ForwardToOwnerSolvesOnceFleetWide) {
  serve::CompileService service_a(FastOptions());
  serve::CompileService service_b(FastOptions());
  FleetServer server_a(service_a);
  FleetServer server_b(service_b);
  const std::vector<std::string> members = {server_a.Address(),
                                            server_b.Address()};
  server_a.SetMembers(members, server_a.Address());
  server_b.SetMembers(members, server_b.Address());

  // A request owned by A, sent to B: B relays, A solves, and the second
  // ask through B comes back warm from A — one solve fleet-wide.
  const ConsistentHashRing ring(members);
  const CompileRequest request =
      RequestOwnedBy(service_b, ring, server_a.Address());

  FleetClient client(server_b.Address());
  const CompileResponse first = client.Compile(request);
  ASSERT_NE(first.result, nullptr);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);

  const CompileResponse second = client.Compile(request);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  ExpectSameResult(*second.result, *first.result);

  FleetClient client_a(server_a.Address());
  const net::FleetStats stats_a = client_a.Stats();
  const net::FleetStats stats_b = client.Stats();
  EXPECT_EQ(stats_a.engine_solves + stats_b.engine_solves, 1u);
  EXPECT_EQ(stats_a.engine_solves, 1u);  // the owner paid the solve
  EXPECT_GE(server_b.Metrics().forwarded, 2u);
  server_b.Stop();
  server_a.Stop();
}

TEST(FleetServerTest, DeadOwnerDegradesToLocalSolve) {
  serve::CompileService service(FastOptions());
  FleetServerOptions options;
  options.io_timeout_ms = 1000;
  FleetServer server(service, options);
  // Port 1 is dead: forwarding there must fail fast and degrade.
  const std::string dead = "127.0.0.1:1";
  const std::vector<std::string> members = {server.Address(), dead};
  server.SetMembers(members, server.Address());

  const ConsistentHashRing ring(members);
  const CompileRequest request = RequestOwnedBy(service, ring, dead);

  FleetClient client(server.Address());
  const CompileResponse response = client.Compile(request);
  ASSERT_NE(response.result, nullptr);  // valid despite the dead owner
  EXPECT_EQ(response.outcome, CacheOutcome::kMiss);
  EXPECT_GE(server.Metrics().forward_failures, 1u);
  EXPECT_EQ(server.Metrics().forwarded, 0u);
  server.Stop();
}

TEST(FleetServerTest, PeerWarmFetchServesWithoutLocalSolve) {
  // Shard A solves and spills; a fresh shard B then answers the same
  // request by fetching A's envelope — zero local engine solves on B.
  const std::string dir_a = FreshDir("net-warm-a");
  const std::string dir_b = FreshDir("net-warm-b");
  serve::ServiceOptions store_a;
  store_a.cache_dir = dir_a;
  serve::ServiceOptions store_b;
  store_b.cache_dir = dir_b;
  serve::CompileService service_a(FastOptions(), store_a);
  serve::CompileService service_b(FastOptions(), store_b);

  // A stays standalone (it would otherwise forward the seeding solve to B
  // and defeat the scenario); B gets the membership with forwarding off to
  // force the peer-warm path.
  FleetServer server_a(service_a);
  FleetServerOptions options_b;
  options_b.forward_to_owner = false;
  FleetServer server_b(service_b, options_b);
  const std::vector<std::string> members = {server_a.Address(),
                                            server_b.Address()};
  server_b.SetMembers(members, server_b.Address());

  const CompileRequest request = AnnealRequest(SampleDag(20, 71));
  FleetClient client_a(server_a.Address());
  const CompileResponse solved = client_a.Compile(request);
  client_a.Flush();

  FleetClient client_b(server_b.Address());
  const CompileResponse warmed = client_b.Compile(request);
  EXPECT_EQ(warmed.outcome, CacheOutcome::kPeerHit);
  ASSERT_NE(warmed.result, nullptr);
  ExpectSameResult(*warmed.result, *solved.result);

  const net::FleetStats stats_b = client_b.Stats();
  EXPECT_EQ(stats_b.engine_solves, 0u);
  EXPECT_EQ(stats_b.peer_hits, 1u);
  EXPECT_GE(stats_b.peer_fetches, 1u);

  // The imported envelope is durable: B now serves it from its own tiers.
  const CompileResponse resident = client_b.Compile(request);
  EXPECT_EQ(resident.outcome, CacheOutcome::kHit);
  server_b.Stop();
  server_a.Stop();
}

TEST(FleetServerTest, PeerMissFallsThroughToLocalSolve) {
  // Peers are up but cold: the fetch misses cleanly and the shard pays its
  // own solve — peer warmth is an optimization, never a dependency.
  serve::CompileService service_a(FastOptions());
  serve::CompileService service_b(FastOptions());
  FleetServer server_a(service_a);
  FleetServerOptions options_b;
  options_b.forward_to_owner = false;
  FleetServer server_b(service_b, options_b);
  const std::vector<std::string> members = {server_a.Address(),
                                            server_b.Address()};
  server_b.SetMembers(members, server_b.Address());

  FleetClient client(server_b.Address());
  const CompileResponse response =
      client.Compile(AnnealRequest(SampleDag(16, 81)));
  ASSERT_NE(response.result, nullptr);
  EXPECT_EQ(response.outcome, CacheOutcome::kMiss);
  const net::FleetStats stats = client.Stats();
  EXPECT_EQ(stats.engine_solves, 1u);
  EXPECT_GE(stats.peer_fetches, 1u);
  EXPECT_EQ(stats.peer_hits, 0u);
  server_b.Stop();
  server_a.Stop();
}

}  // namespace
}  // namespace respect
