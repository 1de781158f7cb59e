// Fleet wire protocol — length-prefixed, checksummed frames carrying POD
// serializations of the serving request/response types.
//
// Frame layout (host-native bytes via deploy/pod_io.h; the fleet is
// homogeneous loopback/LAN processes, matching the spill format's
// convention):
//
//   header   u32 magic 'RNWF'     u32 frame type      u64 payload bytes
//            u64 checksum.hi      u64 checksum.lo     (checksum = the
//            graph::CanonicalHasher digest of the payload bytes)
//   payload  type-specific: a structured payload starts with a u32
//            payload version; spill bytes and the metrics page travel as
//            they are
//
// Versioned envelopes, unknown-field tolerant: every structured payload
// opens with a version, fields are append-only, and decoders read the
// fields they know and ignore trailing bytes — a v1 reader accepts a v2
// writer's frames.
// The checksum still covers every byte, so tolerance never means trusting
// corruption.
//
// Every malformed byte sequence — short header, bad magic, implausible
// size, checksum mismatch, out-of-range enum — throws WireError, never UB;
// tests/net_test.cc drives truncated and bit-flipped frames through the
// decoders under ASan to hold that line.
//
// Frame conversation (client speaks first on every exchange):
//
//   kCompileRequest  -> kCompileResponse | kError
//   kSpillGet        -> kSpillData       | kSpillMiss | kError
//   kFlush           -> kFlushOk
//   kPing            -> kPong
//   kTraceDump       -> kTraceData
//   kMetricsGet      -> kMetricsData  (the shard's Prometheus page, the
//                                      same text --metrics-out writes)
//
// Numbers 7 and 8 stay unassigned (an older build's stats frames): they
// fail DecodeFrameHeader like any unknown type, so a peer from that build
// gets a typed WireError, never misread bytes.
//
// kError carries a WireErrorKind so the service's typed failures
// (DeadlineExceeded, Overloaded, std::invalid_argument) survive the hop
// and rethrow as the same types on the client.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "graph/canonical_hash.h"
#include "serve/request.h"

namespace respect::net {

class Socket;

/// The bytes arrived but are not a valid frame (framing, checksum, or
/// payload structure).  Distinct from NetError (transport failure).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Relayed remote failure with no more specific typed form (the peer's
/// kInternal errors).
class RemoteError : public std::runtime_error {
 public:
  explicit RemoteError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x46574e52;  // "RNWF"
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 8 + 8;
inline constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 30;
inline constexpr std::uint32_t kWireVersion = 1;
inline constexpr std::uint64_t kMaxWireStringBytes = 1ull << 20;
inline constexpr std::uint64_t kMaxWireDagBytes = 1ull << 26;

enum class FrameType : std::uint32_t {
  kCompileRequest = 1,
  kCompileResponse = 2,
  kError = 3,
  kSpillGet = 4,
  kSpillData = 5,
  kSpillMiss = 6,
  kFlush = 9,
  kFlushOk = 10,
  kPing = 11,
  kPong = 12,
  kTraceDump = 13,
  kTraceData = 14,
  kMetricsGet = 15,
  kMetricsData = 16,
};

/// "unknown" for a value outside the enumerators.
[[nodiscard]] std::string_view FrameTypeName(FrameType type);

struct FrameHeader {
  FrameType type = FrameType::kPing;
  std::uint64_t payload_size = 0;
  graph::CanonicalHash checksum;
};

/// Serializes the 32-byte header for `payload` (computes its checksum).
[[nodiscard]] std::string EncodeFrameHeader(FrameType type,
                                            std::string_view payload);

/// Parses and range-checks a header.  Throws WireError on anything but a
/// well-formed header of a known frame type within the payload bound.
[[nodiscard]] FrameHeader DecodeFrameHeader(std::string_view bytes);

/// Throws WireError unless `payload` matches the header's size and
/// checksum.
void VerifyFramePayload(const FrameHeader& header, std::string_view payload);

/// Writes one frame (header + payload) to the socket.
void SendFrame(Socket& socket, FrameType type, std::string_view payload);

/// Reads one verified frame.  NetError for transport failures, WireError
/// for malformed bytes.
[[nodiscard]] std::pair<FrameType, std::string> RecvFrame(Socket& socket);

// ── Compile request / response payloads ────────────────────────────────────

struct WireCompileRequest {
  serve::CompileRequest request;

  /// Routing loop prevention: set on owner-forwarded requests so the owner
  /// answers locally instead of re-consulting the ring.
  bool no_forward = false;
};

/// Serializes every CompileRequest field.  The deadline travels as
/// remaining time (steady_clock points do not cross processes) and is
/// re-anchored to the receiver's clock on decode.
[[nodiscard]] std::string EncodeCompileRequest(
    const serve::CompileRequest& request, bool no_forward);

[[nodiscard]] WireCompileRequest DecodeCompileRequest(
    std::string_view payload);

/// Serializes every CompileResponse field, including the result body when
/// present (shared byte layout with the spill codec's WriteResultBody).
[[nodiscard]] std::string EncodeCompileResponse(
    const serve::CompileResponse& response);

/// Engine names decode into process-lifetime string_views: known names
/// resolve to the registry's canonical storage, unknown ones land in an
/// interning pool (never a dangling view).
[[nodiscard]] serve::CompileResponse DecodeCompileResponse(
    std::string_view payload);

// ── Typed error payload ────────────────────────────────────────────────────

enum class WireErrorKind : std::uint8_t {
  kInvalidArgument = 0,
  kDeadlineExceeded = 1,
  kOverloaded = 2,
  kInternal = 3,
};

[[nodiscard]] std::string EncodeErrorPayload(WireErrorKind kind,
                                             std::string_view message);

[[nodiscard]] std::pair<WireErrorKind, std::string> DecodeErrorPayload(
    std::string_view payload);

/// Rethrows a decoded error payload as the matching typed exception:
/// std::invalid_argument, serve::DeadlineExceeded, serve::Overloaded, or
/// RemoteError.
[[noreturn]] void ThrowDecodedError(WireErrorKind kind,
                                    const std::string& message);

// ── Trace dump payload ─────────────────────────────────────────────────────

/// One shard's drained trace buffer (kTraceDump -> kTraceData): the shard
/// id that stamps the chrometrace `pid` field, plus a bracket-less
/// chrometrace event fragment (obs::AppendChromeTraceEvents) the collector
/// splices into one merged trace file.
struct TraceDump {
  std::uint32_t shard_id = 0;
  std::string events_json;  // comma-separated chrometrace event objects
};

[[nodiscard]] std::string EncodeTraceDump(const TraceDump& dump);
[[nodiscard]] TraceDump DecodeTraceDump(std::string_view payload);

}  // namespace respect::net
