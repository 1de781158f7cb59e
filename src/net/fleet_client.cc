#include "net/fleet_client.h"

#include <utility>

namespace respect::net {

FleetClient::FleetClient(const std::string& address,
                         const FleetClientOptions& options)
    : address_(address) {
  const auto [host, port] = SplitHostPort(address);
  socket_ = Socket::Connect(host, port, options.connect_timeout_ms);
  if (options.io_timeout_ms > 0) socket_.SetIoTimeout(options.io_timeout_ms);
}

std::pair<FrameType, std::string> FleetClient::Roundtrip(
    FrameType type, std::string_view payload) {
  SendFrame(socket_, type, payload);
  return RecvFrame(socket_);
}

void FleetClient::ExpectType(const std::pair<FrameType, std::string>& frame,
                             FrameType expected) {
  if (frame.first == expected) return;
  if (frame.first == FrameType::kError) {
    const auto [kind, message] = DecodeErrorPayload(frame.second);
    ThrowDecodedError(kind, message);
  }
  throw WireError(std::string("wire: expected ") +
                  std::string(FrameTypeName(expected)) + " frame, got " +
                  std::string(FrameTypeName(frame.first)));
}

serve::CompileResponse FleetClient::Compile(
    const serve::CompileRequest& request) {
  const auto frame = Roundtrip(FrameType::kCompileRequest,
                               EncodeCompileRequest(request,
                                                    /*no_forward=*/false));
  ExpectType(frame, FrameType::kCompileResponse);
  return DecodeCompileResponse(frame.second);
}

std::pair<FrameType, std::string> FleetClient::CompileRaw(
    std::string_view request_payload) {
  auto frame = Roundtrip(FrameType::kCompileRequest, request_payload);
  if (frame.first != FrameType::kCompileResponse &&
      frame.first != FrameType::kError) {
    throw WireError("wire: unexpected relay reply frame");
  }
  return frame;
}

std::optional<std::string> FleetClient::FetchSpill(
    const graph::CanonicalHash& key) {
  auto frame = Roundtrip(FrameType::kSpillGet, key.ToHex());
  if (frame.first == FrameType::kSpillMiss) return std::nullopt;
  ExpectType(frame, FrameType::kSpillData);
  return std::move(frame.second);
}

std::string FleetClient::MetricsPage() {
  auto frame = Roundtrip(FrameType::kMetricsGet, {});
  ExpectType(frame, FrameType::kMetricsData);
  return std::move(frame.second);
}

TraceDump FleetClient::TraceDumpFetch() {
  const auto frame = Roundtrip(FrameType::kTraceDump, {});
  ExpectType(frame, FrameType::kTraceData);
  return DecodeTraceDump(frame.second);
}

void FleetClient::Flush() {
  ExpectType(Roundtrip(FrameType::kFlush, {}), FrameType::kFlushOk);
}

void FleetClient::Ping() {
  ExpectType(Roundtrip(FrameType::kPing, {}), FrameType::kPong);
}

}  // namespace respect::net
