#include "serve/store/spill_codec.h"

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/respect.h"
#include "deploy/package.h"
#include "deploy/pod_io.h"

namespace respect::serve::store {
namespace {

using deploy::ReadPod;
using deploy::WritePod;

/// Parses the meta fields at the front of a payload stream.  Throws
/// std::runtime_error on any structural problem.
SpillMeta ReadMetaFields(std::istream& is) {
  SpillMeta meta;
  ReadPod(is, meta.key.hi);
  ReadPod(is, meta.key.lo);
  std::uint8_t rl_dependent = 0;
  ReadPod(is, rl_dependent);
  meta.rl_dependent = rl_dependent != 0;
  ReadPod(is, meta.rl_version);
  std::uint32_t name_len = 0;
  ReadPod(is, name_len);
  if (!is || name_len > kMaxSpillEngineNameBytes) {
    throw std::runtime_error("spill: corrupt engine name");
  }
  meta.engine_name.resize(name_len);
  is.read(meta.engine_name.data(), name_len);
  std::uint32_t profile_len = 0;
  ReadPod(is, profile_len);
  if (!is || profile_len > kMaxSpillProfileNameBytes) {
    throw std::runtime_error("spill: corrupt profile name");
  }
  meta.profile_name.resize(profile_len);
  is.read(meta.profile_name.data(), profile_len);
  ReadPod(is, meta.profile_fingerprint.hi);
  ReadPod(is, meta.profile_fingerprint.lo);
  if (!is) throw std::runtime_error("spill: truncated meta");
  return meta;
}

struct SpillHeader {
  std::uint64_t payload_size = 0;
  graph::CanonicalHash checksum;
};

/// Parses and range-checks the fixed header from a stream.  Throws on bad
/// magic, any version but kSpillFormatVersion, or an implausible payload
/// size.
SpillHeader ReadHeader(std::istream& is) {
  SpillHeader header;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  ReadPod(is, magic);
  ReadPod(is, version);
  ReadPod(is, header.payload_size);
  ReadPod(is, header.checksum.hi);
  ReadPod(is, header.checksum.lo);
  if (!is || magic != kSpillMagic) {
    throw std::runtime_error("spill: bad magic");
  }
  if (version != kSpillFormatVersion) {
    throw std::runtime_error("spill: unsupported format version");
  }
  if (header.payload_size == 0 || header.payload_size > kMaxSpillPayloadBytes) {
    throw std::runtime_error("spill: implausible payload size");
  }
  return header;
}

/// Serializes one payload (no header).
std::string EncodeSpillPayload(const SpillMeta& meta,
                               const CompileResult& result) {
  std::ostringstream os(std::ios::binary);
  WritePod(os, meta.key.hi);
  WritePod(os, meta.key.lo);
  WritePod(os, static_cast<std::uint8_t>(meta.rl_dependent));
  WritePod(os, meta.rl_version);
  WritePod(os, static_cast<std::uint32_t>(meta.engine_name.size()));
  os.write(meta.engine_name.data(),
           static_cast<std::streamsize>(meta.engine_name.size()));
  WritePod(os, static_cast<std::uint32_t>(meta.profile_name.size()));
  os.write(meta.profile_name.data(),
           static_cast<std::streamsize>(meta.profile_name.size()));
  WritePod(os, meta.profile_fingerprint.hi);
  WritePod(os, meta.profile_fingerprint.lo);
  WriteResultBody(os, result);
  return std::move(os).str();
}

}  // namespace

void WriteResultBody(std::ostream& os, const CompileResult& result) {
  WritePod(os, result.solve_seconds);
  WritePod(os, result.peak_stage_param_bytes);
  WritePod(os, static_cast<std::uint8_t>(result.proved_optimal));
  WritePod(os, result.schedule.num_stages);
  WritePod(os, static_cast<std::uint64_t>(result.schedule.stage.size()));
  for (const int stage : result.schedule.stage) WritePod(os, stage);
  deploy::WritePackage(result.package, os);
}

ResultPtr ReadResultBody(std::istream& is) {
  auto result = std::make_shared<CompileResult>();
  ReadPod(is, result->solve_seconds);
  ReadPod(is, result->peak_stage_param_bytes);
  std::uint8_t proved_optimal = 0;
  ReadPod(is, proved_optimal);
  result->proved_optimal = proved_optimal != 0;
  ReadPod(is, result->schedule.num_stages);
  std::uint64_t node_count = 0;
  ReadPod(is, node_count);
  if (!is || node_count > kMaxSpillScheduleNodes) {
    throw std::runtime_error("spill: corrupt schedule");
  }
  result->schedule.stage.resize(node_count);
  for (int& stage : result->schedule.stage) ReadPod(is, stage);
  if (!is) throw std::runtime_error("spill: truncated schedule");
  result->package = deploy::ReadPackage(is);
  return result;
}

graph::CanonicalHash SpillChecksum(std::string_view payload) {
  graph::CanonicalHasher hasher;
  hasher.Update(payload);
  return hasher.Finish();
}

std::string EncodeSpillEnvelope(const SpillMeta& meta,
                                const CompileResult& result) {
  const std::string payload = EncodeSpillPayload(meta, result);
  const graph::CanonicalHash checksum = SpillChecksum(payload);
  std::ostringstream os(std::ios::binary);
  WritePod(os, kSpillMagic);
  WritePod(os, kSpillFormatVersion);
  WritePod(os, static_cast<std::uint64_t>(payload.size()));
  WritePod(os, checksum.hi);
  WritePod(os, checksum.lo);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return std::move(os).str();
}

SpillEnvelope DecodeSpillEnvelope(std::string_view bytes) {
  if (bytes.size() < kSpillHeaderBytes) {
    throw std::runtime_error("spill: truncated header");
  }
  std::istringstream header_stream(
      std::string(bytes.substr(0, kSpillHeaderBytes)), std::ios::binary);
  const SpillHeader header = ReadHeader(header_stream);
  const std::string_view payload = bytes.substr(kSpillHeaderBytes);
  if (payload.size() != header.payload_size) {
    throw std::runtime_error("spill: truncated or oversized payload");
  }
  if (SpillChecksum(payload) != header.checksum) {
    throw std::runtime_error("spill: checksum mismatch");
  }
  std::istringstream is(std::string(payload), std::ios::binary);
  SpillEnvelope envelope;
  envelope.meta = ReadMetaFields(is);
  envelope.result = ReadResultBody(is);
  // The package reader stops exactly at its last field; anything after it
  // means the payload is not what the checksum was supposed to cover.
  if (is.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("spill: trailing bytes");
  }
  return envelope;
}

std::optional<SpillEnvelope> TryDecodeSpillEnvelope(std::string_view bytes) {
  try {
    return DecodeSpillEnvelope(bytes);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

SpillMeta DecodeSpillMeta(std::istream& is) {
  (void)ReadHeader(is);
  return ReadMetaFields(is);
}

}  // namespace respect::serve::store
