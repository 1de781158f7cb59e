// Spill envelope codec — the one definition of the `.spill` byte format,
// shared by the on-disk store (serve/store/disk_store.cc) and the fleet
// peer-fetch path (net/fleet_server.cc), which ships whole envelopes
// between processes so any node can warm any other.
//
// Envelope layout (host-native bytes via deploy/pod_io.h):
//
//   header   u32 magic 'RSPL'   u32 format version   u64 payload bytes
//            u64 checksum.hi    u64 checksum.lo      (checksum = the
//            graph::CanonicalHasher digest of the payload bytes)
//   payload  key.hi/key.lo      rl_dependent + rl_version
//            engine name
//            profile name + fingerprint hi/lo
//            result body (WriteResultBody below)
//
// One format: a decoder accepts kSpillFormatVersion only.  Any other
// version — an older build's spill, a newer build's — is refused like a
// corrupt file; a decoder never guesses at fields it does not know.
//
// Every structural problem — short buffer, bad magic, wrong version,
// implausible sizes, checksum mismatch, trailing bytes — throws
// std::runtime_error from the
// Decode functions; TryDecodeSpillEnvelope converts all of those into
// nullopt for callers (peer fetch, raw import) that treat corrupt bytes as
// a typed miss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "graph/canonical_hash.h"
#include "serve/request.h"

namespace respect {
struct CompileResult;
}  // namespace respect

namespace respect::serve::store {

/// Self-description stored next to the serialized result: what Compact()
/// and humans poking at a cache directory need without recomputing keys.
struct SpillMeta {
  /// The full content-addressed request key (also the file name, in hex).
  graph::CanonicalHash key;

  /// True when the result came from an RL-dependent engine; such entries
  /// become unreachable when the RL snapshot version moves past rl_version.
  bool rl_dependent = false;
  std::uint64_t rl_version = 0;

  /// Canonical engine name, for observability only (the key covers it).
  std::string engine_name;

  /// Device profile the schedule was optimized for.  Observability only —
  /// the key covers it (every profile folds its fingerprint in).
  std::string profile_name;
  graph::CanonicalHash profile_fingerprint{};
};

inline constexpr std::uint32_t kSpillMagic = 0x4c505352;  // "RSPL"
inline constexpr std::uint32_t kSpillFormatVersion = 3;

/// Fixed header size: magic + version + payload size + checksum hi/lo.
inline constexpr std::size_t kSpillHeaderBytes = 4 + 4 + 8 + 8 + 8;

/// Everything above the package is small; this bounds resize attacks from a
/// corrupt length field (the package reader has its own bounds).
inline constexpr std::uint64_t kMaxSpillPayloadBytes = 1ull << 30;
inline constexpr std::uint32_t kMaxSpillEngineNameBytes = 4096;
inline constexpr std::uint32_t kMaxSpillProfileNameBytes = 4096;
inline constexpr std::uint64_t kMaxSpillScheduleNodes = 1ull << 24;

/// A fully decoded and verified envelope.
struct SpillEnvelope {
  SpillMeta meta;
  ResultPtr result;
};

/// Serializes the result fields that follow the meta prefix (solve stats,
/// schedule, deploy package).  Shared with the wire response codec
/// (net/wire.cc) so a schedule travels in one byte layout whether it rides
/// in a spill file or a CompileResponse frame.
void WriteResultBody(std::ostream& os, const CompileResult& result);

/// Inverse of WriteResultBody.  Throws std::runtime_error on malformed or
/// truncated input.  Leaves the stream positioned exactly past the body.
[[nodiscard]] ResultPtr ReadResultBody(std::istream& is);

/// graph::CanonicalHasher digest of the payload bytes — the envelope
/// checksum.
[[nodiscard]] graph::CanonicalHash SpillChecksum(std::string_view payload);

/// Serializes one complete envelope: header + payload, ready to write to a
/// file or ship over a socket.
[[nodiscard]] std::string EncodeSpillEnvelope(const SpillMeta& meta,
                                              const CompileResult& result);

/// Parses and fully verifies one envelope (magic, version, payload size,
/// checksum, no trailing bytes).  Throws std::runtime_error on any
/// problem.
[[nodiscard]] SpillEnvelope DecodeSpillEnvelope(std::string_view bytes);

/// DecodeSpillEnvelope with every failure mode folded to nullopt — the
/// typed-miss form used by peer fetch and raw import.
[[nodiscard]] std::optional<SpillEnvelope> TryDecodeSpillEnvelope(
    std::string_view bytes);

/// Reads only the header and the meta fields at the front of the payload
/// from a stream — enough for compaction decisions without deserializing
/// (or even reading) the package bytes.  Structural corruption throws; the
/// meta is NOT checksum-verified (full verification stays where bytes are
/// served).
[[nodiscard]] SpillMeta DecodeSpillMeta(std::istream& is);

}  // namespace respect::serve::store
