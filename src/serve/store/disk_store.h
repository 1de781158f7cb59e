// DiskStore — the persistent tier behind CompileService's sharded in-memory
// schedule cache: one self-describing spill file per cached CompileResult,
// named `<key-hex>.spill` under a cache directory.
//
// The in-memory cache answers the hot set; the store keeps solved
// schedules across process restarts.  The service consults it in exactly
// three places:
//
//   * Probe  — on a memory miss (kUse policy only), before paying an engine
//              solve.  This is the one synchronous store call on the request
//              path; a hit is surfaced as CacheOutcome::kDiskHit and promoted
//              into memory subject to the admission policy.
//   * Put    — after a successful cold solve or refresh, enqueued on the
//              service's one spill-writer thread so the request path and
//              the serving workers never block on store I/O.  Put never
//              throws: a failed write is a counted non-event (the entry
//              simply is not persisted), never a request failure.
//   * Compact — housekeeping: drop entries no future request can reach
//              (RL-dependent results from superseded weight snapshots — the
//              snapshot version is folded into the request key, so they are
//              unreachable the moment ReplaceRl bumps it).  Decided from the
//              index, which records each spill's RL version.
//
// A schedule is deterministic in its key, so an entry has no age limit:
// it lives until Compact reclaims it or a probe finds it corrupt.
//
// The fleet's peer fetch additionally moves whole verified envelopes in and
// out (ExportRaw / ImportRaw).  Keys are the service's content-addressed
// request keys (graph::CanonicalHash over the serialized DAG + canonical
// engine name + num_stages + options fingerprint + device-profile
// fingerprint + RL snapshot version), so
// a store entry answers exactly one request shape and restart warm-start
// needs no re-keying.  Every method is safe to call from multiple threads.
//
// File format (host-native bytes; a local cache artifact, not a wire
// format):
//
//   header   u32 magic 'RSPL'   u32 format version   u64 payload bytes
//            u64 checksum.hi    u64 checksum.lo      (checksum = the
//            graph::CanonicalHasher digest of the payload bytes)
//   payload  key.hi/key.lo      rl_dependent + rl_version
//            engine name
//            profile name + fingerprint hi/lo
//            solve_seconds, peak_stage_param_bytes, proved_optimal
//            schedule (num_stages + per-node stages)
//            package  (deploy::WritePackage — the heavy part)
//
// One format version is read: a file stamped with any other version (an
// older or newer build's) is quarantined as a clean miss, never guessed
// at.
//
// A probe verifies magic, version, payload size, checksum, and that the
// payload's embedded key equals the requested key before trusting a byte of
// it, so a truncated, bit-flipped, or renamed file is a clean miss — the
// offending file is deleted (quarantined) and counted, never served.
// Writes go to a `.tmp` sibling first and rename into place, so readers
// only ever see complete files and a crash mid-write leaves at most a
// stale temp file (swept on the next construction).
//
// Construction scans the directory and indexes every well-named spill file
// by the key parsed from its name (contents are verified lazily, at first
// probe) — that index is what makes restart warm-start O(files) instead of
// O(bytes), and makes a probe for an absent key cost zero I/O.  The index
// also records each spill's rl_dependent/rl_version: known for every file
// this store wrote, imported or verified, and read from the header once, at
// the first Compact, for files the scan found.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/registry.h"
#include "serve/request.h"
#include "serve/store/spill_codec.h"

namespace respect::serve::store {

/// What perfbench/ reads as fields, plus the index size the registry does
/// not hold; every other store counter (probes, hits, misses, retries,
/// compactions, exports, imports) is read from the registry by series
/// name (respect_store_*_total).
struct StoreMetrics {
  std::uint64_t writes = 0;           // respect_store_writes_total
  std::uint64_t write_failures = 0;   // respect_store_write_failures_total
  std::uint64_t corrupt_dropped = 0;  // respect_store_corrupt_dropped_total
  std::size_t resident = 0;           // entries indexed right now
};

struct DiskStoreOptions {
  /// Cache directory; created (with parents) when missing.
  std::string directory;

  /// Metrics registry the store's counters live in (required; must outlive
  /// the store — the constructor throws std::invalid_argument on null).
  /// CompileService passes its own so one exposition page covers both
  /// tiers.
  obs::Registry* registry = nullptr;
};

class DiskStore {
 public:
  /// Scans `options.directory` (creating it when absent) and indexes the
  /// resident spill files.  Throws std::runtime_error when the directory
  /// cannot be created or read.
  explicit DiskStore(const DiskStoreOptions& options);

  /// Returns the stored result for `key`, or null on a miss.  Every failure
  /// mode — absent, corrupt, truncated, other format version, wrong
  /// envelope — is a clean miss, never an exception or a wrong answer.
  [[nodiscard]] ResultPtr Probe(const graph::CanonicalHash& key);

  /// Persists one result under meta.key.  A failed write is retried twice
  /// (3 attempts; the backoff starts at 2 ms and doubles per retry).  Never
  /// throws; failures are counted in respect_store_write_failures_total.
  void Put(const SpillMeta& meta, const ResultPtr& result);

  /// Deletes unreachable entries: RL-dependent results whose rl_version !=
  /// live_rl_version.  Returns the number of entries removed.  Decided
  /// from the index, so it is O(entries) with no I/O beyond the unlinks —
  /// safe to run synchronously under live traffic even for large stores.
  /// Only spills found by the warm-start scan and not yet probed have
  /// unknown meta: their header (key, RL version — never the package) is
  /// read once, here, and recorded; a structurally corrupt or mismatched
  /// header quarantines the file and counts as removed.  A spill whose
  /// meta is known is not reopened, so corruption that happens after it was
  /// written is left to the Probe path, which verifies the checksum and
  /// embedded key before it serves a byte.
  std::size_t Compact(std::uint64_t live_rl_version);

  /// Fleet peer-fetch read: the verified raw envelope bytes for `key` — the
  /// exact `.spill` format (serve/store/spill_codec.h) — or nullopt
  /// (absent, or corrupt — quarantined on the way out).  Bytes
  /// are fully verified (checksum + embedded key) before a single one
  /// leaves the process.
  [[nodiscard]] std::optional<std::string> ExportRaw(
      const graph::CanonicalHash& key);

  /// Fleet peer-fetch write: fully verifies the envelope (checksum, format
  /// version, embedded key == `key`) then publishes it with the
  /// same temp-file + rename discipline as Put, and returns the envelope it
  /// verified (also when the write itself failed — counted in
  /// write_failures).  Refused bytes never touch the directory and return
  /// nullopt — corrupt peer bytes are a typed miss, never a stored lie.
  /// Never throws.
  [[nodiscard]] std::optional<SpillEnvelope> ImportRaw(
      const graph::CanonicalHash& key, std::string_view bytes);

  [[nodiscard]] StoreMetrics Metrics() const;

  /// The `<key-hex>.spill` path an entry lives at (exposed for tests that
  /// corrupt real spill files).
  [[nodiscard]] std::filesystem::path PathFor(
      const graph::CanonicalHash& key) const;

 private:
  /// What Compact needs of a spill.
  struct RlMeta {
    bool rl_dependent = false;
    std::uint64_t rl_version = 0;
  };

  [[nodiscard]] bool Indexed(const graph::CanonicalHash& key) const;
  /// Indexes `meta.key` with its RL meta (the file is on disk).
  void Index(const SpillMeta& meta);
  /// Records the RL meta of an indexed key; no-op when it is not indexed.
  void RecordMeta(const SpillMeta& meta);
  void Unindex(const graph::CanonicalHash& key);

  /// Deletes the file and drops it from the index, counting it against
  /// `counter` (one of the registry-backed members below).
  void Drop(const graph::CanonicalHash& key, const std::filesystem::path& path,
            obs::Counter& counter);

  /// Reads and fully verifies the spill file for `key`, returning its raw
  /// bytes (and the decoded envelope through `envelope` when non-null).
  /// Corruption quarantines the file and returns nullopt.  The shared read
  /// path behind Probe and ExportRaw.
  [[nodiscard]] std::optional<std::string> LoadVerified(
      const graph::CanonicalHash& key, SpillEnvelope* envelope);

  /// Writes `envelope` (whose meta is `meta`) to `<key-hex>.spill` via a
  /// temp file + rename, with Put's retry/backoff schedule.  Counts
  /// write_failures on giving up; the caller counts the success.
  bool WriteEnvelopeAtomic(const SpillMeta& meta, std::string_view envelope);

  std::filesystem::path directory_;

  /// Keys with a (believed) resident spill file, with their RL meta;
  /// nullopt until known (warm-start scan entries not yet read).
  mutable std::mutex index_mutex_;
  std::unordered_map<graph::CanonicalHash, std::optional<RlMeta>,
                     graph::CanonicalHash::Hasher>
      index_;

  std::atomic<std::uint64_t> temp_counter_{0};  // unique temp-file suffixes

  /// Counters live in the caller's registry (DiskStoreOptions::registry);
  /// the references expose the std::atomic fetch_add/load surface.
  /// Declaration order matters: registry_ binds before any counter.
  obs::Registry& registry_;
  obs::Counter& probes_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& writes_;
  obs::Counter& write_failures_;
  obs::Counter& write_retries_;
  obs::Counter& corrupt_dropped_;
  obs::Counter& compacted_;
  obs::Counter& exports_;
  obs::Counter& imports_;
  obs::Counter& import_rejected_;
};

}  // namespace respect::serve::store
