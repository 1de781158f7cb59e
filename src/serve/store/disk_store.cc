#include "serve/store/disk_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/respect.h"
#include "obs/trace.h"
#include "serve/store/spill_codec.h"

namespace respect::serve::store {
namespace {

constexpr const char* kSpillExtension = ".spill";

/// Spill write attempts before Put gives up (transient ENOSPC/EIO often
/// clears within milliseconds), and the backoff before the first retry;
/// each further retry waits twice as long.
constexpr int kWriteAttempts = 3;
constexpr int kWriteRetryBackoffMs = 2;

/// Reads a whole file into a string.  Throws std::runtime_error when the
/// file cannot be opened or read.
std::string ReadFileBytes(const std::filesystem::path& path) {
  // Chaos seam: an injected read error takes the same quarantine-and-miss
  // path a real EIO would.
  RESPECT_FAILPOINT("store.read");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("spill: cannot open");
  std::ostringstream os(std::ios::binary);
  os << is.rdbuf();
  if (!is && !is.eof()) throw std::runtime_error("spill: read failed");
  return std::move(os).str();
}

obs::Registry& RequireRegistry(const DiskStoreOptions& options) {
  if (options.registry == nullptr) {
    throw std::invalid_argument("DiskStore: a metrics registry is required");
  }
  return *options.registry;
}

}  // namespace

DiskStore::DiskStore(const DiskStoreOptions& options)
    : directory_(options.directory),
      registry_(RequireRegistry(options)),
      probes_(registry_.GetCounter("respect_store_probes_total",
                                    "Disk-store probes")),
      hits_(registry_.GetCounter("respect_store_hits_total",
                                  "Disk-store verified hits")),
      misses_(registry_.GetCounter("respect_store_misses_total",
                                    "Disk-store misses")),
      writes_(registry_.GetCounter("respect_store_writes_total",
                                    "Spill files published")),
      write_failures_(registry_.GetCounter(
          "respect_store_write_failures_total",
          "Spill writes abandoned after every retry")),
      write_retries_(registry_.GetCounter("respect_store_write_retries_total",
                                           "Spill write attempts retried")),
      corrupt_dropped_(registry_.GetCounter(
          "respect_store_corrupt_dropped_total",
          "Spill files quarantined as corrupt or mismatched")),
      compacted_(registry_.GetCounter(
          "respect_store_compacted_total",
          "Spill files reclaimed by Compact (stale RL version)")),
      exports_(registry_.GetCounter("respect_store_exports_total",
                                     "Raw envelopes served to fleet peers")),
      imports_(registry_.GetCounter("respect_store_imports_total",
                                     "Peer envelopes verified and published")),
      import_rejected_(registry_.GetCounter(
          "respect_store_import_rejected_total",
          "Peer envelopes refused at verification")) {
  if (directory_.empty()) {
    throw std::runtime_error("DiskStore: empty cache directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw std::runtime_error("DiskStore: cannot create " +
                             directory_.string() + ": " + ec.message());
  }
  // Warm-start scan: index by file name only (32 hex digits + ".spill");
  // contents are verified at first probe.  Leftover temp files from a
  // crashed writer are swept; foreign files are ignored.
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path& path = entry.path();
    if (path.extension() == ".tmp") {
      std::filesystem::remove(path, ec);
      continue;
    }
    if (path.extension() != kSpillExtension) continue;
    const std::string stem = path.stem().string();
    const auto key = graph::CanonicalHash::FromHex(stem);
    // Only the canonical (lowercase) spelling is indexed: PathFor always
    // rebuilds that spelling, so an uppercase-named copy would be indexed
    // yet unreachable — treat it as a foreign file instead.
    if (!key || key->ToHex() != stem) continue;
    index_.emplace(*key, std::nullopt);
  }
}

std::filesystem::path DiskStore::PathFor(
    const graph::CanonicalHash& key) const {
  return directory_ / (key.ToHex() + kSpillExtension);
}

bool DiskStore::Indexed(const graph::CanonicalHash& key) const {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  return index_.contains(key);
}

void DiskStore::Index(const SpillMeta& meta) {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  index_.insert_or_assign(meta.key,
                          RlMeta{meta.rl_dependent, meta.rl_version});
}

void DiskStore::RecordMeta(const SpillMeta& meta) {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  const auto it = index_.find(meta.key);
  if (it != index_.end()) {
    it->second = RlMeta{meta.rl_dependent, meta.rl_version};
  }
}

void DiskStore::Unindex(const graph::CanonicalHash& key) {
  const std::lock_guard<std::mutex> lock(index_mutex_);
  index_.erase(key);
}

void DiskStore::Drop(const graph::CanonicalHash& key,
                     const std::filesystem::path& path,
                     obs::Counter& counter) {
  std::error_code ec;
  std::filesystem::remove(path, ec);  // best effort; the index is the truth
  Unindex(key);
  counter.fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::string> DiskStore::LoadVerified(
    const graph::CanonicalHash& key, SpillEnvelope* envelope) {
  OBS_SPAN("store.read");
  const std::filesystem::path path = PathFor(key);
  std::string bytes;
  SpillEnvelope loaded;
  try {
    bytes = ReadFileBytes(path);
    loaded = DecodeSpillEnvelope(bytes);
  } catch (const std::exception&) {
    // Truncated, bit-flipped, wrong version, vanished — all the same clean
    // miss: quarantine (delete) the file so it is never re-probed.
    Drop(key, path, corrupt_dropped_);
    return std::nullopt;
  }
  if (loaded.meta.key != key) {
    // A file whose envelope answers a different request than its name
    // claims (e.g. a renamed spill) must never be served.
    Drop(key, path, corrupt_dropped_);
    return std::nullopt;
  }
  RecordMeta(loaded.meta);
  if (envelope != nullptr) *envelope = std::move(loaded);
  return bytes;
}

ResultPtr DiskStore::Probe(const graph::CanonicalHash& key) {
  probes_.fetch_add(1, std::memory_order_relaxed);
  if (!Indexed(key)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  SpillEnvelope envelope;
  if (!LoadVerified(key, &envelope)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return envelope.result;
}

bool DiskStore::WriteEnvelopeAtomic(const SpillMeta& meta,
                                    std::string_view envelope) {
  OBS_SPAN("store.write");
  // Transient I/O failures (ENOSPC racing a cleanup, EIO blips) often clear
  // within milliseconds: retry with doubling backoff before giving the
  // spill up.  Every attempt writes its own temp file and removes it on
  // failure — no litter however an attempt dies.
  const std::filesystem::path final_path = PathFor(meta.key);
  int backoff_ms = kWriteRetryBackoffMs;
  for (int attempt = 0; attempt < kWriteAttempts; ++attempt) {
    const std::filesystem::path temp_path =
        final_path.string() + "." +
        std::to_string(temp_counter_.fetch_add(1, std::memory_order_relaxed)) +
        ".tmp";
    try {
      {
        std::ofstream os(temp_path, std::ios::binary | std::ios::trunc);
        if (!os) throw std::runtime_error("cannot open temp file");
        RESPECT_FAILPOINT("store.write");
        os.write(envelope.data(),
                 static_cast<std::streamsize>(envelope.size()));
        os.flush();
        if (!os) throw std::runtime_error("write failed");
      }
      // Atomic publish: readers see the old complete file or the new one,
      // never a partial write.
      RESPECT_FAILPOINT("store.rename");
      std::filesystem::rename(temp_path, final_path);
      Index(meta);
      return true;
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove(temp_path, ec);
      if (attempt + 1 == kWriteAttempts) {
        write_failures_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      write_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
  }
  return false;
}

void DiskStore::Put(const SpillMeta& meta, const ResultPtr& result) {
  if (result == nullptr) return;
  std::string envelope;
  try {
    envelope = EncodeSpillEnvelope(meta, *result);
  } catch (...) {
    // Serialization failures are deterministic — retrying cannot help.
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (WriteEnvelopeAtomic(meta, envelope)) {
    writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<std::string> DiskStore::ExportRaw(
    const graph::CanonicalHash& key) {
  if (!Indexed(key)) return std::nullopt;
  std::optional<std::string> bytes = LoadVerified(key, nullptr);
  if (bytes) exports_.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

std::optional<SpillEnvelope> DiskStore::ImportRaw(
    const graph::CanonicalHash& key, std::string_view bytes) {
  std::optional<SpillEnvelope> envelope = TryDecodeSpillEnvelope(bytes);
  if (!envelope || envelope->meta.key != key) {
    // Corrupt, mismatched, or other-format peer bytes never touch disk:
    // the caller sees a refusal, the directory keeps only verified truth.
    import_rejected_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (WriteEnvelopeAtomic(envelope->meta, bytes)) {
    imports_.fetch_add(1, std::memory_order_relaxed);
  }
  return envelope;
}

std::size_t DiskStore::Compact(std::uint64_t live_rl_version) {
  OBS_SPAN("store.compact");
  const auto stale = [live_rl_version](const RlMeta& meta) {
    // The request key folds the snapshot version in, so no future request
    // can reach such an entry.
    return meta.rl_dependent && meta.rl_version != live_rl_version;
  };
  std::vector<graph::CanonicalHash> stale_keys;
  std::vector<graph::CanonicalHash> unknown_keys;
  {
    const std::lock_guard<std::mutex> lock(index_mutex_);
    for (const auto& [key, meta] : index_) {
      if (!meta) {
        unknown_keys.push_back(key);
      } else if (stale(*meta)) {
        stale_keys.push_back(key);
      }
    }
  }
  std::size_t removed = 0;
  // Spills the warm-start scan found: read the header once and record it.
  for (const graph::CanonicalHash& key : unknown_keys) {
    const std::filesystem::path path = PathFor(key);
    SpillMeta meta;
    try {
      std::ifstream is(path, std::ios::binary);
      if (!is) throw std::runtime_error("spill: cannot open");
      meta = DecodeSpillMeta(is);
    } catch (const std::exception&) {
      Drop(key, path, corrupt_dropped_);
      ++removed;
      continue;
    }
    if (meta.key != key) {  // renamed/mismatched envelope
      Drop(key, path, corrupt_dropped_);
      ++removed;
      continue;
    }
    RecordMeta(meta);
    if (stale(RlMeta{meta.rl_dependent, meta.rl_version})) {
      stale_keys.push_back(key);
    }
  }
  for (const graph::CanonicalHash& key : stale_keys) {
    Drop(key, PathFor(key), compacted_);
    ++removed;
  }
  return removed;
}

StoreMetrics DiskStore::Metrics() const {
  StoreMetrics metrics;
  metrics.writes = writes_.load(std::memory_order_relaxed);
  metrics.write_failures = write_failures_.load(std::memory_order_relaxed);
  metrics.corrupt_dropped = corrupt_dropped_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(index_mutex_);
    metrics.resident = index_.size();
  }
  return metrics;
}

}  // namespace respect::serve::store
