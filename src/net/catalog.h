#ifndef XCRYPT_NET_CATALOG_H_
#define XCRYPT_NET_CATALOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/server.h"
#include "storage/mmap_bundle.h"
#include "storage/serializer.h"
#include "storage/update/delta.h"

namespace xcrypt {
namespace net {

struct CatalogOptions {
  CatalogOptions() {}
  /// Upper bound on file-backed databases resident in memory at once
  /// (<= 0 = unbounded). When a lazy load would exceed it, the
  /// least-recently-used unpinned database is evicted; in-flight queries
  /// holding its handle finish unharmed (shared_ptr pinning).
  int max_resident = 8;
  /// Re-read the backing file's header on every Get and transparently
  /// reload when its owner-assigned bundle generation changed — an
  /// updated bundle file swaps in without restarting the daemon.
  bool hot_reload = true;
  /// Open format-v4 images through MmapBundleReader instead of an eager
  /// deserialize: index sections fault in on first query and block
  /// payloads are served straight from the mapping. v3 images always
  /// load eagerly regardless of this flag.
  bool map_v4 = true;
  /// Upper bound, in bytes, on the summed ResidentBytes() of unpinned
  /// residents (<= 0 = unbounded). Checked alongside max_resident: when
  /// the sum exceeds it, LRU residents are dropped (mapped ones unmap
  /// their heap-materialized index state; a later Get faults it back in).
  /// Payload pages mapped from v4 images are clean page cache and are
  /// NOT charged — the kernel reclaims those on its own under pressure.
  int64_t memory_budget_bytes = 0;
};

/// One database resident in memory: the hosted bundle plus the engine
/// built over it. Handed out as shared_ptr<const ResidentDb>, so a reload
/// or eviction only unlinks it from the catalog — every in-flight query
/// keeps its engine (and the bundle the engine points into) alive until
/// the last handle drops.
class ResidentDb {
 public:
  const std::string& name() const { return name_; }
  /// Catalog-assigned generation: 1 on first load, bumped on every
  /// reload of the same name. (The bundle's own owner-assigned
  /// generation, if any, is at owner_generation().)
  uint64_t generation() const { return generation_; }
  /// The eagerly-deserialized bundle. Only meaningful when !is_mapped();
  /// a mapped resident keeps its state in the file mapping and this is
  /// an empty shell — go through the accessors below instead.
  const HostedBundle& bundle() const { return bundle_; }
  const ServerEngine& engine() const { return *engine_; }

  /// True when this resident serves straight from a format-v4 mapping.
  bool is_mapped() const { return mapped_ != nullptr; }
  const MmapBundleReader* mapped() const { return mapped_.get(); }

  /// Owner-assigned bundle generation.
  /// Works for both mapped and eager residents — this, not
  /// bundle().generation, is what freshness/replay checks compare.
  uint64_t owner_generation() const {
    return mapped_ != nullptr ? mapped_->generation() : bundle_.generation;
  }
  size_t num_blocks() const {
    return mapped_ != nullptr ? mapped_->BlockCount()
                              : bundle_.database.blocks.size();
  }
  int64_t ciphertext_bytes() const {
    return mapped_ != nullptr ? mapped_->TotalCiphertextBytes()
                              : bundle_.database.TotalCiphertextBytes();
  }
  /// Heap bytes this resident pins — what the catalog's memory budget
  /// charges. Eager residents count ciphertext + metadata; mapped ones
  /// count only index state materialized so far (payloads stay in the
  /// kernel's reclaimable page cache).
  int64_t ResidentBytes() const {
    if (mapped_ != nullptr) return mapped_->ResidentBytes();
    return bundle_.database.TotalCiphertextBytes() +
           static_cast<int64_t>(bundle_.metadata.ByteSize());
  }

 private:
  friend class BundleCatalog;
  ResidentDb() = default;

  std::string name_;
  uint64_t generation_ = 0;
  HostedBundle bundle_;
  /// Non-null for a mapped (format-v4, lazy) resident; the engine then
  /// reads through the mapping instead of bundle_.
  std::unique_ptr<MmapBundleReader> mapped_;
  /// Built over bundle_'s database/metadata (or over mapped_); neither
  /// must move after construction (ResidentDb is heap-pinned via
  /// shared_ptr).
  std::unique_ptr<ServerEngine> engine_;
};

/// Maps database names to lazily-loaded ServerEngines — the multi-tenant
/// heart of xcrypt_serve. Names come from a directory scan (one `.xcr`
/// bundle file per database, name = filename stem) and/or in-memory
/// bundles pinned with AddBundle. Lookup is a pure map probe: a request
/// can only ever reach a pre-scanned path, so hostile names ("../…")
/// fail with NotFound instead of touching the filesystem.
///
/// Thread-safe. A database is loaded (disk read + engine build) outside
/// the catalog lock, with a per-slot loading latch so concurrent Gets for
/// the same cold name wait for one load instead of racing N.
class BundleCatalog {
 public:
  explicit BundleCatalog(const CatalogOptions& options = CatalogOptions());

  BundleCatalog(const BundleCatalog&) = delete;
  BundleCatalog& operator=(const BundleCatalog&) = delete;

  /// Scans `dir` for `*.xcr` bundle files and registers each as a
  /// database named after its filename stem (nothing is loaded yet).
  /// Fails with NotFound if the directory cannot be read and with
  /// InvalidArgument if it holds no bundles.
  static Result<std::unique_ptr<BundleCatalog>> Open(
      const std::string& dir, const CatalogOptions& options = CatalogOptions());

  /// Registers an in-memory bundle under `name`. Pinned: never evicted,
  /// never hot-reloaded (there is no file to watch). Replaces an existing
  /// entry of the same name, bumping its generation.
  Status AddBundle(const std::string& name, HostedBundle bundle);

  /// Resolves a database, loading (or hot-reloading) it as needed. The
  /// returned handle stays valid — engine included — even if the entry is
  /// evicted or reloaded while the caller still computes with it.
  Result<std::shared_ptr<const ResidentDb>> Get(const std::string& name);

  /// Applies a delta bundle to the resident database `name`, advancing it
  /// by one generation in place: the current resident is cloned, the
  /// delta applied to the clone (all-or-nothing validation), and the
  /// result published as a fresh resident. Pinned readers keep the old
  /// ResidentDb alive via their shared_ptr; new Gets see the new one.
  /// Returns the bundle generation after the apply — also for an
  /// idempotent replay (delta already absorbed), which changes nothing.
  Result<uint64_t> ApplyDelta(const std::string& name,
                              const DeltaBundle& delta);

  /// Forces the next Get of `name` to reload from disk (no-op for pinned
  /// in-memory entries). In-flight handles are unaffected.
  Status Reload(const std::string& name);

  /// Removes `name` from the catalog entirely. In-flight handles are
  /// unaffected.
  Status Unload(const std::string& name);

  /// All registered database names, sorted.
  std::vector<std::string> List() const;

  /// How many file-backed databases are resident right now (pinned
  /// in-memory entries excluded) — the number the LRU bound applies to.
  int ResidentCount() const;

  /// Summed ResidentBytes() of unpinned residents right now — the value
  /// the memory budget is enforced against (also exported as the
  /// `catalog.resident_bytes` gauge).
  int64_t ResidentBytesTotal() const;

  /// Points the plan-cache counters of every engine built from now on at
  /// `registry` (the daemon's per-instance registry), and interns the
  /// catalog's own instruments there (`catalog.evictions` counter,
  /// `catalog.resident_bytes` gauge). Engines already resident are
  /// unaffected; set this before serving.
  void SetMetricsRegistry(obs::MetricsRegistry* registry);

 private:
  struct Slot {
    std::string path;    ///< backing file; empty = in-memory pinned entry
    bool pinned = false;
    bool loading = false;  ///< a thread is off building this engine
    uint64_t loads = 0;    ///< completed loads; source of generation()
    uint64_t last_used = 0;
    /// The header generation of `path` at load time. A mismatch on Get
    /// means the owner re-uploaded → hot reload.
    uint64_t file_generation = 0;
    /// The resident carries delta applies the backing file has not
    /// absorbed yet. A dirty resident must not be evicted (reloading the
    /// stale file would silently roll the updates back).
    bool dirty = false;
    std::shared_ptr<const ResidentDb> resident;  ///< null = not loaded
  };

  /// Loads `name` from `path`: sets the slot's loading latch, drops the
  /// lock for the disk read + engine build, re-locks to publish.
  Result<std::shared_ptr<const ResidentDb>> LoadSlot(
      std::unique_lock<std::mutex>& lock, const std::string& name,
      const std::string& path);

  /// Drops LRU unpinned residents until both bounds hold — max_resident
  /// (count) and memory_budget_bytes (summed ResidentBytes) — and
  /// refreshes the resident-bytes gauge (mu_ held). `keep` survives even
  /// if it is the oldest.
  void EvictIfNeeded(const std::string& keep);

  /// Summed ResidentBytes() of unpinned residents (mu_ held).
  int64_t ResidentBytesLocked() const;

  /// Stamps a freshly built engine with its bundle's owner generation
  /// (plan-cache keying; a reload to a new generation starts with an empty
  /// cache) and the daemon's metrics registry.
  void ConfigureEngine(ResidentDb* fresh) const;

  CatalogOptions options_;
  /// Registry for engines built after SetMetricsRegistry; atomic because
  /// LoadSlot builds engines outside mu_.
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};
  /// Catalog-level instruments interned from the registry (stable
  /// pointers for the registry's lifetime); touched only under mu_.
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* resident_gauge_ = nullptr;
  /// Serializes delta appliers per catalog (applies are rare relative to
  /// reads; readers never take this). Held across the clone + apply.
  std::mutex apply_mu_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  uint64_t use_tick_ = 0;
  std::map<std::string, Slot> slots_;
};

}  // namespace net
}  // namespace xcrypt

#endif  // XCRYPT_NET_CATALOG_H_
