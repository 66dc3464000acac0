#include "net/catalog.h"

#include <filesystem>
#include <system_error>
#include <utility>

namespace xcrypt {
namespace net {

namespace fs = std::filesystem;

BundleCatalog::BundleCatalog(const CatalogOptions& options)
    : options_(options) {}

Result<std::unique_ptr<BundleCatalog>> BundleCatalog::Open(
    const std::string& dir, const CatalogOptions& options) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot read catalog directory " + dir + ": " +
                            ec.message());
  }
  auto catalog = std::make_unique<BundleCatalog>(options);
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".xcr") continue;
    const std::string name = path.stem().string();
    if (name.empty()) continue;
    Slot slot;
    slot.path = path.string();
    catalog->slots_.emplace(name, std::move(slot));
  }
  if (catalog->slots_.empty()) {
    return Status::InvalidArgument("no .xcr bundles in " + dir);
  }
  return catalog;
}

void BundleCatalog::ConfigureEngine(ResidentDb* fresh) const {
  fresh->engine_->SetDataGeneration(fresh->owner_generation());
  obs::MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  if (metrics != nullptr) fresh->engine_->SetMetricsRegistry(metrics);
}

void BundleCatalog::SetMetricsRegistry(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.store(registry, std::memory_order_release);
  evictions_ = registry != nullptr
                   ? registry->GetCounter("catalog.evictions")
                   : nullptr;
  resident_gauge_ = registry != nullptr
                        ? registry->GetGauge("catalog.resident_bytes")
                        : nullptr;
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(ResidentBytesLocked());
  }
}

int64_t BundleCatalog::ResidentBytesLocked() const {
  int64_t total = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot.resident != nullptr && !slot.pinned) {
      total += slot.resident->ResidentBytes();
    }
  }
  return total;
}

int64_t BundleCatalog::ResidentBytesTotal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ResidentBytesLocked();
}

Status BundleCatalog::AddBundle(const std::string& name, HostedBundle bundle) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must not be empty");
  }
  std::unique_lock<std::mutex> lock(mu_);
  // If a disk load of the same name is mid-flight, let it publish first;
  // the pinned bundle then cleanly replaces it.
  load_cv_.wait(lock, [&] {
    auto it = slots_.find(name);
    return it == slots_.end() || !it->second.loading;
  });
  Slot& slot = slots_[name];
  slot.path.clear();
  slot.pinned = true;
  std::shared_ptr<ResidentDb> fresh(new ResidentDb());
  fresh->name_ = name;
  fresh->bundle_ = std::move(bundle);
  fresh->engine_ = std::make_unique<ServerEngine>(&fresh->bundle_.database,
                                                  &fresh->bundle_.metadata);
  ConfigureEngine(fresh.get());
  slot.loads += 1;
  fresh->generation_ = slot.loads;
  slot.resident = std::move(fresh);
  slot.last_used = ++use_tick_;
  return Status::Ok();
}

Result<std::shared_ptr<const ResidentDb>> BundleCatalog::Get(
    const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      // Pure map miss: hostile names ("../…") never reach the filesystem.
      return Status::NotFound("no database named \"" + name + "\"");
    }
    Slot& slot = it->second;
    if (slot.loading) {
      // Another thread is building this engine; wait for it instead of
      // racing a second disk read, then re-resolve from scratch (the slot
      // may have been unloaded meanwhile).
      load_cv_.wait(lock);
      continue;
    }
    if (slot.resident != nullptr && options_.hot_reload && !slot.pinned) {
      // The owner-assigned bundle generation in the file header is the
      // freshness signal (a header-only read, no stat fingerprinting): a
      // same-size rewrite within the filesystem's mtime granularity still
      // reloads, and mtime churn on an unchanged file does not.
      auto header = ReadBundleHeader(slot.path);
      if (header.ok() && header->generation != slot.file_generation) {
        // Owner re-uploaded: unlink the old resident (in-flight handles
        // keep it alive) and fall through to a fresh load.
        slot.resident = nullptr;
        slot.dirty = false;
      }
    }
    if (slot.resident != nullptr) {
      slot.last_used = ++use_tick_;
      std::shared_ptr<const ResidentDb> handle = slot.resident;
      // Mapped residents grow ResidentBytes lazily (index sections fault
      // in after the load, on first query), so the budget is re-checked
      // on every warm hit, not just at load time. `handle` keeps the
      // caller's database alive even if it is the one evicted.
      EvictIfNeeded(name);
      return handle;
    }
    return LoadSlot(lock, name, slot.path);
  }
}

Result<std::shared_ptr<const ResidentDb>> BundleCatalog::LoadSlot(
    std::unique_lock<std::mutex>& lock, const std::string& name,
    const std::string& path) {
  slots_[name].loading = true;
  lock.unlock();

  // Disk read + engine build happen outside the catalog lock: a cold load
  // of one database never stalls queries against the others.
  auto header = ReadBundleHeader(path);
  std::shared_ptr<ResidentDb> fresh;
  Status load_status = Status::Ok();
  if (options_.map_v4 && header.ok() && header->version >= 4) {
    // Format v4: map the image instead of deserializing it. Open reads
    // only the section table + block index; everything else faults in on
    // first query through the lazy engine, so a cold attach of a huge
    // database is near-instant. The name check mirrors LoadBundle's: a
    // mis-filed bundle is rejected rather than served under the wrong
    // tenant.
    auto mapped = MmapBundleReader::Open(path, name);
    if (mapped.ok()) {
      fresh = std::shared_ptr<ResidentDb>(new ResidentDb());
      fresh->name_ = name;
      fresh->mapped_ = std::move(*mapped);
      fresh->bundle_.name = name;
      fresh->engine_ = std::make_unique<ServerEngine>(fresh->mapped_.get());
      ConfigureEngine(fresh.get());
    } else {
      load_status = mapped.status();
    }
  } else {
    // The image must agree with the filename-stem routing: a mis-filed
    // bundle is rejected here rather than served under the wrong tenant.
    auto bundle = LoadBundle(path, name);
    if (bundle.ok()) {
      fresh = std::shared_ptr<ResidentDb>(new ResidentDb());
      fresh->name_ = name;
      fresh->bundle_ = std::move(*bundle);
      fresh->engine_ = std::make_unique<ServerEngine>(
          &fresh->bundle_.database, &fresh->bundle_.metadata);
      ConfigureEngine(fresh.get());
    } else {
      load_status = bundle.status();
    }
  }

  lock.lock();
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    // Unloaded while we were reading; don't resurrect it.
    load_cv_.notify_all();
    return Status::NotFound("database \"" + name + "\" was unloaded");
  }
  Slot& slot = it->second;
  slot.loading = false;
  load_cv_.notify_all();
  if (!load_status.ok()) return load_status;
  slot.loads += 1;
  fresh->generation_ = slot.loads;
  slot.resident = std::move(fresh);
  slot.file_generation = header.ok() ? header->generation : 0;
  slot.dirty = false;
  slot.last_used = ++use_tick_;
  std::shared_ptr<const ResidentDb> handle = slot.resident;
  EvictIfNeeded(name);
  return handle;
}

void BundleCatalog::EvictIfNeeded(const std::string& keep) {
  for (;;) {
    int resident = 0;
    for (const auto& [n, s] : slots_) {
      if (s.resident != nullptr && !s.pinned) ++resident;
    }
    const int64_t bytes = ResidentBytesLocked();
    if (resident_gauge_ != nullptr) resident_gauge_->Set(bytes);
    const bool over_count =
        options_.max_resident > 0 && resident > options_.max_resident;
    const bool over_bytes = options_.memory_budget_bytes > 0 &&
                            bytes > options_.memory_budget_bytes;
    if (!over_count && !over_bytes) return;
    // Drop the least-recently-used unpinned resident (never `keep`,
    // unless `keep` is the only candidate and the byte budget is blown —
    // better to serve it cold-faulting than to let residency run
    // unbounded).
    std::map<std::string, Slot>::iterator victim = slots_.end();
    bool keep_is_candidate = false;
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      const Slot& s = it->second;
      // A dirty resident is ahead of its backing file; evicting it would
      // roll applied deltas back on the next load.
      if (s.resident == nullptr || s.pinned || s.dirty) continue;
      if (it->first == keep) {
        keep_is_candidate = true;
        continue;
      }
      if (victim == slots_.end() ||
          s.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == slots_.end()) {
      if (over_bytes && keep_is_candidate) {
        victim = slots_.find(keep);
      } else {
        return;  // everything protected
      }
    }
    victim->second.resident = nullptr;
    if (evictions_ != nullptr) evictions_->Add();
  }
}

Result<uint64_t> BundleCatalog::ApplyDelta(const std::string& name,
                                           const DeltaBundle& delta) {
  // One applier at a time per catalog; readers are untouched (they hold
  // shared_ptr handles and never see a half-applied state).
  std::lock_guard<std::mutex> apply_lock(apply_mu_);

  auto resident = Get(name);
  if (!resident.ok()) return resident.status();
  if ((*resident)->owner_generation() == delta.new_generation) {
    // Replay of an already-absorbed delta (the owner retried after a
    // dropped ack): nothing to do, answer with the generation it asked
    // for so the retry converges.
    return delta.new_generation;
  }

  // Clone the resident bundle outside the catalog lock. A mapped
  // resident materializes an eager copy from its (immutable) mapping;
  // an eager one round-trips through the image format, because B+-trees
  // are move-only and the format is a lossless carrier of server-visible
  // state.
  Result<HostedBundle> clone = [&]() -> Result<HostedBundle> {
    if ((*resident)->is_mapped()) return (*resident)->mapped()->Materialize();
    const HostedBundle& current = (*resident)->bundle();
    return DeserializeBundle(SerializeBundle(
        current.database, current.metadata, current.name, current.generation));
  }();
  if (!clone.ok()) return clone.status();
  XCRYPT_RETURN_NOT_OK(xcrypt::ApplyDelta(&*clone, delta));

  std::unique_lock<std::mutex> lock(mu_);
  load_cv_.wait(lock, [&] {
    auto it = slots_.find(name);
    return it == slots_.end() || !it->second.loading;
  });
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("database \"" + name + "\" was unloaded");
  }
  Slot& slot = it->second;
  if (slot.resident != nullptr &&
      slot.resident->owner_generation() != delta.base_generation) {
    // The resident moved while we were applying (hot reload of a newer
    // upload). If it already holds this delta's result the apply is a
    // no-op; otherwise the delta no longer has a base to stand on.
    if (slot.resident->owner_generation() == delta.new_generation) {
      return delta.new_generation;
    }
    return Status::InvalidArgument(
        "database \"" + name + "\" moved to generation " +
        std::to_string(slot.resident->owner_generation()) +
        " while a delta from " + std::to_string(delta.base_generation) +
        " was applying");
  }
  const bool was_mapped =
      slot.resident != nullptr && slot.resident->is_mapped();
  std::shared_ptr<ResidentDb> fresh;
  bool dirty = !slot.pinned && !slot.path.empty();
  if (was_mapped && !slot.path.empty()) {
    // Copy-on-write remap: write the applied clone back as a fresh v4
    // image (write-then-rename — readers holding the old mapping keep
    // the old inode alive) and re-open it mapped. The backing file then
    // carries the delta, so the slot is NOT dirty and stays evictable.
    Status saved =
        SaveBundle(clone->database, clone->metadata, slot.path, name,
                   clone->generation, BundleFormat::kV4);
    if (saved.ok()) {
      auto remapped = MmapBundleReader::Open(slot.path, name);
      if (remapped.ok()) {
        fresh = std::shared_ptr<ResidentDb>(new ResidentDb());
        fresh->name_ = name;
        fresh->mapped_ = std::move(*remapped);
        fresh->bundle_.name = name;
        fresh->engine_ = std::make_unique<ServerEngine>(fresh->mapped_.get());
        ConfigureEngine(fresh.get());
        slot.file_generation = clone->generation;
        dirty = false;
      }
    }
    // On any failure fall through to an eager dirty resident: the apply
    // still takes effect in memory, only the backing file lags.
  }
  if (fresh == nullptr) {
    fresh = std::shared_ptr<ResidentDb>(new ResidentDb());
    fresh->name_ = name;
    fresh->bundle_ = std::move(*clone);
    fresh->engine_ = std::make_unique<ServerEngine>(&fresh->bundle_.database,
                                                    &fresh->bundle_.metadata);
    ConfigureEngine(fresh.get());
  }
  slot.loads += 1;
  fresh->generation_ = slot.loads;
  slot.resident = std::move(fresh);
  // Without the remap above, file-backed slots now run ahead of their
  // backing file until the owner uploads a checkpoint (Get's generation
  // check absorbs that cleanly).
  slot.dirty = dirty;
  slot.last_used = ++use_tick_;
  EvictIfNeeded(name);
  return delta.new_generation;
}

Status BundleCatalog::Reload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("no database named \"" + name + "\"");
  }
  if (it->second.pinned) return Status::Ok();  // no file to reload from
  it->second.resident = nullptr;
  return Status::Ok();
}

Status BundleCatalog::Unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("no database named \"" + name + "\"");
  }
  slots_.erase(it);
  load_cv_.notify_all();  // wake waiters so they observe the NotFound
  return Status::Ok();
}

std::vector<std::string> BundleCatalog::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

int BundleCatalog::ResidentCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot.resident != nullptr && !slot.pinned) ++count;
  }
  return count;
}

}  // namespace net
}  // namespace xcrypt
