#include "das/das_system.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "crypto/aes_kernel.h"
#include "xpath/parser.h"

namespace xcrypt {

Result<DasSystem> DasSystem::Host(Document doc,
                                  std::vector<SecurityConstraint> constraints,
                                  SchemeKind kind,
                                  const std::string& master_secret,
                                  const ClientTuning& tuning) {
  XCRYPT_RETURN_NOT_OK(tuning.Validate());
  // Process-wide picks first, before any crypto or pool work runs. Both
  // are best-effort by design: the shared pool's size is fixed once
  // constructed (SetSharedThreads reports but Host does not fail — a
  // second hosted system in one process keeps the first one's pool).
  if (tuning.threads > 0) ThreadPool::SetSharedThreads(tuning.threads);
  SetCryptoKernel(tuning.crypto_kernel);

  DasSystem das;
  das.tuning_ = tuning;
  das.privacy_ = std::make_unique<PrivacyState>();
  das.privacy_->rng =
      tuning.privacy_seed != 0 ? Rng(tuning.privacy_seed) : Rng();
  if (!tuning.shape_log_path.empty()) {
    // A missing file is a first run (empty log); a corrupt one is a real
    // error the owner should hear about rather than silently losing the
    // decoy distribution.
    auto log = privacy::ShapeLog::LoadFromFile(tuning.shape_log_path);
    if (!log.ok()) return log.status();
    das.privacy_->shape_log = std::move(*log);
  }

  auto client = Client::Host(std::move(doc), std::move(constraints), kind,
                             master_secret);
  if (!client.ok()) return client.status();
  das.client_ = std::make_unique<Client>(std::move(*client));
  das.client_->EnableBlockCache(tuning.block_cache_bytes);
  das.server_ = std::make_unique<ServerEngine>(&das.client_->database(),
                                               &das.client_->metadata());

  HostReport& report = das.host_report_;
  report.encrypt_us = das.client_->encrypt_micros();
  report.metadata_us = das.client_->metadata_micros();
  report.ciphertext_bytes = das.client_->database().TotalCiphertextBytes();
  report.skeleton_bytes =
      das.client_->database().skeleton.empty()
          ? 0
          : das.client_->database().skeleton.SubtreeByteSize(
                das.client_->database().skeleton.root());
  report.metadata_bytes = das.client_->metadata().ByteSize();
  report.num_blocks = static_cast<int>(das.client_->database().blocks.size());
  report.scheme_size_nodes =
      das.client_->scheme().SizeInNodes(das.client_->original());
  return das;
}

Status DasSystem::RemoteHandle::Connect(
    const std::string& host, uint16_t port, const std::string& database,
    std::optional<net::RemoteOptions> options) {
  net::RemoteOptions opts = options.value_or(net::RemoteOptions());
  // No explicit options: the connection inherits the system's tuned retry
  // policy, so ClientTuning is the single place retry behavior is set.
  if (!options.has_value()) opts.retry = das_->tuning_.retry;
  if (!database.empty()) opts.database = database;
  auto remote = net::RemoteServerEngine::Connect(host, port, opts);
  if (!remote.ok()) return remote.status();
  // Server-pushed invalidations (wire v5) drop stale decrypted blocks
  // from the client's cache — another owner's delta to the same database
  // must not leave this client answering from old plaintext. The sink
  // points into client_, which outlives remote_ by member order.
  (*remote)->SetInvalidationSink(
      [client = das_->client_.get()](const net::InvalidationEventMsg& event) {
        if (event.drop_all) {
          client->InvalidateAllCachedBlocks();
          return;
        }
        std::vector<int> ids;
        ids.reserve(event.blocks.size());
        for (const BlockAdvert& advert : event.blocks) {
          ids.push_back(advert.id);
        }
        client->InvalidateCachedBlocks(ids);
      });
  // Retried requests rebuild their cache advert from the LIVE cache: an
  // invalidation landing mid-backoff (via the sink above) must shrink the
  // advert before the re-send, not leave the retry promising blocks the
  // client already dropped. The refresher only ever removes entries — it
  // filters the attempt's original advert, never adds to it.
  (*remote)->SetAdvertRefresher(
      [client = das_->client_.get()](std::vector<BlockAdvert> adverts) {
        const BlockCache* cache = client->block_cache();
        std::vector<BlockAdvert> live;
        live.reserve(adverts.size());
        for (const BlockAdvert& advert : adverts) {
          if (cache != nullptr &&
              cache->Get(advert.id, advert.generation) != nullptr) {
            live.push_back(advert);
          }
        }
        return live;
      });
  das_->remote_ = std::move(*remote);
  if (das_->tuning_.privacy.pir_threshold_bytes > 0) {
    std::lock_guard<std::mutex> lock(das_->privacy_->mu);
    das_->privacy_->fetcher = std::make_unique<privacy::SectionFetcher>(
        das_->remote_.get(), das_->tuning_.privacy.pir_threshold_bytes,
        das_->tuning_.privacy_seed);
  }
  // Adopt the daemon's resident generation so the first pushed delta is
  // built against the server's actual base — the daemon may serve an
  // older image of this document.
  auto stats = das_->remote_->Stats();
  if (stats.ok() && !stats->database.empty()) {
    das_->bundle_generation_ = stats->db_generation;
  }
  return Status::Ok();
}

void DasSystem::RemoteHandle::Disconnect() {
  {
    // The fetcher holds the stub as its transport; drop it first.
    std::lock_guard<std::mutex> lock(das_->privacy_->mu);
    das_->privacy_->fetcher.reset();
  }
  das_->remote_.reset();
}

const std::string& DasSystem::RemoteHandle::database() const {
  static const std::string kEmpty;
  return das_->remote_ ? das_->remote_->database() : kEmpty;
}

Result<net::NetStats> DasSystem::RemoteHandle::Stats() const {
  if (das_->remote_ == nullptr) {
    return Status::InvalidArgument("no remote endpoint attached");
  }
  return das_->remote_->Stats();
}

Result<PathExpr> DasSystem::ResolveQuery(const PathExpr& query) {
  return query;
}

Result<PathExpr> DasSystem::ResolveQuery(const std::string& xpath) {
  return ParseXPath(xpath);
}

Result<PathExpr> DasSystem::ResolveQuery(const char* xpath) {
  return ParseXPath(xpath);
}

namespace {

/// The context one run records into: the caller's (its deadline kept),
/// with `local` standing in when the caller brought no trace.
obs::QueryContext RecordingContext(const obs::QueryContext* caller,
                                   obs::Trace* local) {
  obs::QueryContext ctx = caller != nullptr ? *caller : obs::QueryContext();
  if (ctx.trace == nullptr) ctx.trace = local;
  return ctx;
}

}  // namespace

double QueryCosts::*CostFieldOf(std::string_view span_name) {
  static constexpr std::pair<std::string_view, double QueryCosts::*>
      kFields[] = {
          {"translate", &QueryCosts::client_translate_us},
          {"server", &QueryCosts::server_process_us},
          {"covers", &QueryCosts::server_process_us},
          {"transmit", &QueryCosts::transmission_us},
          {"pir-fetch", &QueryCosts::transmission_us},
          {"decrypt", &QueryCosts::decrypt_us},
          {"cache-probe", &QueryCosts::postprocess_us},
          {"skeleton-parse", &QueryCosts::postprocess_us},
          {"cache-fill", &QueryCosts::postprocess_us},
          {"splice", &QueryCosts::postprocess_us},
          {"postprocess", &QueryCosts::postprocess_us},
      };
  for (const auto& [name, field] : kFields) {
    if (name == span_name) return field;
  }
  return nullptr;
}

QueryCosts CostsFromTrace(const obs::Trace& trace) {
  const std::vector<obs::SpanRecord>& spans = trace.spans();
  // A span inside a charged span is part of its time (the server's phases).
  auto inside_charged = [&spans](int parent) {
    for (int p = parent; p >= 0; p = spans[p].parent) {
      if (CostFieldOf(spans[p].name) != nullptr) return true;
    }
    return false;
  };
  QueryCosts costs;
  for (const obs::SpanRecord& span : spans) {
    double QueryCosts::*field = CostFieldOf(span.name);
    if (field != nullptr && span.closed && !inside_charged(span.parent)) {
      costs.*field += span.elapsed_us;
    }
  }
  return costs;
}

void DasSystem::RecordSimulatedWire(const EngineCallStats& stats,
                                    int64_t bytes, obs::Trace* trace) const {
  if (stats.transport == EngineCallStats::Transport::kInProcess) {
    trace->Record("transmit", link().EstimateUs(bytes), obs::Trace::kNoParent);
  }
}

Result<QueryRun> DasSystem::ExecutePath(const PathExpr& query,
                                        obs::QueryContext* caller) const {
  obs::Trace local;
  obs::QueryContext ctx = RecordingContext(caller, &local);
  obs::Trace* trace = ctx.trace;
  obs::Span translate(trace, "translate");
  auto translated = client_->Translate(query);
  translate.End();
  if (!translated.ok()) return translated.status();

  // Advertise cached blocks with the query; payloads stay pinned until
  // post-processing so a concurrent eviction cannot orphan a stub.
  const CachedBlockSet cache_set = client_->AdvertiseCachedBlocks(trace);
  ExecOptions exec;
  exec.ctx = &ctx;
  exec.cached_blocks = cache_set.adverts;
  exec.privacy = tuning_.privacy;
  // Decoy batching (wire v7): sample covers from the local shape history,
  // then record this query into it — in that order, so a query never
  // covers for itself. Only a remote engine has a wire observer to hide
  // from; in-process the covers would be dead weight.
  std::vector<TranslatedQuery> covers;
  if (tuning_.privacy.decoys > 0 && remote_ != nullptr) {
    covers = SampleCoversAndRecord(*translated, tuning_.privacy.decoys);
    exec.cover_queries = covers;
  }
  auto result = engine().Execute(*translated, exec);
  if (!result.ok()) return result.status();
  XCRYPT_RETURN_NOT_OK(PirSpotCheck(result->response, trace));

  return Finish(query, std::move(*result), std::move(*translated), trace,
                &cache_set);
}

Result<QueryRun> DasSystem::ExecuteNaivePath(const PathExpr& query,
                                             obs::QueryContext* caller) const {
  obs::Trace local;
  obs::QueryContext ctx = RecordingContext(caller, &local);
  ExecOptions exec;
  exec.ctx = &ctx;
  auto result = engine().ExecuteNaive(exec);
  if (!result.ok()) return result.status();
  return Finish(query, std::move(*result), TranslatedQuery{}, ctx.trace);
}

Result<AggregateRun> DasSystem::ExecuteAggregatePath(
    const PathExpr& path, AggregateKind kind,
    obs::QueryContext* caller) const {
  obs::Trace local;
  obs::QueryContext ctx = RecordingContext(caller, &local);
  obs::Trace* trace = ctx.trace;
  obs::Span translate(trace, "translate");
  auto translated = client_->Translate(path);
  if (!translated.ok()) return translated.status();
  auto token = client_->AggregateIndexToken(path);
  if (!token.ok()) return token.status();
  translate.End();

  const CachedBlockSet cache_set = client_->AdvertiseCachedBlocks(trace);
  ExecOptions exec;
  exec.ctx = &ctx;
  exec.cached_blocks = cache_set.adverts;
  auto result = engine().ExecuteAggregate(*translated, kind, *token, exec);
  if (!result.ok()) return result.status();
  const AggregateResponse& response = result->response;
  const int64_t bytes = response.payload.TotalBytes() +
                        static_cast<int64_t>(response.server_value.size());
  RecordSimulatedWire(result->stats, bytes, trace);

  auto answer = client_->FinishAggregate(path, response, trace, &cache_set);
  if (!answer.ok()) return answer.status();

  AggregateRun run;
  run.answer = std::move(*answer);
  run.costs = CostsFromTrace(*trace);
  run.costs.bytes_shipped = bytes;
  run.costs.blocks_shipped = static_cast<int>(response.payload.blocks.size());
  run.engine_stats = std::move(result->stats);
  return run;
}

std::vector<TranslatedQuery> DasSystem::SampleCoversAndRecord(
    const TranslatedQuery& real, int decoys) const {
  PrivacyState& state = *privacy_;
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<TranslatedQuery> covers =
      state.shape_log.SampleMany(decoys, state.rng);
  state.shape_log.Record(real);
  if (!tuning_.shape_log_path.empty() && ++state.records_since_save >= 32) {
    // Best-effort periodic persistence; a failed save never fails the
    // query (the log is an optimization of cover quality, not state).
    if (state.shape_log.SaveToFile(tuning_.shape_log_path).ok()) {
      state.records_since_save = 0;
    }
  }
  return covers;
}

Status DasSystem::PirSpotCheck(const ServerResponse& response,
                               obs::Trace* trace) const {
  if (remote_ == nullptr || response.blocks.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(privacy_->mu);
  privacy::SectionFetcher* fetcher = privacy_->fetcher.get();
  if (fetcher == nullptr) return Status::Ok();
  // Cross-check one shipped block against the server's own block-meta
  // section, fetched through the PIR path — under the threshold the
  // server cannot even see which block the client audited.
  const EncryptedBlock& block = response.blocks.front();
  if (block.id < 0) return Status::Ok();
  obs::Span pir(trace, "pir-fetch");
  auto record =
      fetcher->Fetch(privacy::kBlockMetaSection,
                     static_cast<uint32_t>(block.id));
  pir.End();
  if (!record.ok()) return record.status();
  obs::MetricsRegistry::Global().GetCounter("privacy.pir_fetches")->Add(1);
  if (record->size() < privacy::kBlockMetaRecordBytes) {
    return Status::Corruption("block-meta record truncated");
  }
  auto u32_at = [&record](size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>((*record)[offset + i]) << (8 * i);
    }
    return v;
  };
  const uint32_t meta_generation = u32_at(0);
  const uint32_t meta_size = u32_at(4);
  // A generation mismatch is a benign race (an update landed between the
  // section build and this query); a size mismatch at the SAME generation
  // means the server's metadata disagrees with what it shipped.
  if (meta_generation == block.generation &&
      meta_size != block.ciphertext.size()) {
    return Status::Corruption("block-meta size disagrees with shipped block");
  }
  return Status::Ok();
}

size_t DasSystem::shape_log_size() const {
  std::lock_guard<std::mutex> lock(privacy_->mu);
  return privacy_->shape_log.size();
}

Status DasSystem::SaveShapeLog() const {
  if (tuning_.shape_log_path.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(privacy_->mu);
  return privacy_->shape_log.SaveToFile(tuning_.shape_log_path);
}

Status DasSystem::PropagateUpdate(const DeltaBuilder& builder) {
  // The in-process engine always tracks the mutated bundle (its caches —
  // the interval universe — are rebuilt), whether or not queries are
  // currently routed remotely.
  server_ = std::make_unique<ServerEngine>(&client_->database(),
                                           &client_->metadata());
  if (builder.empty()) return Status::Ok();  // no-op batch: nothing moved
  const uint64_t base = bundle_generation_;
  bundle_generation_ = base + 1;
  // Fresh engine, fresh (empty) plan cache — stamping the generation keeps
  // its cache keys aligned with what a remote daemon would compute.
  server_->SetDataGeneration(bundle_generation_);
  if (remote_ == nullptr) return Status::Ok();
  // Ship exactly this batch's side effects. PushDelta retries transient
  // failures; the daemon recognizes a replayed generation and applies the
  // delta at most once.
  const DeltaBundle delta = builder.Build(remote_->database(), base);
  auto generation = remote_->PushDelta(SerializeDelta(delta));
  if (!generation.ok()) return generation.status();
  bundle_generation_ = *generation;
  return Status::Ok();
}

Result<int> DasSystem::UpdateValues(const std::string& xpath,
                                    const std::string& value) {
  auto path = ParseXPath(xpath);
  if (!path.ok()) return path.status();
  DeltaBuilder builder(client_.get());
  auto updated = builder.UpdateValues(*path, value);
  if (!updated.ok()) return updated.status();
  XCRYPT_RETURN_NOT_OK(PropagateUpdate(builder));
  return updated;
}

Status DasSystem::InsertSubtree(const std::string& parent_xpath,
                                const Document& fragment) {
  auto path = ParseXPath(parent_xpath);
  if (!path.ok()) return path.status();
  DeltaBuilder builder(client_.get());
  XCRYPT_RETURN_NOT_OK(builder.InsertSubtree(*path, fragment));
  return PropagateUpdate(builder);
}

Result<int> DasSystem::DeleteSubtrees(const std::string& xpath) {
  auto path = ParseXPath(xpath);
  if (!path.ok()) return path.status();
  DeltaBuilder builder(client_.get());
  auto removed = builder.DeleteSubtrees(*path);
  if (!removed.ok()) return removed.status();
  XCRYPT_RETURN_NOT_OK(PropagateUpdate(builder));
  return removed;
}

Result<HostedBundle> DasSystem::ExportBundle(const std::string& name) const {
  // B+-trees are move-only, so the copy goes through the (lossless for
  // server-visible state) image format.
  return DeserializeBundle(SerializeBundle(client_->database(),
                                           client_->metadata(), name,
                                           bundle_generation_));
}

Result<QueryRun> DasSystem::Finish(const PathExpr& query,
                                   EngineQueryResult engine_run,
                                   TranslatedQuery translated,
                                   obs::Trace* trace,
                                   const CachedBlockSet* cache_set) const {
  const ServerResponse& response = engine_run.response;
  RecordSimulatedWire(engine_run.stats, response.TotalBytes(), trace);
  auto answer = client_->PostProcess(query, response, trace, cache_set);
  if (!answer.ok()) return answer.status();

  QueryRun run;
  run.answer = std::move(*answer);
  run.costs = CostsFromTrace(*trace);
  run.costs.bytes_shipped = response.TotalBytes();
  run.costs.blocks_shipped = static_cast<int>(response.blocks.size());
  run.translated = std::move(translated);
  run.engine_stats = std::move(engine_run.stats);
  return run;
}

}  // namespace xcrypt
