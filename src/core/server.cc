#include "core/server.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <functional>
#include <map>
#include <mutex>

#include "common/random.h"
#include "common/thread_pool.h"
#include "index/structural_join.h"
#include "storage/mmap_bundle.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"

namespace xcrypt {

int64_t ServerResponse::TotalBytes() const {
  int64_t total = static_cast<int64_t>(skeleton_xml.size());
  for (const EncryptedBlock& b : blocks) total += b.CiphertextBytes();
  total += static_cast<int64_t>(cached_ids.size()) * 4;  // id-only stubs
  return total;
}

namespace {

bool IsRootInterval(const Interval& iv) {
  return iv.min == 0.0 && iv.max == 1.0;
}

/// Strict non-negative integer parse of a block-marker id attribute.
/// Returns -1 on anything malformed (sign, trailing junk, overflow, empty)
/// instead of std::atoi's silent 0.
int ParseBlockId(const std::string& text) {
  int value = -1;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || value < 0) return -1;
  return value;
}

/// Candidate count from which the predicate batch fans its re-chains out
/// over the shared pool.
constexpr int kBatchParallelCutoff = 16;

/// Ship-root count from which response marking fans out.
constexpr size_t kAssembleParallelCutoff = 64;

}  // namespace

ServerEngine::ServerEngine(const EncryptedDatabase* db, const Metadata* meta) {
  db_ = db;
  meta_ = meta;
  BuildIndexes();
  ready_.store(true, std::memory_order_release);
}

ServerEngine::ServerEngine(const MmapBundleReader* mapped) : mapped_(mapped) {}

void ServerEngine::BuildIndexes() const {
  universe_ = meta_->dsi_table.AllIntervals();
  forest_ = LaminarForest::Build(universe_);

  // Block representatives are subtree-root intervals, hence laminar too.
  // Duplicate representatives keep the first block id in table order (the
  // tie the scan-based lookup used to break the same way).
  std::vector<Interval> reps;
  reps.reserve(meta_->block_table.entries().size());
  for (const auto& [id, rep] : meta_->block_table.entries()) {
    reps.push_back(rep);
  }
  block_forest_ = LaminarForest::Build(std::move(reps));
  block_of_forest_node_.assign(block_forest_.size(), -1);
  for (const auto& [id, rep] : meta_->block_table.entries()) {
    const int node = block_forest_.Find(rep);
    if (node != LaminarForest::kNone && block_of_forest_node_[node] < 0) {
      block_of_forest_node_[node] = id;
    }
  }
}

Status ServerEngine::EnsureReady() const {
  if (ready_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> lock(ready_mu_);
  if (ready_.load(std::memory_order_relaxed)) return Status::Ok();
  // Only a mapped engine can be un-ready: fault the index sections in,
  // point the read surface at them, and build the forests. On failure
  // (corrupt section) nothing is published and the next call retries.
  XCRYPT_RETURN_NOT_OK(mapped_->EnsureResident());
  db_ = &mapped_->database();
  meta_ = &mapped_->metadata();
  BuildIndexes();
  ready_.store(true, std::memory_order_release);
  return Status::Ok();
}

size_t ServerEngine::BlockCount() const {
  return mapped_ != nullptr ? mapped_->BlockCount() : db_->blocks.size();
}

uint32_t ServerEngine::BlockGenerationOf(size_t i) const {
  return mapped_ != nullptr ? mapped_->BlockGeneration(i)
                            : db_->blocks[i].generation;
}

bool ServerEngine::BlockTombstoned(size_t i) const {
  return mapped_ != nullptr ? mapped_->BlockPayload(i).empty()
                            : db_->blocks[i].ciphertext.empty();
}

EncryptedBlock ServerEngine::ShipBlock(size_t i) const {
  if (mapped_ == nullptr) return db_->blocks[i];
  // The one place mapped ciphertext is copied: into a response that ships
  // it. The kernel faults exactly the payload pages this slice covers.
  EncryptedBlock block;
  block.id = mapped_->BlockId(i);
  block.generation = mapped_->BlockGeneration(i);
  const auto payload = mapped_->BlockPayload(i);
  block.ciphertext.assign(payload.begin(), payload.end());
  return block;
}

size_t ServerEngine::BlockCiphertextBytes(size_t i) const {
  return mapped_ != nullptr ? mapped_->BlockPayload(i).size()
                            : db_->blocks[i].ciphertext.size();
}

const BPlusTree* ServerEngine::ValueIndex(const std::string& token) const {
  if (mapped_ != nullptr) return mapped_->ValueIndex(token);
  auto it = meta_->value_indexes.find(token);
  return it == meta_->value_indexes.end() ? nullptr : &it->second;
}

const std::vector<Interval>& ServerEngine::RangeProbeReps(
    const std::string& token, int64_t lo, int64_t hi) const {
  // Returned references stay valid after unlock: map nodes are stable and
  // an entry is never mutated once inserted. The hot case — the same
  // predicate re-probed from every thread of a parallel batch — takes only
  // the shared lock.
  const auto key = std::make_tuple(token, lo, hi);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = range_probe_cache_.find(key);
    if (it != range_probe_cache_.end()) return it->second;
  }

  // Compute outside any lock (the B-tree scan is read-only); racing
  // computations are idempotent and the first insert wins.
  std::vector<Interval> reps;
  const BPlusTree* tree = ValueIndex(token);
  if (tree != nullptr) {
    std::vector<int> block_ids;
    for (const BTreeEntry& e : tree->RangeScan(lo, hi)) {
      block_ids.push_back(e.block_id);
    }
    std::sort(block_ids.begin(), block_ids.end());
    block_ids.erase(std::unique(block_ids.begin(), block_ids.end()),
                    block_ids.end());
    for (int id : block_ids) {
      const Interval* rep = meta_->block_table.RepresentativeOf(id);
      if (rep != nullptr) reps.push_back(*rep);
    }
  }
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  return range_probe_cache_.try_emplace(key, std::move(reps)).first->second;
}

void ServerEngine::SetDataGeneration(uint64_t generation) {
  if (generation == data_generation_) return;
  data_generation_ = generation;
  plan_cache_.Clear();
  // PIR records embed per-block generations and index keys; a new
  // generation invalidates every hosted section (rebuilt on next setup).
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  pir_sections_.clear();
}

Result<privacy::PirHostedSection> ServerEngine::BuildPirSection(
    const std::string& section) const {
  privacy::PirParams params;
  // Public A-matrix seed: deterministic in (generation, section) so racing
  // builds of the same section agree and repeated setups of unchanged data
  // hand every client the same hint.
  uint64_t seed_state =
      data_generation_ ^
      (0x9e3779b97f4a7c15ULL * (std::hash<std::string>{}(section) | 1));
  params.seed = SplitMix64(seed_state);
  std::vector<uint8_t> records;
  auto put_u32 = [&records](uint32_t v) {
    records.push_back(static_cast<uint8_t>(v));
    records.push_back(static_cast<uint8_t>(v >> 8));
    records.push_back(static_cast<uint8_t>(v >> 16));
    records.push_back(static_cast<uint8_t>(v >> 24));
  };
  if (section == privacy::kBlockMetaSection) {
    const size_t n = BlockCount();
    if (n == 0) return Status::NotFound("no blocks to host: " + section);
    params.record_bytes = privacy::kBlockMetaRecordBytes;
    params.num_records = static_cast<uint32_t>(n);
    records.reserve(n * privacy::kBlockMetaRecordBytes);
    for (size_t i = 0; i < n; ++i) {
      put_u32(BlockGenerationOf(i));
      put_u32(static_cast<uint32_t>(BlockCiphertextBytes(i)));
    }
  } else {
    const std::string token = privacy::ParseOpessRootSection(section);
    if (token.empty()) {
      return Status::NotFound("unknown pir section: " + section);
    }
    const BPlusTree* tree = ValueIndex(token);
    if (tree == nullptr) {
      return Status::NotFound("no value index behind pir section: " + section);
    }
    const std::vector<int64_t> keys = tree->TopLevelKeys();
    if (keys.empty()) {
      return Status::NotFound("empty value index behind pir section: " +
                              section);
    }
    params.record_bytes = privacy::kOpessRootRecordBytes;
    params.num_records = static_cast<uint32_t>(keys.size());
    records.reserve(keys.size() * privacy::kOpessRootRecordBytes);
    for (int64_t key : keys) {
      const uint64_t v = static_cast<uint64_t>(key);
      put_u32(static_cast<uint32_t>(v));
      put_u32(static_cast<uint32_t>(v >> 32));
    }
  }
  return privacy::PirHostedSection::Build(params, std::move(records));
}

Result<const privacy::PirHostedSection*> ServerEngine::PirSection(
    const std::string& section) const {
  XCRYPT_RETURN_NOT_OK(EnsureReady());
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = pir_sections_.find(section);
    if (it != pir_sections_.end()) return &it->second;
  }
  // Build (the hint is the expensive part) outside any lock; racing builds
  // are deterministic in (generation, section), first insert wins.
  auto built = BuildPirSection(section);
  if (!built.ok()) return built.status();
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  auto it = pir_sections_.try_emplace(section, std::move(*built)).first;
  return &it->second;
}

void ServerEngine::SetMetricsRegistry(obs::MetricsRegistry* registry) {
  plan_hit_ = registry == nullptr ? nullptr
                                  : registry->GetCounter("plan_cache.hit");
  plan_miss_ = registry == nullptr ? nullptr
                                   : registry->GetCounter("plan_cache.miss");
}

void ServerEngine::SetPlanCacheCapacity(size_t capacity) {
  plan_cache_.SetCapacity(capacity);
}

const std::vector<Interval>& ServerEngine::Universe() const {
  return universe_;
}

std::vector<Interval> ServerEngine::LookupStep(
    const TranslatedStep& step) const {
  // `//*` reuses the universe materialized at construction instead of
  // re-running the DSI table's merge-and-sort on every wildcard step.
  if (step.wildcard) return Universe();
  std::vector<Interval> out;
  for (const std::string& token : step.tokens) {
    const auto& list = meta_->dsi_table.Lookup(token);
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<std::vector<Interval>>> ServerEngine::ForwardPass(
    const std::vector<TranslatedStep>& steps,
    const std::vector<Interval>& context, bool from_document_root,
    bool* conservative, obs::QueryContext* ctx) const {
  obs::Trace* trace = obs::TraceOf(ctx);
  std::vector<std::vector<Interval>> lists;
  lists.reserve(steps.size());
  std::vector<Interval> cur = context;

  for (size_t k = 0; k < steps.size(); ++k) {
    if (ctx != nullptr && ctx->Expired()) {
      return Status::Unavailable("deadline exceeded during forward pass");
    }
    const TranslatedStep& step = steps[k];
    std::vector<Interval> cand;
    {
      obs::Span lookup(trace, "index-lookup");
      cand = LookupStep(step);
    }
    {
      obs::Span join(trace, "structural-join");
      if (k == 0 && from_document_root) {
        if (step.axis == Axis::kChild) {
          // `/tag`: only the document root can match.
          std::vector<Interval> roots;
          for (const Interval& iv : cand) {
            if (IsRootInterval(iv)) roots.push_back(iv);
          }
          cand = std::move(roots);
        }
        // `//tag`: every occurrence qualifies.
      } else {
        if (step.axis == Axis::kDescendant) {
          cand = StructuralJoin::FilterDescendants(cur, cand);
        } else {
          cand = StructuralJoin::FilterChildren(cur, cand, forest_);
        }
      }
    }
    // Step predicates, each batched over the step's whole candidate list;
    // candidates failing an earlier predicate never reach a later one.
    // The span covers the whole batch, including the predicate's own
    // internal forward pass (which runs untraced so its joins/lookups are
    // attributed here, not double-counted into the sibling phases).
    if (!step.predicates.empty() && !cand.empty()) {
      obs::Span batch(trace, "predicate-batch");
      for (const TranslatedPredicate& pred : step.predicates) {
        if (cand.empty()) break;
        const std::vector<char> pass =
            BatchCheckPredicate(cand, pred, conservative);
        std::vector<Interval> kept;
        kept.reserve(cand.size());
        for (size_t i = 0; i < cand.size(); ++i) {
          if (pass[i]) kept.push_back(cand[i]);
        }
        cand = std::move(kept);
      }
    }
    lists.push_back(cand);
    cur = std::move(cand);
  }
  return lists;
}

std::vector<char> ServerEngine::BatchCheckPredicate(
    const std::vector<Interval>& candidates, const TranslatedPredicate& pred,
    bool* conservative) const {
  std::vector<char> pass(candidates.size(), 0);
  if (candidates.empty() || pred.path.empty()) return pass;

  // One ForwardPass over the union of contexts. Per-candidate lists are
  // subsets of these shared lists (every join is monotone in its context),
  // and the step predicates inside the pass are context-independent, so
  // each candidate's target set is recovered below by re-chaining through
  // the shared, already-pruned lists — without touching the full DSI lists
  // or the predicate machinery again. The pass runs without a context so
  // predicate-internal work stays attributed to the enclosing
  // predicate-batch span (and cannot fail: no deadline to exceed).
  auto shared_result =
      ForwardPass(pred.path, candidates, /*from_document_root=*/false,
                  conservative, /*ctx=*/nullptr);
  const std::vector<std::vector<Interval>>& shared = *shared_result;
  if (shared.empty() || shared.back().empty()) return pass;

  // Per-step join indexes, built once for the whole batch: every candidate
  // re-chains through the same shared pruned lists, so pre-sorting them
  // into the struct-of-arrays view (descendant axis) and pre-grouping them
  // by innermost enclosing parent (child axis) turns each re-chain step
  // into a pair of galloping searches / one group lookup instead of a
  // copy-sort-scan of the whole list per candidate.
  struct StepIndex {
    std::unique_ptr<SortedIntervalList> desc;
    std::unique_ptr<ChildGroups> child;
  };
  std::vector<StepIndex> index(shared.size());
  for (size_t k = 0; k < shared.size(); ++k) {
    if (pred.path[k].axis == Axis::kDescendant) {
      index[k].desc = std::make_unique<SortedIntervalList>(shared[k]);
    } else {
      index[k].child = std::make_unique<ChildGroups>(shared[k], forest_);
    }
  }

  // Candidates are independent (the chains only read the shared indexes,
  // the forest, and the memoized range probes); conservative verdicts are
  // collected per candidate and folded after the parallel section so the
  // out-parameter never races.
  const int n = static_cast<int>(candidates.size());
  std::vector<char> cons(candidates.size(), 0);
  auto check = [&](int i) {
    std::vector<Interval> cur = {candidates[i]};
    for (size_t k = 0; k < shared.size() && !cur.empty(); ++k) {
      if (index[k].desc != nullptr) {
        cur = StructuralJoin::FilterDescendants(cur, *index[k].desc);
      } else {
        cur = StructuralJoin::FilterChildren(cur, *index[k].child, forest_);
      }
    }
    if (cur.empty()) return;
    bool local_cons = false;
    pass[i] = PredicateKindHolds(candidates[i], pred, cur, &local_cons);
    if (local_cons) cons[i] = 1;
  };
  if (n >= kBatchParallelCutoff) {
    ThreadPool::Shared().ParallelFor(n, check);
  } else {
    for (int i = 0; i < n; ++i) check(i);
  }
  for (int i = 0; i < n; ++i) {
    if (cons[i] != 0) {
      *conservative = true;
      break;
    }
  }
  return pass;
}

bool ServerEngine::PredicateKindHolds(const Interval& candidate,
                                      const TranslatedPredicate& pred,
                                      const std::vector<Interval>& targets,
                                      bool* conservative) const {
  switch (pred.kind) {
    case TranslatedPredicate::Kind::kExists:
      return true;

    case TranslatedPredicate::Kind::kPlainValue: {
      for (const Interval& t : targets) {
        auto it = meta_->public_interval_to_node.find(t);
        if (it == meta_->public_interval_to_node.end()) continue;
        const Node& node = db_->skeleton.node(it->second);
        if (CompareValues(node.value, pred.op, pred.literal)) return true;
      }
      return false;
    }

    case TranslatedPredicate::Kind::kIndexRange: {
      // Mixed tag: a plaintext literal rides along when the target tag
      // also occurs publicly; a public target satisfying the comparison
      // settles the predicate without touching the value index.
      if (!pred.literal.empty()) {
        for (const Interval& t : targets) {
          auto it = meta_->public_interval_to_node.find(t);
          if (it == meta_->public_interval_to_node.end()) continue;
          const Node& node = db_->skeleton.node(it->second);
          if (CompareValues(node.value, pred.op, pred.literal)) return true;
        }
      }
      if (pred.range.empty) return false;
      const std::vector<Interval>& reps =
          RangeProbeReps(pred.index_token, pred.range.lo, pred.range.hi);

      bool matched_conservative = false;
      for (const Interval& rep : reps) {
        bool related = false;
        for (const Interval& t : targets) {
          if (t == rep || t.ProperlyInside(rep) || rep.ProperlyInside(t)) {
            related = true;
            break;
          }
        }
        if (!related) continue;
        // Attributable: the whole block lies at or below the candidate, so
        // the matching value occurrence belongs to this candidate.
        if (rep == candidate || rep.ProperlyInside(candidate)) {
          return true;
        }
        // The block strictly encloses the candidate: the value is in the
        // block, but possibly under a different candidate. Defer to the
        // client (it receives the block and re-checks).
        matched_conservative = true;
      }
      if (matched_conservative) {
        *conservative = true;
        return true;
      }
      return false;
    }
  }
  return false;
}

Result<EngineQueryResult> ServerEngine::Execute(
    const TranslatedQuery& query, const ExecOptions& opts) const {
  obs::QueryContext* ctx = opts.ctx;
  const std::span<const BlockAdvert> cached_blocks = opts.cached_blocks;
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty translated query");
  }
  if (ctx != nullptr && ctx->Expired()) {
    return Status::Unavailable("deadline expired before server execution");
  }
  obs::Trace* trace = obs::TraceOf(ctx);
  obs::Span server_span(trace, "server");
  XCRYPT_RETURN_NOT_OK(EnsureReady());

  // Plan-cache probe: a repeated query shape against the same data
  // generation replays its back-pruned ship roots straight into response
  // assembly (which must re-run — it depends on the caller's advertised
  // block cache), skipping the entire join pipeline.
  const std::string plan_key =
      "q|g" + std::to_string(data_generation_) + "|" + PlanShapeKey(query);
  if (std::shared_ptr<const CachedPlan> plan = plan_cache_.Lookup(plan_key)) {
    if (plan_hit_ != nullptr) plan_hit_->Add();
    { obs::Span cached(trace, "plan-cache"); }
    EngineQueryResult out;
    if (!plan->ship_roots.empty()) {
      obs::Span assemble(trace, "assemble");
      out.response = AssembleResponse(
          plan->ship_roots, plan->requires_full_requery, cached_blocks);
    }
    return out;
  }
  if (plan_miss_ != nullptr) plan_miss_->Add();

  bool conservative = false;
  auto lists_result = ForwardPass(query.steps, {}, /*from_document_root=*/true,
                                  &conservative, ctx);
  if (!lists_result.ok()) return lists_result.status();
  const std::vector<std::vector<Interval>>& lists = *lists_result;

  EngineQueryResult out;
  std::vector<Interval> ship_roots = lists.back();
  if (!ship_roots.empty() && conservative) {
    // Some predicate could not be attributed server-side; back-prune to
    // the first step's surviving matches and ship their whole subtrees so
    // the client can re-apply the full query.
    obs::Span backprune(trace, "structural-join");
    std::vector<Interval> prev = ship_roots;
    for (size_t k = lists.size() - 1; k-- > 0;) {
      prev = StructuralJoin::FilterAncestors(lists[k], prev);
    }
    ship_roots = std::move(prev);
  }
  {
    // Only successful evaluations are cached (an error/deadline path never
    // reaches here); empty results are plans too.
    auto plan = std::make_shared<CachedPlan>();
    plan->ship_roots = ship_roots;
    plan->requires_full_requery = conservative;
    plan_cache_.Insert(plan_key, std::move(plan));
  }
  if (!ship_roots.empty()) {
    obs::Span assemble(trace, "assemble");
    out.response = AssembleResponse(ship_roots, conservative, cached_blocks);
  }
  return out;
}

ServerResponse ServerEngine::AssembleResponse(
    const std::vector<Interval>& ship_roots, bool requires_full_requery,
    std::span<const BlockAdvert> cached_blocks) const {
  const Document& skeleton = db_->skeleton;
  // Marking flags are relaxed atomics: the per-root marking below is
  // idempotent (only ever 0 -> 1), so roots mark concurrently and the
  // ParallelFor join publishes the flags to the sequential copy pass.
  std::vector<std::atomic<uint8_t>> include(skeleton.node_count());
  for (auto& f : include) f.store(0, std::memory_order_relaxed);
  std::vector<std::atomic<uint8_t>> ship_block(BlockCount());
  for (auto& f : ship_block) f.store(0, std::memory_order_relaxed);

  auto mark_ancestors = [&](NodeId id) {
    for (NodeId p = skeleton.node(id).parent; p != kNullNode;
         p = skeleton.node(p).parent) {
      include[p].store(1, std::memory_order_relaxed);
    }
  };
  auto mark_subtree = [&](NodeId id) {
    skeleton.Visit(id, [&](NodeId n) {
      include[n].store(1, std::memory_order_relaxed);
      if (skeleton.node(n).tag == kBlockMarkerTag) {
        for (NodeId c : skeleton.node(n).children) {
          const Node& attr = skeleton.node(c);
          if (attr.is_attribute && attr.tag == "id") {
            // Malformed ids are skipped, not mapped to block 0.
            const int id_val = ParseBlockId(attr.value);
            if (id_val >= 0 &&
                static_cast<size_t>(id_val) < ship_block.size()) {
              ship_block[id_val].store(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  };

  auto mark_root = [&](int r) {
    const Interval& iv = ship_roots[r];
    // Innermost covering block, if the root lies in one: a single walk in
    // the block-representative forest instead of a block-table scan.
    int best_block = -1;
    const int node = block_forest_.InnermostCovering(iv);
    if (node != LaminarForest::kNone) best_block = block_of_forest_node_[node];
    if (best_block >= 0) {
      const NodeId marker = db_->marker_of_block[best_block];
      mark_subtree(marker);
      mark_ancestors(marker);
      ship_block[best_block].store(1, std::memory_order_relaxed);
      return;
    }
    auto it = meta_->public_interval_to_node.find(iv);
    if (it == meta_->public_interval_to_node.end()) return;  // defensive
    mark_subtree(it->second);
    mark_ancestors(it->second);
  };
  if (ship_roots.size() >= kAssembleParallelCutoff) {
    ThreadPool::Shared().ParallelFor(static_cast<int>(ship_roots.size()),
                                     mark_root);
  } else {
    for (size_t r = 0; r < ship_roots.size(); ++r) {
      mark_root(static_cast<int>(r));
    }
  }

  // Copy the pruned skeleton. Attribute children of included nodes ride
  // along so ancestor-chain elements keep their attributes.
  Document pruned;
  struct Frame {
    NodeId src;
    NodeId dst_parent;
  };
  std::vector<Frame> stack;
  if (!skeleton.empty() &&
      include[skeleton.root()].load(std::memory_order_relaxed) != 0) {
    stack.push_back({skeleton.root(), kNullNode});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node& src = skeleton.node(f.src);
    NodeId dst = (f.dst_parent == kNullNode)
                     ? pruned.AddRoot(src.tag)
                     : pruned.AddChild(f.dst_parent, src.tag);
    pruned.node(dst).value = src.value;
    pruned.node(dst).is_attribute = src.is_attribute;
    for (auto it = src.children.rbegin(); it != src.children.rend(); ++it) {
      if (include[*it].load(std::memory_order_relaxed) != 0 ||
          skeleton.node(*it).is_attribute) {
        stack.push_back({*it, dst});
      }
    }
  }

  // Advertised (id, generation) pairs, indexed for the stub decision. Only
  // an exact generation match may be stubbed: a stale advertisement means
  // the client's copy predates a re-encryption, so the payload ships.
  std::map<int, uint32_t> advertised;
  for (const BlockAdvert& a : cached_blocks) {
    advertised.emplace(a.id, a.generation);
  }

  ServerResponse response;
  response.requires_full_requery = requires_full_requery;
  response.skeleton_xml = SerializeXml(pruned, pruned.root(), 0);
  for (size_t i = 0; i < ship_block.size(); ++i) {
    if (ship_block[i].load(std::memory_order_relaxed) == 0) continue;
    const auto it = advertised.find(static_cast<int>(i));
    if (it != advertised.end() && it->second == BlockGenerationOf(i)) {
      response.cached_ids.push_back(static_cast<int>(i));
    } else {
      response.blocks.push_back(ShipBlock(i));
    }
  }
  return response;
}

Result<EngineQueryResult> ServerEngine::ExecuteNaive(
    const ExecOptions& opts) const {
  obs::QueryContext* ctx = opts.ctx;
  if (ctx != nullptr && ctx->Expired()) {
    return Status::Unavailable("deadline expired before server execution");
  }
  obs::Trace* trace = obs::TraceOf(ctx);
  obs::Span server_span(trace, "server");
  XCRYPT_RETURN_NOT_OK(EnsureReady());

  EngineQueryResult out;
  {
    obs::Span assemble(trace, "assemble");
    out.response.requires_full_requery = true;
    out.response.skeleton_xml =
        SerializeXml(db_->skeleton, db_->skeleton.root(), 0);
    for (size_t i = 0; i < BlockCount(); ++i) {
      // Deleted subtrees leave tombstoned (empty-ciphertext) block slots
      // behind; shipping those would make the client fail decryption.
      if (!BlockTombstoned(i)) out.response.blocks.push_back(ShipBlock(i));
    }
  }
  return out;
}

}  // namespace xcrypt
