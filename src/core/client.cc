#include "core/client.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <map>
#include <set>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "crypto/aes_kernel.h"
#include "obs/metrics.h"
#include "xml/stats.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"

namespace xcrypt {

std::vector<std::string> QueryAnswer::SerializedSorted() const {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const Document& d : nodes) {
    out.push_back(SerializeXml(d, d.root(), 0));
  }
  std::sort(out.begin(), out.end());
  return out;
}

QueryAnswer GroundTruth(const Document& doc, const PathExpr& query) {
  QueryAnswer answer;
  XPathEvaluator eval(doc);
  for (NodeId id : eval.Evaluate(query)) {
    Document fragment;
    fragment.GraftSubtree(doc, id, kNullNode);
    answer.nodes.push_back(std::move(fragment));
  }
  return answer;
}

Result<Client> Client::Host(Document doc,
                            std::vector<SecurityConstraint> constraints,
                            SchemeKind kind,
                            const std::string& master_secret) {
  Client client;
  client.keys_ = std::make_unique<KeyChain>(master_secret);
  client.original_ = std::move(doc);
  client.constraints_ = std::move(constraints);

  Stopwatch watch;
  auto scheme =
      BuildEncryptionScheme(client.original_, client.constraints_, kind);
  if (!scheme.ok()) return scheme.status();
  client.scheme_ = std::move(*scheme);

  auto enc = EncryptDocument(client.original_, client.scheme_, *client.keys_);
  if (!enc.ok()) return enc.status();
  client.enc_ = std::move(*enc);
  client.encrypt_micros_ = watch.ElapsedMicros();

  watch.Restart();
  auto meta = BuildMetadata(client.original_, client.enc_, *client.keys_);
  if (!meta.ok()) return meta.status();
  client.meta_ = std::move(*meta);
  client.metadata_micros_ = watch.ElapsedMicros();
  return client;
}

Result<TranslatedQuery> Client::Translate(const PathExpr& query) const {
  return QueryTranslator(keys_.get(), &meta_.client).Translate(query);
}

namespace {

/// Q with predicates kept only on the output (last) step; the server
/// verified the others exactly in the non-conservative path.
PathExpr StripNonFinalPredicates(const PathExpr& query) {
  PathExpr out = query;
  for (size_t i = 0; i + 1 < out.steps.size(); ++i) {
    out.steps[i].predicates.clear();
  }
  return out;
}

/// id -> decrypted payload, shared-ownership so cache-resident documents
/// splice without copying.
using DecryptedMap = std::map<int, std::shared_ptr<const Document>>;

/// Decrypts every shipped block, fanning out over the shared thread pool
/// when more than one block arrived. Each worker writes only its own slot,
/// and the id -> document map is assembled serially in shipping order, so
/// the result (including which error wins on failure) is identical to the
/// sequential loop.
Result<DecryptedMap> DecryptBlocks(const std::vector<EncryptedBlock>& blocks,
                                   const KeyChain& keys) {
  const size_t n = blocks.size();
  std::vector<std::shared_ptr<const Document>> payloads(n);
  std::vector<Status> statuses(n, Status::Ok());
  auto decrypt_one = [&](int i) {
    auto payload = DecryptBlock(blocks[i], keys);
    if (payload.ok()) {
      payloads[i] = std::make_shared<Document>(std::move(*payload));
    } else {
      statuses[i] = payload.status();
    }
  };
  if (n > 1) {
    ThreadPool::Shared().ParallelFor(static_cast<int>(n), decrypt_one);
  } else if (n == 1) {
    decrypt_one(0);
  }
  if (n > 0) {
    // Surface which kernel carried the decryption in metrics snapshots.
    obs::MetricsRegistry::Global()
        .GetCounter(std::string("crypto.kernel.") + AesKernel().name)
        ->Add(static_cast<int64_t>(n));
  }

  DecryptedMap decrypted;
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
    decrypted.emplace(blocks[i].id, std::move(payloads[i]));
  }
  return decrypted;
}

/// Copies `src_root`'s subtree under `dst_parent`, replacing `_encblock`
/// markers by the decrypted block content.
Status SpliceNode(const Document& src, NodeId src_root, Document* dst,
                  NodeId dst_parent, const DecryptedMap& decrypted) {
  const Node& n = src.node(src_root);
  if (n.tag == kBlockMarkerTag) {
    int block_id = -1;
    for (NodeId c : n.children) {
      const Node& attr = src.node(c);
      if (attr.is_attribute && attr.tag == "id") {
        // Strict parse: a malformed id must not alias block 0.
        const char* first = attr.value.data();
        const char* last = first + attr.value.size();
        int value = -1;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc() && ptr == last && value >= 0) block_id = value;
      }
    }
    auto it = decrypted.find(block_id);
    if (it == decrypted.end()) {
      return Status::Corruption("response references block " +
                                std::to_string(block_id) +
                                " that was not shipped");
    }
    dst->GraftSubtree(*it->second, it->second->root(), dst_parent);
    return Status::Ok();
  }
  NodeId dst_id = (dst_parent == kNullNode) ? dst->AddRoot(n.tag)
                                            : dst->AddChild(dst_parent, n.tag);
  dst->node(dst_id).value = n.value;
  dst->node(dst_id).is_attribute = n.is_attribute;
  for (NodeId c : n.children) {
    XCRYPT_RETURN_NOT_OK(SpliceNode(src, c, dst, dst_id, decrypted));
  }
  return Status::Ok();
}

}  // namespace

Result<QueryAnswer> Client::PostProcess(const PathExpr& original_query,
                                        const ServerResponse& response,
                                        obs::Trace* trace,
                                        const CachedBlockSet* cache_set) const {
  QueryAnswer answer;
  if (response.skeleton_xml.empty()) return answer;
  // Declared first so it closes last: tearing down the documents below is
  // post-processing too.
  obs::Span post;

  obs::Span parse(trace, "skeleton-parse");
  auto pruned = ParseXml(response.skeleton_xml);
  parse.End();
  if (!pruned.ok()) return pruned.status();

  // Decrypt every shipped block, in parallel when several arrived.
  obs::Span decrypt_span(trace, "decrypt");
  auto decrypted = DecryptBlocks(response.blocks, *keys_);
  decrypt_span.End();
  if (!decrypted.ok()) return decrypted.status();

  // Warm the cache with what just shipped (each shipped block was a miss),
  // then resolve the server's id-only stubs from the pinned advertisement.
  obs::Span fill(trace, "cache-fill");
  if (cache_ != nullptr) {
    for (const EncryptedBlock& b : response.blocks) {
      cache_->RecordMiss();
      cache_->Put(b.id, b.generation, decrypted->at(b.id),
                  b.CiphertextBytes());
    }
  }
  for (const int id : response.cached_ids) {
    if (cache_set == nullptr) {
      return Status::Corruption(
          "server sent cache stubs but no advertisement was attached");
    }
    const auto it = cache_set->pinned.find(id);
    if (it == cache_set->pinned.end()) {
      return Status::Corruption("server stubbed block " + std::to_string(id) +
                                " that this query did not advertise");
    }
    decrypted->emplace(id, it->second.doc);
    if (cache_ != nullptr) cache_->RecordHit(it->second.ciphertext_bytes);
  }
  fill.End();

  // Splice blocks into the pruned skeleton and strip decoys.
  Document assembled;
  {
    obs::Span splice(trace, "splice");
    XCRYPT_RETURN_NOT_OK(SpliceNode(*pruned, pruned->root(), &assembled,
                                    kNullNode, *decrypted));
    RemoveDecoys(assembled);
  }

  // Re-apply the query.
  post = obs::Span(trace, "postprocess");
  const PathExpr query = response.requires_full_requery
                             ? original_query
                             : StripNonFinalPredicates(original_query);
  XPathEvaluator eval(assembled);
  for (NodeId id : eval.Evaluate(query)) {
    Document fragment;
    fragment.GraftSubtree(assembled, id, kNullNode);
    answer.nodes.push_back(std::move(fragment));
  }
  return answer;
}

namespace {

AggregateAnswer AggregateOverValues(AggregateKind kind,
                                    const std::vector<std::string>& values) {
  AggregateAnswer answer;
  answer.kind = kind;
  answer.count = static_cast<int64_t>(values.size());
  switch (kind) {
    case AggregateKind::kCount:
      answer.numeric = static_cast<double>(values.size());
      answer.value = std::to_string(values.size());
      break;
    case AggregateKind::kSum: {
      double sum = 0.0;
      for (const std::string& v : values) {
        sum += std::strtod(v.c_str(), nullptr);
      }
      answer.numeric = sum;
      answer.value = std::to_string(sum);
      break;
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      if (values.empty()) break;
      const auto extreme =
          (kind == AggregateKind::kMin)
              ? *std::min_element(values.begin(), values.end(), ValueLess)
              : *std::max_element(values.begin(), values.end(), ValueLess);
      answer.value = extreme;
      answer.numeric = std::strtod(extreme.c_str(), nullptr);
      break;
    }
  }
  return answer;
}

}  // namespace

AggregateAnswer GroundTruthAggregate(const Document& doc,
                                     const PathExpr& path,
                                     AggregateKind kind) {
  XPathEvaluator eval(doc);
  std::vector<std::string> values;
  for (NodeId id : eval.Evaluate(path)) {
    values.push_back(doc.node(id).value);
  }
  return AggregateOverValues(kind, values);
}

namespace {

std::string QualifiedTagOf(const Node& n) {
  return (n.is_attribute ? "@" : "") + n.tag;
}

}  // namespace

Status Client::Rehost() {
  auto scheme = BuildEncryptionScheme(original_, constraints_, scheme_.kind);
  if (!scheme.ok()) return scheme.status();
  scheme_ = std::move(*scheme);
  auto enc = EncryptDocument(original_, scheme_, *keys_);
  if (!enc.ok()) return enc.status();
  enc_ = std::move(*enc);
  auto meta = BuildMetadata(original_, enc_, *keys_);
  if (!meta.ok()) return meta.status();
  meta_ = std::move(*meta);
  // Re-hosting reassigns block ids and restarts generations at 0, so no
  // cached entry can be trusted to match its id any more.
  if (cache_ != nullptr) cache_->Clear();
  return Status::Ok();
}

void Client::EnableBlockCache(int64_t max_bytes) {
  cache_ = max_bytes > 0 ? std::make_unique<BlockCache>(max_bytes) : nullptr;
}

CachedBlockSet Client::AdvertiseCachedBlocks(obs::Trace* trace) const {
  obs::Span probe(trace, "cache-probe");
  if (cache_ == nullptr) return CachedBlockSet();
  return cache_->Advertise();
}

void Client::InvalidateCachedBlocks(const std::vector<int>& ids) const {
  if (cache_ == nullptr) return;
  for (const int id : ids) cache_->Erase(id);
}

void Client::InvalidateAllCachedBlocks() const {
  if (cache_ != nullptr) cache_->Clear();
}

Status Client::ReencryptBlock(int block_id) {
  if (block_id < 0 ||
      static_cast<size_t>(block_id) >= scheme_.block_roots.size()) {
    return Status::InvalidArgument("bad block id");
  }
  const NodeId root = scheme_.block_roots[block_id];
  Document payload;
  payload.GraftSubtree(original_, root, kNullNode);
  if (payload.node_count() == 1) {
    Rng decoy_rng(keys_->RngSeed("decoy:u" + std::to_string(update_epoch_) +
                                 ":" + std::to_string(block_id)));
    payload.AddLeaf(payload.root(), kDecoyTag,
                    decoy_rng.String(4 + static_cast<int>(
                                             decoy_rng.UniformU64(0, 4))));
  }
  const std::string plain = SerializeXml(payload, payload.root(), 0);
  EncryptedBlock& block = enc_.database.blocks[block_id];
  block.ciphertext = keys_->block_cipher().Encrypt(
      ToBytes(plain), "block:" + std::to_string(block_id) + ":u" +
                          std::to_string(update_epoch_));
  block.plaintext_bytes = static_cast<int64_t>(plain.size());
  // Invalidate every outstanding cached copy: bump the generation (so a
  // stale advertisement never matches on the server) and drop our own
  // entry.
  block.generation += 1;
  if (cache_ != nullptr) cache_->Erase(block_id);
  return Status::Ok();
}

Result<int> Client::UpdateValues(const PathExpr& path,
                                 const std::string& value) {
  ++update_epoch_;
  XPathEvaluator eval(original_);
  const std::vector<NodeId> targets = eval.Evaluate(path);
  if (targets.empty()) return 0;
  for (NodeId id : targets) {
    if (!original_.IsLeaf(id)) {
      return Status::InvalidArgument(
          "UpdateValues requires leaf targets; '" + original_.node(id).tag +
          "' has children");
    }
  }

  std::set<int> touched_blocks;
  std::set<std::string> touched_tags;
  for (NodeId id : targets) {
    original_.node(id).value = value;
    const int block = enc_.block_of_node[id];
    if (block >= 0) {
      touched_blocks.insert(block);
      touched_tags.insert(QualifiedTagOf(original_.node(id)));
    } else {
      // Public leaf: patch the skeleton copy directly.
      const NodeId skel = enc_.skeleton_of_node[id];
      if (skel != kNullNode) {
        enc_.database.skeleton.node(skel).value = value;
        if (effects_ != nullptr) effects_->RecordSetValue(skel, value);
      }
    }
  }

  // Re-encrypt only the touched blocks.
  for (int block : touched_blocks) {
    XCRYPT_RETURN_NOT_OK(ReencryptBlock(block));
    if (effects_ != nullptr) effects_->TouchBlock(block);
  }

  // Rebuild only the touched tags' value indexes (fresh epoch-derived
  // randomness so the new index is unlinkable to the old one).
  XCRYPT_RETURN_NOT_OK(RebuildValueIndexes(touched_tags));
  return static_cast<int>(targets.size());
}

Status Client::RebuildValueIndexes(const std::set<std::string>& tags) {
  for (const std::string& tag : tags) {
    std::vector<std::pair<std::string, int32_t>> occurrences;
    for (NodeId id : original_.PreOrder()) {
      const int block = enc_.block_of_node[id];
      if (block < 0 || !original_.IsLeaf(id)) continue;
      const Node& n = original_.node(id);
      if (n.value.empty() || QualifiedTagOf(n) != tag) continue;
      occurrences.emplace_back(n.value, block);
    }
    const std::string token = TagToken(meta_.client, tag);
    if (occurrences.empty()) {
      meta_.server.value_indexes.erase(token);
      meta_.client.opess.erase(tag);
      if (effects_ != nullptr) effects_->RemovedValueIndex(token);
      continue;
    }
    Rng opess_rng(keys_->RngSeed("opess:" + tag + ":u" +
                                 std::to_string(update_epoch_)));
    auto build =
        BuildOpess(tag, occurrences, keys_->OpeFor(tag), opess_rng);
    if (!build.ok()) return build.status();
    meta_.client.opess[tag] = build->meta;
    BPlusTree tree;
    tree.BulkLoad(std::move(build->entries));
    meta_.server.value_indexes.insert_or_assign(token, std::move(tree));
    if (effects_ != nullptr) effects_->RebuiltValueIndex(token);
  }
  return Status::Ok();
}

std::vector<std::pair<std::string, Interval>> Client::ParentRuns(
    NodeId parent) const {
  auto token_of = [this](NodeId id) {
    const std::string q = QualifiedTagOf(original_.node(id));
    return enc_.block_of_node[id] >= 0 ? TagToken(meta_.client, q) : q;
  };
  std::vector<DsiRunEntry> runs;
  AppendRunContributions(original_, enc_.block_of_node, meta_.client.dsi,
                         parent, token_of, &runs);
  std::vector<std::pair<std::string, Interval>> out;
  out.reserve(runs.size());
  for (DsiRunEntry& run : runs) {
    out.emplace_back(std::move(run.token), run.interval);
  }
  return out;
}

Client::SubtreeIndexState Client::CaptureSubtreeIndexState(
    NodeId top, bool include_top_public) const {
  SubtreeIndexState state;
  original_.Visit(top, [&](NodeId id) {
    auto runs = ParentRuns(id);
    state.contribs.insert(state.contribs.end(),
                          std::make_move_iterator(runs.begin()),
                          std::make_move_iterator(runs.end()));
    const int block = enc_.block_of_node[id];
    if (block < 0) {
      if (include_top_public || id != top) {
        state.publics.emplace_back(meta_.client.dsi.interval(id),
                                   enc_.skeleton_of_node[id]);
      }
    } else if (id != top &&
               scheme_.block_roots[block] == id) {
      state.block_reps.emplace_back(block, meta_.client.dsi.interval(id));
    }
  });
  return state;
}

void Client::ApplyDsiDiff(
    std::vector<std::pair<std::string, Interval>> before,
    std::vector<std::pair<std::string, Interval>> after) {
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  size_t i = 0, j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() ||
        (i < before.size() && before[i] < after[j])) {
      meta_.server.dsi_table.Remove(before[i].first, before[i].second);
      if (effects_ != nullptr) {
        effects_->RemoveDsi(before[i].first, before[i].second);
      }
      ++i;
    } else if (i == before.size() || after[j] < before[i]) {
      meta_.server.dsi_table.Add(after[j].first, after[j].second);
      if (effects_ != nullptr) {
        effects_->AddDsi(after[j].first, after[j].second);
      }
      ++j;
    } else {
      ++i;  // unchanged entry
      ++j;
    }
  }
}

void Client::ApplyPublicDiff(
    std::vector<std::pair<Interval, NodeId>> before,
    std::vector<std::pair<Interval, NodeId>> after) {
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  size_t i = 0, j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() ||
        (i < before.size() && before[i] < after[j])) {
      meta_.server.public_interval_to_node.erase(before[i].first);
      if (effects_ != nullptr) effects_->RemovePublic(before[i].first);
      ++i;
    } else if (i == before.size() || after[j] < before[i]) {
      meta_.server.public_interval_to_node[after[j].first] = after[j].second;
      if (effects_ != nullptr) {
        effects_->AddPublic(after[j].first, after[j].second);
      }
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

void Client::AssignSubtreeChildIntervals(NodeId top, Rng& rng) {
  std::vector<NodeId> stack = {top};
  while (!stack.empty()) {
    const NodeId p = stack.back();
    stack.pop_back();
    const std::vector<NodeId>& kids = original_.node(p).children;
    if (kids.empty()) continue;
    const int n = static_cast<int>(kids.size());
    std::vector<double> w1(n), w2(n);
    for (int k = 0; k < n; ++k) {
      w1[k] = rng.UniformDouble(1e-6, 0.5);
      w2[k] = rng.UniformDouble(1e-6, 0.5);
    }
    const std::vector<Interval> ivs =
        CalIntervals(meta_.client.dsi.interval(p), n, w1, w2);
    for (int k = 0; k < n; ++k) {
      meta_.client.dsi.Set(kids[k], ivs[k]);
      stack.push_back(kids[k]);
    }
  }
}

void Client::TombstoneBlock(int block_id, bool* skeleton_changed) {
  EncryptedBlock& block = enc_.database.blocks[block_id];
  block.ciphertext.clear();
  block.plaintext_bytes = 0;
  // The generation bump keeps wire v3 coherence sound: a client still
  // advertising the dead block's old payload can never get it stubbed.
  block.generation += 1;
  if (cache_ != nullptr) cache_->Erase(block_id);
  const NodeId marker = enc_.database.marker_of_block[block_id];
  if (marker != kNullNode) {
    if (enc_.database.skeleton.Detach(marker).ok() && effects_ != nullptr) {
      effects_->RecordDetach(marker);
    }
    enc_.database.marker_of_block[block_id] = kNullNode;
    *skeleton_changed = true;
  }
  meta_.server.block_table.Remove(block_id);
  if (effects_ != nullptr) effects_->TombstoneBlock(block_id);
}

void Client::CompactSkeletonNow() {
  const std::vector<NodeId> remap =
      CompactSkeleton(&enc_.database.skeleton, &enc_.database.marker_of_block,
                      &meta_.server.public_interval_to_node);
  for (NodeId& skel : enc_.skeleton_of_node) {
    if (skel != kNullNode) skel = remap[skel];
  }
  if (effects_ != nullptr) effects_->RecordCompact(remap);
}

Status Client::InsertSubtree(const PathExpr& parent_path,
                             const Document& fragment) {
  if (fragment.empty()) {
    return Status::InvalidArgument("empty fragment");
  }
  XPathEvaluator eval(original_);
  const std::vector<NodeId> parents = eval.Evaluate(parent_path);
  if (parents.empty()) {
    return Status::NotFound("insert target not found: " +
                            parent_path.ToString());
  }
  const NodeId parent = parents.front();
  ++update_epoch_;

  // Every inserted node is encrypted (it joins the parent's block, or the
  // whole fragment becomes a block of its own) — a superset of whatever a
  // fresh scheme would pick, so constraints stay enforced. Mint pseudonyms
  // for tags this database has never seen encrypted.
  std::set<std::string> fragment_value_tags;
  for (NodeId id : fragment.PreOrder()) {
    const Node& n = fragment.node(id);
    const std::string q = (n.is_attribute ? "@" : "") + n.tag;
    if (meta_.client.tag_tokens.count(q) == 0) {
      meta_.client.tag_tokens[q] = keys_->tag_cipher().EncryptTag(q);
      enc_.encrypted_tags.push_back(q);
    }
    if (fragment.IsLeaf(id) && !n.value.empty()) {
      fragment_value_tags.insert(q);
    }
  }

  // Gap budget (§5.1): the DSI construction leaves a guaranteed gap
  // between the parent's last child and the parent's own upper bound.
  // Place the new subtree there; when repeated inserts have eaten the
  // gap, fall back to re-intervalling the parent's whole subtree.
  const Interval piv = meta_.client.dsi.interval(parent);
  const std::vector<NodeId>& siblings = original_.node(parent).children;
  const double prev_max = siblings.empty()
                              ? piv.min
                              : meta_.client.dsi.interval(siblings.back()).max;
  const double gap = piv.max - prev_max;
  const bool reinterval = !(gap > (piv.max - piv.min) * 1e-6);

  // Capture the pre-edit contributions of everything the edit can move.
  SubtreeIndexState before;
  if (reinterval) {
    before = CaptureSubtreeIndexState(parent, /*include_top_public=*/false);
  } else {
    before.contribs = ParentRuns(parent);
  }

  const NodeId new_root =
      original_.GraftSubtree(fragment, fragment.root(), parent);
  enc_.block_of_node.resize(original_.node_count(), -1);
  enc_.skeleton_of_node.resize(original_.node_count(), kNullNode);
  meta_.client.dsi.Resize(original_.node_count());

  // Which block receives the fragment?
  const int parent_block = enc_.block_of_node[parent];
  int target_block = parent_block;
  if (parent_block < 0) {
    // Public parent: the fragment becomes a new block. The skeleton gets
    // the marker; both skeleton appends are recorded so the server's copy
    // replays them id-for-id.
    target_block = static_cast<int>(enc_.database.blocks.size());
    EncryptedBlock fresh;
    fresh.id = target_block;
    enc_.database.blocks.push_back(std::move(fresh));
    scheme_.block_roots.push_back(new_root);

    const NodeId parent_skel = enc_.skeleton_of_node[parent];
    const NodeId marker =
        enc_.database.skeleton.AddChild(parent_skel, kBlockMarkerTag);
    if (effects_ != nullptr) {
      effects_->RecordAdd(parent_skel, kBlockMarkerTag, "", false);
    }
    enc_.database.skeleton.AddAttribute(marker, "id",
                                        std::to_string(target_block));
    if (effects_ != nullptr) {
      effects_->RecordAdd(marker, "id", std::to_string(target_block), true);
      effects_->SetMarker(target_block, marker);
    }
    enc_.database.marker_of_block.push_back(marker);
    enc_.skeleton_of_node[new_root] = marker;
  }
  original_.Visit(new_root, [&](NodeId id) {
    enc_.block_of_node[id] = target_block;
  });

  // Interval assignment. Weights come from epoch-derived key material so
  // re-running the same edit sequence is deterministic for the owner.
  Rng rng(keys_->RngSeed("dsi:u" + std::to_string(update_epoch_)));
  if (reinterval) {
    AssignSubtreeChildIntervals(parent, rng);
  } else {
    // The new root takes a strict sub-interval of the remaining gap,
    // leaving gaps on both sides (so later inserts still have budget and
    // the DSI non-interposition invariants hold).
    Interval iv;
    iv.min = prev_max + gap * rng.UniformDouble(0.15, 0.35);
    iv.max = prev_max + gap * rng.UniformDouble(0.55, 0.85);
    meta_.client.dsi.Set(new_root, iv);
    AssignSubtreeChildIntervals(new_root, rng);
  }

  // Diff the grouped DSI contributions, public map, and block reps.
  SubtreeIndexState after;
  if (reinterval) {
    after = CaptureSubtreeIndexState(parent, /*include_top_public=*/false);
    std::map<int, Interval> old_reps(before.block_reps.begin(),
                                     before.block_reps.end());
    for (const auto& [block, rep] : after.block_reps) {
      const auto it = old_reps.find(block);
      if (it == old_reps.end() || !(it->second == rep)) {
        meta_.server.block_table.Set(block, rep);
        if (effects_ != nullptr) effects_->SetRep(block, rep);
      }
    }
  } else {
    after.contribs = ParentRuns(parent);
    // The parent diff only covers the run the new root joined; every run
    // INSIDE the grafted subtree is a brand-new contribution.
    original_.Visit(new_root, [&](NodeId id) {
      auto runs = ParentRuns(id);
      after.contribs.insert(after.contribs.end(),
                            std::make_move_iterator(runs.begin()),
                            std::make_move_iterator(runs.end()));
    });
  }
  ApplyDsiDiff(std::move(before.contribs), std::move(after.contribs));
  ApplyPublicDiff(std::move(before.publics), std::move(after.publics));

  // The receiving block's ciphertext changes either way; a brand-new
  // block also needs its representative registered.
  XCRYPT_RETURN_NOT_OK(ReencryptBlock(target_block));
  if (effects_ != nullptr) effects_->TouchBlock(target_block);
  if (parent_block < 0) {
    const Interval rep = meta_.client.dsi.interval(new_root);
    meta_.server.block_table.Set(target_block, rep);
    if (effects_ != nullptr) effects_->SetRep(target_block, rep);
  }

  return RebuildValueIndexes(fragment_value_tags);
}

Result<int> Client::DeleteSubtrees(const PathExpr& path) {
  XPathEvaluator eval(original_);
  const std::vector<NodeId> targets = eval.Evaluate(path);
  if (targets.empty()) return 0;
  for (NodeId id : targets) {
    if (id == original_.root()) {
      return Status::InvalidArgument("cannot delete the document root");
    }
  }
  // Nested targets are subsumed by their outermost ancestor (Evaluate
  // returns document order, so ancestors precede descendants).
  std::vector<NodeId> outermost;
  for (NodeId id : targets) {
    bool nested = false;
    for (NodeId kept : outermost) {
      if (original_.IsAncestor(kept, id)) {
        nested = true;
        break;
      }
    }
    if (!nested) outermost.push_back(id);
  }

  ++update_epoch_;
  std::set<int> reencrypt_blocks;
  std::set<std::string> touched_value_tags;
  bool skeleton_changed = false;

  for (NodeId target : outermost) {
    const NodeId parent = original_.node(target).parent;
    auto parent_runs_before = ParentRuns(parent);
    SubtreeIndexState removed =
        CaptureSubtreeIndexState(target, /*include_top_public=*/true);

    // Blocks rooted inside the subtree die with it; a block the target
    // was carved out of survives and is re-encrypted.
    std::vector<int> dead_blocks;
    original_.Visit(target, [&](NodeId id) {
      const int block = enc_.block_of_node[id];
      if (block >= 0 && scheme_.block_roots[block] == id) {
        dead_blocks.push_back(block);
      }
      if (block >= 0 && original_.IsLeaf(id) &&
          !original_.node(id).value.empty()) {
        touched_value_tags.insert(QualifiedTagOf(original_.node(id)));
      }
    });
    const int container = enc_.block_of_node[target];
    if (container >= 0 && scheme_.block_roots[container] != target) {
      reencrypt_blocks.insert(container);
    }

    for (int block : dead_blocks) {
      TombstoneBlock(block, &skeleton_changed);
      reencrypt_blocks.erase(block);
    }

    XCRYPT_RETURN_NOT_OK(original_.Detach(target));
    if (container < 0) {
      // Public target: detach its skeleton copy (markers of dead blocks
      // inside it were already detached above, in replayable order).
      const NodeId skel = enc_.skeleton_of_node[target];
      if (skel != kNullNode &&
          enc_.database.skeleton.Detach(skel).ok()) {
        if (effects_ != nullptr) effects_->RecordDetach(skel);
        skeleton_changed = true;
      }
    }

    // Everything the subtree contributed goes away; the parent's child
    // runs may merge across the hole.
    ApplyDsiDiff(std::move(removed.contribs), {});
    ApplyPublicDiff(std::move(removed.publics), {});
    ApplyDsiDiff(std::move(parent_runs_before), ParentRuns(parent));
  }

  for (int block : reencrypt_blocks) {
    XCRYPT_RETURN_NOT_OK(ReencryptBlock(block));
    if (effects_ != nullptr) effects_->TouchBlock(block);
  }
  XCRYPT_RETURN_NOT_OK(RebuildValueIndexes(touched_value_tags));
  if (skeleton_changed) CompactSkeletonNow();
  return static_cast<int>(targets.size());
}

Result<std::string> Client::AggregateIndexToken(const PathExpr& path) const {
  if (path.empty()) return Status::InvalidArgument("empty aggregate path");
  const Step& last = path.steps.back();
  const std::string qtag = (last.is_attribute ? "@" : "") + last.tag;
  if (meta_.client.opess.count(qtag) != 0) {
    return TagToken(meta_.client, qtag);
  }
  if (meta_.client.tag_tokens.count(qtag) != 0 &&
      meta_.client.public_tags.count(qtag) == 0) {
    return Status::Unsupported("aggregate over encrypted tag '" + qtag +
                               "' that has no value index");
  }
  return std::string();
}

Result<AggregateAnswer> Client::FinishAggregate(
    const PathExpr& path, const AggregateResponse& response,
    obs::Trace* trace, const CachedBlockSet* cache_set) const {
  if (response.computed_on_server) {
    obs::Span post(trace, "postprocess");
    AggregateAnswer answer;
    answer.kind = response.kind;
    answer.computed_on_server = true;
    answer.value = response.server_value;
    answer.numeric = std::strtod(answer.value.c_str(), nullptr);
    answer.count = static_cast<int64_t>(answer.numeric);
    return answer;
  }
  obs::Span post;  // closes after `nodes` is torn down
  auto nodes = PostProcess(path, response.payload, trace, cache_set);
  if (!nodes.ok()) return nodes.status();
  post = obs::Span(trace, "postprocess");
  std::vector<std::string> values;
  values.reserve(nodes->nodes.size());
  for (const Document& fragment : nodes->nodes) {
    values.push_back(fragment.node(fragment.root()).value);
  }
  return AggregateOverValues(response.kind, values);
}

}  // namespace xcrypt
