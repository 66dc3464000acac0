#ifndef XCRYPT_CORE_CLIENT_H_
#define XCRYPT_CORE_CLIENT_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/aggregate.h"
#include "core/block_cache.h"
#include "core/encryption_scheme.h"
#include "core/encryptor.h"
#include "core/metadata.h"
#include "core/query_translator.h"
#include "core/security_constraint.h"
#include "core/server.h"
#include "core/update_effects.h"
#include "crypto/keychain.h"
#include "xml/document.h"
#include "xpath/ast.h"

namespace xcrypt {

/// The final answer of a query: each matching node as a standalone
/// subtree fragment, in document order.
struct QueryAnswer {
  std::vector<Document> nodes;

  /// Compact serialization of every answer node, sorted — convenient for
  /// comparing against ground truth in tests.
  std::vector<std::string> SerializedSorted() const;
};

/// Evaluates a query directly on a plaintext document — the ground truth
/// the protocol must reproduce (Q(D) in §1).
QueryAnswer GroundTruth(const Document& doc, const PathExpr& query);

/// Final value of an aggregate query.
struct AggregateAnswer {
  AggregateKind kind = AggregateKind::kCount;
  std::string value;      ///< MIN/MAX: the extreme value; COUNT/SUM: number
  int64_t count = 0;      ///< bound-value count (kCount)
  double numeric = 0.0;   ///< numeric rendering where applicable
  bool computed_on_server = false;
};

/// Ground-truth aggregate on the plaintext document.
AggregateAnswer GroundTruthAggregate(const Document& doc,
                                     const PathExpr& path,
                                     AggregateKind kind);

/// The data owner (§1, Figure 1): holds the keys and the plaintext
/// database, produces the encrypted database + metadata for the server,
/// translates queries, and post-processes responses.
class Client {
 public:
  /// Encrypts `doc` under the given scheme kind and builds all metadata.
  static Result<Client> Host(Document doc,
                             std::vector<SecurityConstraint> constraints,
                             SchemeKind kind,
                             const std::string& master_secret);

  // What gets shipped to the server:
  const EncryptedDatabase& database() const { return enc_.database; }
  const Metadata& metadata() const { return meta_.server; }

  // Client-side state:
  const Document& original() const { return original_; }
  const EncryptionScheme& scheme() const { return scheme_; }
  const EncryptionResult& encryption() const { return enc_; }
  const ClientIndexMeta& index_meta() const { return meta_.client; }
  const KeyChain& keys() const { return *keys_; }
  const std::vector<SecurityConstraint>& constraints() const {
    return constraints_;
  }

  /// Wall-clock spent encrypting / building metadata during Host().
  double encrypt_micros() const { return encrypt_micros_; }
  double metadata_micros() const { return metadata_micros_; }

  /// Translates Q into the encrypted query Qs (§6.1).
  Result<TranslatedQuery> Translate(const PathExpr& query) const;

  /// Post-processing (§6.4): decrypts the response blocks, splices them
  /// into the pruned skeleton, removes decoys, and re-applies the query —
  /// the full original query when the server flagged conservative
  /// predicate resolution, otherwise the query with only the output step's
  /// predicates (the server verified the rest exactly).
  /// A trace, when given, gets one top-level span per step: "skeleton-parse",
  /// "decrypt", "cache-fill", "splice" and "postprocess" (§7.2 reports
  /// decryption apart from post-processing; see CostsFromTrace).
  /// `cache_set`, when given, resolves the response's id-only stubs
  /// (cached_ids) from the pinned payloads of the advertisement that
  /// accompanied the query; a stub with no pinned payload is a protocol
  /// error. Freshly decrypted blocks are inserted into the block cache
  /// when one is enabled.
  Result<QueryAnswer> PostProcess(const PathExpr& original_query,
                                  const ServerResponse& response,
                                  obs::Trace* trace = nullptr,
                                  const CachedBlockSet* cache_set =
                                      nullptr) const;

  /// Value-index token for the query's output tag, or "" when the target
  /// values are public. Fails when the target is encrypted but carries no
  /// value index (aggregating element subtrees is meaningless).
  Result<std::string> AggregateIndexToken(const PathExpr& path) const;

  /// Finishes an aggregate (§6.4): takes the server's reply, decrypts any
  /// shipped blocks, and computes the final value. The trace gets
  /// PostProcess's spans plus a "postprocess" span for the aggregation.
  Result<AggregateAnswer> FinishAggregate(const PathExpr& path,
                                          const AggregateResponse& response,
                                          obs::Trace* trace = nullptr,
                                          const CachedBlockSet* cache_set =
                                              nullptr) const;

  // --- Block cache (wire v3) -------------------------------------------

  /// Enables (or resizes) the bounded LRU cache of decrypted blocks;
  /// 0 disables it. Resizing drops current contents.
  void EnableBlockCache(int64_t max_bytes);

  /// The cache, or nullptr when disabled.
  const BlockCache* block_cache() const { return cache_.get(); }

  /// Snapshot of the cached (id, generation) set with payloads pinned —
  /// attach `adverts` to the outgoing query and hand the whole set back to
  /// PostProcess. Returns an empty set when the cache is disabled. The
  /// trace, when given, gets a "cache-probe" span.
  CachedBlockSet AdvertiseCachedBlocks(obs::Trace* trace = nullptr) const;

  // --- Updates (the paper's future-work item (3)) -----------------------
  //
  // All three edit kinds are incremental. Value updates re-encrypt only
  // the blocks containing updated leaves and rebuild only the affected
  // tags' value indexes; the DSI index is untouched because the tree
  // shape is unchanged. Structural edits (insert/delete of subtrees)
  // assign DSI intervals for inserted nodes out of the gap the parent's
  // interval construction guarantees past its last child, falling back to
  // re-intervalling the enclosing subtree when repeated inserts exhaust a
  // gap; deletes tombstone fully-contained blocks and re-encrypt the one
  // container block a target was carved out of. Inserted subtrees are
  // encrypted whole (a superset of any freshly built scheme, so every
  // security constraint stays enforced).

  /// Sets the value of every leaf the path binds to. Returns the number of
  /// updated nodes. Fails if the path binds a non-leaf.
  Result<int> UpdateValues(const PathExpr& path, const std::string& value);

  /// Inserts a copy of `fragment` as the last child of the first node the
  /// path binds to. The fragment becomes part of the parent's block, or a
  /// new block of its own when the parent is public.
  Status InsertSubtree(const PathExpr& parent_path, const Document& fragment);

  /// Detaches every node the path binds to (nested targets are subsumed
  /// by their outermost ancestor). Returns the number of matched subtrees.
  Result<int> DeleteSubtrees(const PathExpr& path);

  // --- Delta recording (incremental update subsystem) -------------------

  /// Starts mirroring every update's side effects into `effects`, in the
  /// vocabulary a delta bundle ships (storage/update). The recorder must
  /// outlive the recording window.
  void BeginRecording(UpdateEffects* effects) { effects_ = effects; }
  void EndRecording() { effects_ = nullptr; }

  /// Drops specific blocks from the decrypted-block cache — the client's
  /// reaction to a server-pushed invalidation event (wire v5). Unknown ids
  /// are ignored; over-invalidation is always safe.
  void InvalidateCachedBlocks(const std::vector<int>& ids) const;

  /// Drops the whole cache (server lost track of what we hold).
  void InvalidateAllCachedBlocks() const;

 private:
  Client() = default;

  /// Re-runs scheme construction, encryption, and metadata building over
  /// the (modified) original document with the existing keys. Kept as the
  /// sledgehammer path (key rotation, scheme changes); the update methods
  /// above no longer use it.
  Status Rehost();

  /// Re-encrypts one block from the current original document under a
  /// fresh nonce (epoch-versioned so ciphertexts never repeat).
  Status ReencryptBlock(int block_id);

  /// Empties a block whose subtree was deleted: ciphertext cleared,
  /// generation bumped (so stale adverts can never match), marker
  /// detached, block-table entry dropped.
  void TombstoneBlock(int block_id, bool* skeleton_changed);

  /// Rebuilds (or erases, when a tag no longer occurs) the value indexes
  /// of `tags` with fresh epoch-derived randomness.
  Status RebuildValueIndexes(const std::set<std::string>& tags);

  /// Everything about `top`'s subtree that a structural edit can change:
  /// its nodes' grouped DSI-table contributions, public-map entries, and
  /// the representatives of blocks rooted strictly inside.
  struct SubtreeIndexState {
    std::vector<std::pair<std::string, Interval>> contribs;
    std::vector<std::pair<Interval, NodeId>> publics;
    std::vector<std::pair<int, Interval>> block_reps;
  };
  SubtreeIndexState CaptureSubtreeIndexState(NodeId top,
                                             bool include_top_public) const;

  /// Applies old-vs-new diffs to the server tables, recording each change.
  void ApplyDsiDiff(std::vector<std::pair<std::string, Interval>> before,
                    std::vector<std::pair<std::string, Interval>> after);
  void ApplyPublicDiff(std::vector<std::pair<Interval, NodeId>> before,
                       std::vector<std::pair<Interval, NodeId>> after);

  /// Reassigns the intervals of every descendant of `top` (its own
  /// interval stays fixed) per the paper's CalIntervals construction.
  void AssignSubtreeChildIntervals(NodeId top, Rng& rng);

  /// Grouped DSI-table contributions of `parent`'s current child list.
  std::vector<std::pair<std::string, Interval>> ParentRuns(NodeId parent)
      const;

  /// Rebuilds the skeleton arena without detached nodes and remaps every
  /// id-bearing structure (markers, public map, skeleton_of_node).
  void CompactSkeletonNow();

  Document original_;
  std::vector<SecurityConstraint> constraints_;
  EncryptionScheme scheme_;
  EncryptionResult enc_;
  HostedMetadata meta_;
  std::unique_ptr<KeyChain> keys_;
  /// Decrypted-block cache (wire v3); nullptr when disabled. Mutable: the
  /// const query path (PostProcess) warms it, and the cache is internally
  /// synchronized.
  mutable std::unique_ptr<BlockCache> cache_;
  double encrypt_micros_ = 0.0;
  double metadata_micros_ = 0.0;
  int update_epoch_ = 0;
  /// Active delta recorder; nullptr outside a recording window. Not
  /// owned.
  UpdateEffects* effects_ = nullptr;
};

}  // namespace xcrypt

#endif  // XCRYPT_CORE_CLIENT_H_
