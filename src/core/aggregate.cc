#include "core/aggregate.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "index/structural_join.h"

#include "xml/stats.h"

namespace xcrypt {

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
  }
  return "?";
}

Result<EngineAggregateResult> ServerEngine::ExecuteAggregate(
    const TranslatedQuery& query, AggregateKind kind,
    const std::string& index_token, const ExecOptions& opts) const {
  obs::QueryContext* ctx = opts.ctx;
  const std::span<const BlockAdvert> cached_blocks = opts.cached_blocks;
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty aggregate query");
  }
  if (ctx != nullptr && ctx->Expired()) {
    return Status::Unavailable("deadline expired before server execution");
  }
  obs::Trace* trace = obs::TraceOf(ctx);
  obs::Span server_span(trace, "server");
  XCRYPT_RETURN_NOT_OK(EnsureReady());

  AggregateResponse response;
  response.kind = kind;

  // Plan-cache probe (same protocol as Execute): the cacheable outcome is
  // either a server-computed value or the ship roots feeding assembly;
  // assembly itself re-runs because it depends on the caller's advertised
  // block cache. The aggregate kind and index token join the key — the
  // same path shape drives different pipelines per kind.
  const std::string plan_key = std::string("agg|") + AggregateKindName(kind) +
                               "|" + index_token + "|g" +
                               std::to_string(data_generation_) + "|" +
                               PlanShapeKey(query);
  if (std::shared_ptr<const CachedPlan> plan = plan_cache_.Lookup(plan_key)) {
    if (plan_hit_ != nullptr) plan_hit_->Add();
    { obs::Span cached(trace, "plan-cache"); }
    if (plan->computed_on_server) {
      response.computed_on_server = true;
      response.server_value = plan->server_value;
    } else {
      obs::Span assemble(trace, "assemble");
      response.payload = AssembleResponse(
          plan->ship_roots, plan->requires_full_requery, cached_blocks);
    }
    return EngineAggregateResult{std::move(response), {}};
  }
  if (plan_miss_ != nullptr) plan_miss_->Add();
  auto remember = [&](const AggregateResponse& computed,
                      std::vector<Interval> ship_roots,
                      bool requires_full_requery) {
    auto plan = std::make_shared<CachedPlan>();
    plan->ship_roots = std::move(ship_roots);
    plan->requires_full_requery = requires_full_requery;
    plan->computed_on_server = computed.computed_on_server;
    plan->server_value = computed.server_value;
    plan_cache_.Insert(plan_key, std::move(plan));
  };

  bool conservative = false;
  auto lists_result = ForwardPass(query.steps, {}, /*from_document_root=*/true,
                                  &conservative, ctx);
  if (!lists_result.ok()) return lists_result.status();
  const std::vector<std::vector<Interval>>& lists = *lists_result;
  const std::vector<Interval>& targets = lists.back();
  if (targets.empty()) {
    response.computed_on_server = true;
    response.server_value = (kind == AggregateKind::kCount ||
                             kind == AggregateKind::kSum)
                                ? "0"
                                : "";
    remember(response, {}, false);
    return EngineAggregateResult{std::move(response), {}};
  }

  if (index_token.empty()) {
    // Public target values: compute the aggregate on the skeleton. With
    // conservative predicate resolution the count could over-approximate,
    // so fall back to shipping in that case.
    if (!conservative) {
      obs::Span compute(trace, "aggregate-compute");
      std::vector<std::string> values;
      bool all_public = true;
      for (const Interval& t : targets) {
        auto it = meta_->public_interval_to_node.find(t);
        if (it == meta_->public_interval_to_node.end()) {
          all_public = false;
          break;
        }
        values.push_back(db_->skeleton.node(it->second).value);
      }
      if (all_public) {
        response.computed_on_server = true;
        switch (kind) {
          case AggregateKind::kCount:
            response.server_value = std::to_string(values.size());
            break;
          case AggregateKind::kSum: {
            double sum = 0.0;
            for (const std::string& v : values) {
              sum += std::strtod(v.c_str(), nullptr);
            }
            response.server_value = std::to_string(sum);
            break;
          }
          case AggregateKind::kMin:
          case AggregateKind::kMax: {
            auto cmp = [](const std::string& a, const std::string& b) {
              return ValueLess(a, b);
            };
            response.server_value =
                (kind == AggregateKind::kMin)
                    ? *std::min_element(values.begin(), values.end(), cmp)
                    : *std::max_element(values.begin(), values.end(), cmp);
            break;
          }
        }
        remember(response, {}, false);
        return EngineAggregateResult{std::move(response), {}};
      }
    }
    // Mixed/conservative public case: ship the target subtrees.
    remember(response, targets, conservative);
    {
      obs::Span assemble(trace, "assemble");
      response.payload = AssembleResponse(targets, /*requires_full_requery=*/
                                          conservative, cached_blocks);
    }
    return EngineAggregateResult{std::move(response), {}};
  }

  // Encrypted target values.
  const BPlusTree* tree = ValueIndex(index_token);
  if (tree == nullptr) {
    return Status::NotFound("no value index for token " + index_token);
  }

  if ((kind == AggregateKind::kMin || kind == AggregateKind::kMax) &&
      !conservative) {
    // Order-preserving index: walk entries from the extreme end; the first
    // block structurally related to a target contains the extreme value.
    // (With conservative predicate resolution the target set may contain
    // false positives, so this shortcut is skipped and the client
    // finishes from the shipped blocks below.)
    obs::Span opess(trace, "opess-scan");
    const auto entries = tree->RangeScan(INT64_MIN, INT64_MAX);
    auto related = [&](int block_id) {
      const Interval* rep = meta_->block_table.RepresentativeOf(block_id);
      if (rep == nullptr) return false;
      for (const Interval& t : targets) {
        if (t == *rep || t.ProperlyInside(*rep) || rep->ProperlyInside(t)) {
          return true;
        }
      }
      return false;
    };
    int extreme_block = -1;
    if (kind == AggregateKind::kMin) {
      for (const BTreeEntry& e : entries) {
        if (related(e.block_id)) {
          extreme_block = e.block_id;
          break;
        }
      }
    } else {
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (related(it->block_id)) {
          extreme_block = it->block_id;
          break;
        }
      }
    }
    opess.End();
    if (extreme_block < 0) {
      response.computed_on_server = true;
      remember(response, {}, false);
      return EngineAggregateResult{std::move(response), {}};
    }
    const Interval* rep = meta_->block_table.RepresentativeOf(extreme_block);
    remember(response, {*rep}, false);
    {
      obs::Span assemble(trace, "assemble");
      response.payload =
          AssembleResponse({*rep}, /*requires_full_requery=*/false,
                           cached_blocks);
    }
    return EngineAggregateResult{std::move(response), {}};
  }

  // COUNT / SUM: splitting and scaling hide cardinalities — ship every
  // target (with covering blocks) for client-side finishing (§6.4).
  std::vector<Interval> ship = targets;
  if (conservative) {
    obs::Span backprune(trace, "structural-join");
    std::vector<Interval> prev = targets;
    for (size_t k = lists.size() - 1; k-- > 0;) {
      prev = StructuralJoin::FilterAncestors(lists[k], prev);
    }
    ship = std::move(prev);
  }
  remember(response, ship, conservative);
  {
    obs::Span assemble(trace, "assemble");
    response.payload = AssembleResponse(ship, conservative, cached_blocks);
  }
  return EngineAggregateResult{std::move(response), {}};
}

}  // namespace xcrypt
