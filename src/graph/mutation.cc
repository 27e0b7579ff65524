#include "graph/mutation.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/random.h"

namespace gum::graph {

namespace {

// Overlay sizing model: a directory slot per touched vertex plus the
// segment entries themselves — what an epoch barrier ships to the owners.
constexpr size_t kDeltaDirectoryBytes = 16;               // id + two offsets
constexpr size_t kAddedEdgeBytes = sizeof(VertexId) + sizeof(float);
constexpr size_t kDeleteMarkBytes = sizeof(VertexId);

std::vector<std::string> SplitEvents(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t semi = spec.find(';', start);
    if (semi == std::string::npos) {
      out.push_back(spec.substr(start));
      break;
    }
    out.push_back(spec.substr(start, semi - start));
    start = semi + 1;
  }
  return out;
}

Status ParseNumber(const std::string& text, const std::string& token,
                   int64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument("mutation plan: missing number in \"" +
                                   token + "\"");
  }
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("mutation plan: malformed number \"" +
                                   text + "\" in \"" + token + "\"");
  }
  *out = value;
  return Status::OK();
}

Status ParseWeight(const std::string& text, const std::string& token,
                   float* out) {
  if (text.empty()) {
    return Status::InvalidArgument("mutation plan: missing weight in \"" +
                                   token + "\"");
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("mutation plan: malformed weight \"" +
                                   text + "\" in \"" + token + "\"");
  }
  *out = static_cast<float>(value);
  return Status::OK();
}

// Parses "<u>-<v>@<epoch>[x<weight>]" / "<u>@<epoch>" payloads.
Status ParseEndpoints(const std::string& body, const std::string& token,
                      bool two_endpoints, bool allow_weight,
                      MutationEvent* ev) {
  const size_t at = body.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument("mutation plan: missing '@<epoch>' in \"" +
                                   token + "\"");
  }
  const std::string ends = body.substr(0, at);
  std::string tail = body.substr(at + 1);
  int64_t u = 0;
  int64_t v = 0;
  if (two_endpoints) {
    const size_t dash = ends.find('-');
    if (dash == std::string::npos) {
      return Status::InvalidArgument(
          "mutation plan: expected '<u>-<v>' in \"" + token + "\"");
    }
    GUM_RETURN_IF_ERROR(ParseNumber(ends.substr(0, dash), token, &u));
    GUM_RETURN_IF_ERROR(ParseNumber(ends.substr(dash + 1), token, &v));
  } else {
    GUM_RETURN_IF_ERROR(ParseNumber(ends, token, &u));
  }
  float weight = 1.0f;
  const size_t x = tail.find('x');
  if (x != std::string::npos) {
    if (!allow_weight) {
      return Status::InvalidArgument(
          "mutation plan: weight suffix not allowed in \"" + token + "\"");
    }
    GUM_RETURN_IF_ERROR(ParseWeight(tail.substr(x + 1), token, &weight));
    tail = tail.substr(0, x);
  }
  int64_t epoch = 0;
  GUM_RETURN_IF_ERROR(ParseNumber(tail, token, &epoch));
  if (u < 0 || v < 0) {
    return Status::InvalidArgument("mutation plan: negative vertex in \"" +
                                   token + "\"");
  }
  if (epoch < 1) {
    return Status::InvalidArgument(
        "mutation plan: epoch must be >= 1 in \"" + token + "\"");
  }
  ev->u = static_cast<VertexId>(u);
  ev->v = static_cast<VertexId>(v);
  ev->epoch = static_cast<int>(epoch);
  ev->weight = weight;
  return Status::OK();
}

Status ParseRandSpec(const std::string& body, const std::string& token,
                     int* epochs, int* per_epoch) {
  const size_t x = body.find('x');
  if (x == std::string::npos) {
    return Status::InvalidArgument(
        "mutation plan: expected '<epochs>x<per-epoch>' in \"" + token +
        "\"");
  }
  int64_t e = 0;
  int64_t b = 0;
  GUM_RETURN_IF_ERROR(ParseNumber(body.substr(0, x), token, &e));
  GUM_RETURN_IF_ERROR(ParseNumber(body.substr(x + 1), token, &b));
  if (e < 1 || b < 1) {
    return Status::InvalidArgument(
        "mutation plan: rand epochs and per-epoch count must be >= 1 in \"" +
        token + "\"");
  }
  *epochs = static_cast<int>(e);
  *per_epoch = static_cast<int>(b);
  return Status::OK();
}

// Locates the source vertex of global edge index `idx` by binary search
// over the CSR offsets.
VertexId EdgeSource(const CsrGraph& g, EdgeId idx) {
  VertexId lo = 0;
  VertexId hi = g.num_vertices();
  while (lo + 1 < hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (g.OutEdgeBase(mid) <= idx) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

const char* MutationKindName(MutationKind kind) {
  switch (kind) {
    case MutationKind::kInsertEdge:
      return "ins";
    case MutationKind::kDeleteEdge:
      return "del";
    case MutationKind::kDeleteVertex:
      return "delv";
  }
  return "unknown";
}

std::string MutationEvent::Describe() const {
  std::ostringstream os;
  os << MutationKindName(kind) << ":" << u;
  if (kind != MutationKind::kDeleteVertex) os << "-" << v;
  os << "@" << epoch;
  if (kind == MutationKind::kInsertEdge && weight != 1.0f) os << "x" << weight;
  return os.str();
}

Result<MutationPlan> MutationPlan::Parse(const std::string& spec) {
  MutationPlan plan;
  if (spec.empty() || spec == "none") return plan;
  for (const std::string& token : SplitEvents(spec)) {
    if (token.empty() || token == "none") continue;
    const size_t colon = token.find(':');
    const std::string kind =
        colon == std::string::npos ? token : token.substr(0, colon);
    const std::string body =
        colon == std::string::npos ? std::string() : token.substr(colon + 1);
    if (kind == "rand" || kind == "rand-ins") {
      if (plan.random_) {
        return Status::InvalidArgument(
            "mutation plan: more than one rand generator in \"" + spec +
            "\"");
      }
      GUM_RETURN_IF_ERROR(ParseRandSpec(body, token, &plan.random_epochs_,
                                        &plan.random_per_epoch_));
      plan.random_ = true;
      plan.random_inserts_only_ = kind == "rand-ins";
      continue;
    }
    MutationEvent ev;
    if (kind == "ins") {
      ev.kind = MutationKind::kInsertEdge;
      GUM_RETURN_IF_ERROR(ParseEndpoints(body, token, /*two_endpoints=*/true,
                                         /*allow_weight=*/true, &ev));
    } else if (kind == "del") {
      ev.kind = MutationKind::kDeleteEdge;
      GUM_RETURN_IF_ERROR(ParseEndpoints(body, token, /*two_endpoints=*/true,
                                         /*allow_weight=*/false, &ev));
    } else if (kind == "delv") {
      ev.kind = MutationKind::kDeleteVertex;
      GUM_RETURN_IF_ERROR(ParseEndpoints(body, token, /*two_endpoints=*/false,
                                         /*allow_weight=*/false, &ev));
    } else {
      return Status::InvalidArgument("mutation plan: unknown event kind \"" +
                                     kind + "\" in \"" + token + "\"");
    }
    plan.events_.push_back(ev);
  }
  if (plan.random_ && !plan.events_.empty()) {
    return Status::InvalidArgument(
        "mutation plan: rand generators cannot be combined with explicit "
        "events");
  }
  return plan;
}

Result<MutationStream> MutationStream::Create(const MutationPlan& plan,
                                              const CsrGraph& base,
                                              uint64_t seed) {
  MutationStream stream;
  const VertexId num_v = base.num_vertices();
  std::vector<MutationEvent> events = plan.events_;
  if (plan.random_) {
    if (num_v < 2) {
      return Status::InvalidArgument(
          "mutation plan: rand generator needs at least 2 vertices");
    }
    Rng rng(seed);
    for (int epoch = 1; epoch <= plan.random_epochs_; ++epoch) {
      for (int i = 0; i < plan.random_per_epoch_; ++i) {
        const bool insert = plan.random_inserts_only_ ||
                            base.num_edges() == 0 || rng.NextBounded(4) != 0;
        MutationEvent ev;
        ev.epoch = epoch;
        if (insert) {
          ev.kind = MutationKind::kInsertEdge;
          ev.u = static_cast<VertexId>(rng.NextBounded(num_v));
          ev.v = static_cast<VertexId>(rng.NextBounded(num_v));
          if (ev.u == ev.v) ev.v = (ev.v + 1) % num_v;
        } else {
          // Deletes sample the *base* edge set; a later re-sample of an
          // already-deleted edge is a no-op, which keeps the expansion a
          // pure function of (base, seed).
          ev.kind = MutationKind::kDeleteEdge;
          const EdgeId idx = rng.NextBounded(base.num_edges());
          ev.u = EdgeSource(base, idx);
          ev.v = base.OutNeighbors(ev.u)[idx - base.OutEdgeBase(ev.u)];
        }
        events.push_back(ev);
      }
    }
  }
  for (const MutationEvent& ev : events) {
    if (ev.u >= num_v ||
        (ev.kind != MutationKind::kDeleteVertex && ev.v >= num_v)) {
      return Status::InvalidArgument("mutation plan: vertex out of range in " +
                                     ev.Describe());
    }
    if (ev.epoch < 1) {
      return Status::InvalidArgument("mutation plan: epoch must be >= 1 in " +
                                     ev.Describe());
    }
    stream.num_epochs_ = std::max(stream.num_epochs_, ev.epoch);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MutationEvent& a, const MutationEvent& b) {
                     return a.epoch < b.epoch;
                   });
  stream.events_ = std::move(events);
  stream.epoch_offsets_.assign(static_cast<size_t>(stream.num_epochs_) + 2, 0);
  for (const MutationEvent& ev : stream.events_) {
    ++stream.epoch_offsets_[static_cast<size_t>(ev.epoch) + 1];
  }
  for (size_t i = 1; i < stream.epoch_offsets_.size(); ++i) {
    stream.epoch_offsets_[i] += stream.epoch_offsets_[i - 1];
  }
  return stream;
}

std::span<const MutationEvent> MutationStream::BatchAt(int epoch) const {
  if (epoch < 1 || epoch > num_epochs_) return {};
  const size_t begin = epoch_offsets_[static_cast<size_t>(epoch)];
  const size_t end = epoch_offsets_[static_cast<size_t>(epoch) + 1];
  return {events_.data() + begin, end - begin};
}

std::string MutationStream::Describe() const {
  if (events_.empty()) return "none";
  std::string out;
  for (const MutationEvent& ev : events_) {
    if (!out.empty()) out += ";";
    out += ev.Describe();
  }
  return out;
}

DeltaCsr::DeltaCsr(const CsrGraph* base, bool symmetric)
    : base_(base),
      symmetric_(symmetric),
      added_(base->num_vertices()),
      deleted_(base->num_vertices()) {}

bool DeltaCsr::HasEdge(VertexId u, VertexId v) const {
  const auto& adds = added_[u];
  const auto it = std::lower_bound(
      adds.begin(), adds.end(), v,
      [](const AddedEdge& e, VertexId t) { return e.dst < t; });
  if (it != adds.end() && it->dst == v) return true;
  const auto targets = base_->OutNeighbors(u);
  const auto bt = std::lower_bound(targets.begin(), targets.end(), v);
  if (bt == targets.end() || *bt != v) return false;
  const auto& dels = deleted_[u];
  return !std::binary_search(dels.begin(), dels.end(), v);
}

float DeltaCsr::EdgeWeight(VertexId u, VertexId v) const {
  const auto& adds = added_[u];
  const auto it = std::lower_bound(
      adds.begin(), adds.end(), v,
      [](const AddedEdge& e, VertexId t) { return e.dst < t; });
  if (it != adds.end() && it->dst == v) return it->weight;
  const auto targets = base_->OutNeighbors(u);
  const auto bt = std::lower_bound(targets.begin(), targets.end(), v);
  GUM_CHECK(bt != targets.end() && *bt == v) << "EdgeWeight on missing edge";
  const auto weights = base_->OutWeights(u);
  return weights.empty() ? 1.0f
                         : weights[static_cast<size_t>(bt - targets.begin())];
}

uint32_t DeltaCsr::OutDegree(VertexId u) const {
  return base_->OutDegree(u) -
         static_cast<uint32_t>(deleted_[u].size()) +
         static_cast<uint32_t>(added_[u].size());
}

DeltaCsr::Effect DeltaCsr::ApplyEdge(MutationKind kind, VertexId u, VertexId v,
                                     float weight, float* weight_out) {
  GUM_CHECK(kind != MutationKind::kDeleteVertex)
      << "delv must be expanded by the caller";
  if (kind == MutationKind::kInsertEdge) {
    if (u == v) return Effect::kNoop;  // base strips self loops
    if (HasEdge(u, v)) return Effect::kNoop;
    auto& adds = added_[u];
    const auto it = std::lower_bound(
        adds.begin(), adds.end(), v,
        [](const AddedEdge& e, VertexId t) { return e.dst < t; });
    adds.insert(it, AddedEdge{v, weight});
    ++added_count_;
    return Effect::kInserted;
  }
  // Delete: a segment edge is removed outright; a base edge gets a mark.
  auto& adds = added_[u];
  const auto it = std::lower_bound(
      adds.begin(), adds.end(), v,
      [](const AddedEdge& e, VertexId t) { return e.dst < t; });
  if (it != adds.end() && it->dst == v) {
    if (weight_out != nullptr) *weight_out = it->weight;
    adds.erase(it);
    --added_count_;
    return Effect::kDeleted;
  }
  const auto targets = base_->OutNeighbors(u);
  const auto bt = std::lower_bound(targets.begin(), targets.end(), v);
  if (bt == targets.end() || *bt != v) return Effect::kNoop;
  auto& dels = deleted_[u];
  const auto dit = std::lower_bound(dels.begin(), dels.end(), v);
  if (dit != dels.end() && *dit == v) return Effect::kNoop;  // already gone
  if (weight_out != nullptr) {
    const auto weights = base_->OutWeights(u);
    *weight_out = weights.empty()
                      ? 1.0f
                      : weights[static_cast<size_t>(bt - targets.begin())];
  }
  dels.insert(dit, v);
  ++deleted_count_;
  return Effect::kDeleted;
}

size_t DeltaCsr::touched_vertices() const {
  size_t touched = 0;
  for (VertexId v = 0; v < base_->num_vertices(); ++v) {
    if (!added_[v].empty() || !deleted_[v].empty()) ++touched;
  }
  return touched;
}

size_t DeltaCsr::delta_bytes() const {
  return touched_vertices() * kDeltaDirectoryBytes +
         added_count_ * kAddedEdgeBytes + deleted_count_ * kDeleteMarkBytes;
}

CsrGraph DeltaCsr::Compact() const {
  const VertexId n = base_->num_vertices();
  const size_t num_edges = base_->num_edges() + added_count_ - deleted_count_;
  std::vector<EdgeId> offsets(n + 1, 0);
  std::vector<VertexId> targets;
  std::vector<float> weights;
  targets.reserve(num_edges);
  weights.reserve(num_edges);
  for (VertexId u = 0; u < n; ++u) {
    ForEachOut(u, [&](VertexId v, float w) {
      targets.push_back(v);
      weights.push_back(w);
    });
    offsets[u + 1] = targets.size();
  }
  return CsrGraph::Assemble(std::move(offsets), std::move(targets),
                            std::move(weights));
}

DynamicGraph::DynamicGraph(CsrGraph base, bool symmetric)
    : base_(std::make_unique<CsrGraph>(std::move(base))),
      delta_(std::make_unique<DeltaCsr>(base_.get(), symmetric)),
      symmetric_(symmetric) {}

DynamicGraph::ApplyStats DynamicGraph::Apply(
    std::span<const MutationEvent> batch) {
  ApplyStats stats;
  const auto record = [&](MutationKind kind, VertexId u, VertexId v,
                          int epoch, float weight, DeltaCsr::Effect effect) {
    switch (effect) {
      case DeltaCsr::Effect::kNoop:
        ++stats.noops;
        return;
      case DeltaCsr::Effect::kInserted:
        ++stats.inserted;
        break;
      case DeltaCsr::Effect::kDeleted:
        ++stats.deleted;
        break;
    }
    stats.effective.push_back(MutationEvent{kind, u, v, epoch, weight});
    stats.affected.push_back(u);
    stats.affected.push_back(v);
  };
  const auto apply_edge = [&](MutationKind kind, VertexId u, VertexId v,
                              int epoch, float weight) {
    float w = weight;
    const DeltaCsr::Effect effect = delta_->ApplyEdge(kind, u, v, weight, &w);
    record(kind, u, v, epoch, w, effect);
    if (symmetric_ && u != v) {
      float wm = weight;
      const DeltaCsr::Effect mirror =
          delta_->ApplyEdge(kind, v, u, weight, &wm);
      record(kind, v, u, epoch, wm, mirror);
    }
  };
  for (const MutationEvent& ev : batch) {
    if (ev.kind == MutationKind::kDeleteVertex) {
      // Expand to per-edge deletes over the *current* logical adjacency:
      // out-edges, then (directed graphs) base in-edges and added segments
      // pointing at u. Symmetric graphs are covered by the out pass plus
      // mirroring inside apply_edge.
      std::vector<VertexId> outs;
      delta_->ForEachOut(ev.u, [&](VertexId t, float) { outs.push_back(t); });
      for (const VertexId t : outs) {
        apply_edge(MutationKind::kDeleteEdge, ev.u, t, ev.epoch, 1.0f);
      }
      if (!symmetric_) {
        for (const VertexId src : base_->InNeighbors(ev.u)) {
          apply_edge(MutationKind::kDeleteEdge, src, ev.u, ev.epoch, 1.0f);
        }
        // Every base in-edge of u is now deleted, so the in-edges left sit
        // in added segments: visit the sources that have one, ascending.
        const auto& added = delta_->added_;
        for (VertexId src = 0; src < added.size(); ++src) {
          const auto& adds = added[src];
          if (adds.empty() || src == ev.u) continue;
          const auto it = std::lower_bound(
              adds.begin(), adds.end(), ev.u,
              [](const auto& e, VertexId t) { return e.dst < t; });
          if (it != adds.end() && it->dst == ev.u) {
            apply_edge(MutationKind::kDeleteEdge, src, ev.u, ev.epoch, 1.0f);
          }
        }
      }
    } else {
      apply_edge(ev.kind, ev.u, ev.v, ev.epoch, ev.weight);
    }
  }
  std::sort(stats.affected.begin(), stats.affected.end());
  stats.affected.erase(
      std::unique(stats.affected.begin(), stats.affected.end()),
      stats.affected.end());
  stats.delta_bytes = delta_->delta_bytes();
  ++epochs_applied_;
  return stats;
}

void DynamicGraph::Compact() {
  auto flat = std::make_unique<CsrGraph>(delta_->Compact());
  base_ = std::move(flat);
  delta_ = std::make_unique<DeltaCsr>(base_.get(), symmetric_);
}

}  // namespace gum::graph
