#include "src/dyn/merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/dyn/tail_cache.h"
#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace pnn {
namespace dyn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q) {
  // Each part computes the exact same per-point values a monolithic index
  // would, so the min over the partition equals the monolithic min.
  double bound = kInf;
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    bound = std::min(bound, bref.bucket->engine().NonzeroDelta(q, bref.dead.get()));
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i)) bound = std::min(bound, tail[i].point.MaxDistance(q));
    }
  }
  return bound;
}

std::vector<Id> MergedNonzeroNN(const Snapshot& snap, Point2 q) {
  std::vector<Id> out;
  MergedNonzeroNNInto(snap, q, &out);
  return out;
}

void MergedNonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out) {
  out->clear();
  if (snap.live_count == 0) return;
  double bound = SnapshotNonzeroDelta(snap, q);
  bool mixed = snap.discrete_count > 0 && snap.continuous_count > 0;
  util::ScratchVec<int> locals_lease;
  std::vector<int>& locals = *locals_lease;
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    const Bucket& b = *bref.bucket;
    b.engine().NonzeroNNWithinInto(q, bound, bref.dead.get(), &locals);
    for (int local : locals) {
      // A mixed live set's reference engine compares the clamped
      // MinDistance (brute-force path), which only differs from the disk
      // index's unclamped d - r when both are negative — re-filter to
      // match exactly.
      if (mixed && !(b.points()[local].MinDistance(q) < bound)) continue;
      out->push_back(b.ids()[local]);
    }
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i) && tail[i].point.MinDistance(q) < bound) {
        out->push_back(tail[i].id);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids) {
  std::vector<std::pair<Id, const UncertainPoint*>> live;
  live.reserve(snap.live_count);
  for (const auto& bref : snap.buckets) {
    for (size_t j = 0; j < bref.bucket->size(); ++j) {
      if (bref.dead && (*bref.dead)[j]) continue;
      live.push_back({bref.bucket->ids()[j], &bref.bucket->points()[j]});
    }
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i)) live.push_back({tail[i].id, &tail[i].point});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  UncertainSet out;
  out.reserve(live.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(live.size());
  }
  for (const auto& [id, p] : live) {
    out.push_back(*p);
    if (ids != nullptr) ids->push_back(id);
  }
  return out;
}

namespace {

// One element of the merged location stream, carrying everything the
// sweep's bookkeeping needs about its owner.
struct SourceLoc {
  double dist;
  Id id;
  double weight;
  int k;  // Owner's total location count.
};

// A distance-ascending location source: either a bucket's best-first
// spiral stream or a range of a pre-sorted shared scratch vector (mixed
// buckets' live members and the tail, merged into one sorted source).
struct Source {
  const Bucket* bucket = nullptr;  // Set for stream sources.
  std::optional<SpiralSearchPNN::Stream> stream;
  const SourceLoc* sorted = nullptr;
  size_t sorted_n = 0;
  size_t pos = 0;
  SourceLoc cur{};
  bool has = false;

  void Advance() {
    if (stream.has_value()) {
      double d, w;
      int o;
      if (stream->Next(&d, &o, &w)) {
        const SpiralSearchPNN* sp = bucket->engine().spiral();
        cur = {d, bucket->ids()[o], w, sp->count(o)};
        has = true;
      } else {
        has = false;
      }
    } else if (pos < sorted_n) {
      cur = sorted[pos++];
      has = true;
    } else {
      has = false;
    }
  }
};

void AppendDiscreteLocations(const UncertainPoint& p, Id id, Point2 q,
                             std::vector<SourceLoc>* out) {
  const auto& d = p.discrete();
  int k = static_cast<int>(d.locations.size());
  for (size_t s = 0; s < d.locations.size(); ++s) {
    out->push_back({Distance(q, d.locations[s]), id, d.weights[s], k});
  }
}

}  // namespace

std::vector<Quantification> MergedSpiralQuantify(const Snapshot& snap, Point2 q,
                                                 double eps) {
  std::vector<Quantification> out;
  MergedSpiralQuantifyInto(snap, q, eps, &out);
  return out;
}

void MergedSpiralQuantifyInto(const Snapshot& snap, Point2 q, double eps,
                              std::vector<Quantification>* out) {
  out->clear();
  if (snap.live_count == 0) return;  // Every part dead (or none): no stream.
  PNN_CHECK_MSG(snap.all_discrete(), "spiral merge needs an all-discrete live set");
  size_t m = SpiralSearchPNN::RetrievalBoundFor(snap.rho, snap.max_k, eps);
  m = std::min(m, snap.total_complexity);

  // Everything without a location tree — mixed buckets' live members (all
  // discrete here, since the live set is) and the live tail — merges into
  // one shared sorted source.
  util::ScratchVec<SourceLoc> extra_lease;
  std::vector<SourceLoc>& extra = *extra_lease;
  extra.clear();
  util::ScratchVec<Source> sources_lease;
  std::vector<Source>& sources = *sources_lease;
  sources.clear();
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    if (const SpiralSearchPNN* sp = bref.bucket->engine().spiral()) {
      Source s;
      s.bucket = bref.bucket.get();
      s.stream.emplace(*sp, q, bref.dead ? bref.dead.get() : nullptr);
      sources.push_back(std::move(s));
    } else {
      const auto& pts = bref.bucket->points();
      for (size_t j = 0; j < pts.size(); ++j) {
        if (bref.dead && (*bref.dead)[j]) continue;
        AppendDiscreteLocations(pts[j], bref.bucket->ids()[j], q, &extra);
      }
    }
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& entries = *snap.tail;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (snap.TailAlive(i)) {
        AppendDiscreteLocations(entries[i].point, entries[i].id, q, &extra);
      }
    }
  }
  if (!extra.empty()) {
    std::sort(extra.begin(), extra.end(),
              [](const SourceLoc& a, const SourceLoc& b) { return a.dist < b.dist; });
    Source s;
    s.sorted = extra.data();
    s.sorted_n = extra.size();
    sources.push_back(std::move(s));
  }

  // K-way merge of the sources reproduces the global ascending-distance
  // retrieval order of a monolithic location tree (heap ties between
  // sources are the usual measure-zero distance-tie caveat).
  using HeapEntry = std::pair<double, size_t>;  // (dist, source index).
  util::ScratchVec<HeapEntry> heap_lease;
  std::vector<HeapEntry>& heap = *heap_lease;
  heap.clear();
  for (size_t i = 0; i < sources.size(); ++i) {
    sources[i].Advance();
    if (sources[i].has) {
      heap.push_back({sources[i].cur.dist, i});
      std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    }
  }

  util::ScratchVec<SourceLoc> raw_lease;
  std::vector<SourceLoc>& raw = *raw_lease;
  raw.clear();
  raw.reserve(m);
  while (raw.size() < m && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    size_t si = heap.back().second;
    heap.pop_back();
    Source& s = sources[si];
    raw.push_back(s.cur);
    s.Advance();
    if (s.has) {
      heap.push_back({s.cur.dist, si});
      std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    }
  }

  // Dense owner labels by id rank (any labeling yields the same per-owner
  // probabilities; ascending labels make the sweep output id-sorted).
  util::ScratchVec<Id> ids_lease;
  std::vector<Id>& ids = *ids_lease;
  ids.clear();
  for (const SourceLoc& l : raw) ids.push_back(l.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  util::ScratchVec<WeightedLocation> locs_lease;
  std::vector<WeightedLocation>& locs = *locs_lease;
  locs.clear();
  locs.reserve(raw.size());
  util::ScratchVec<int> counts_lease;
  std::vector<int>& counts = *counts_lease;
  counts.assign(ids.size(), 0);
  for (const SourceLoc& l : raw) {
    int label = static_cast<int>(std::lower_bound(ids.begin(), ids.end(), l.id) -
                                 ids.begin());
    locs.push_back({l.dist, label, l.weight});
    counts[label] = l.k;
  }

  QuantifyPrefixSweepInto(locs, counts, out);
  for (auto& e : *out) e.index = ids[e.index];  // Monotone: stays sorted.
  // Destroy the streams now so their heap leases return to the arena
  // before the sources vector itself is pooled.
  sources.clear();
}

std::vector<Quantification> MergedMonteCarloQuantify(const Snapshot& snap, Point2 q,
                                                     size_t rounds, uint64_t seed) {
  std::vector<Quantification> out;
  MergedMonteCarloQuantifyInto(snap, q, rounds, seed, &out);
  return out;
}

namespace {

// A Monte-Carlo candidate whose samples are cached: member `member` of a
// bucket's or the tail cache's sample rows.
struct McCandidate {
  const McRounds* rows;
  size_t member;
  Id id;
};

// Folds candidate `label`'s samples into the per-round running argmin:
// strict <, in the squared-distance domain Delaunay::Nearest compares in,
// so a tied round stays with the candidate folded first. The select is
// branch-free because which candidate is nearer in a round is random.
void FoldCandidate(const McCandidate& c, int label, Point2 q, size_t rounds,
                   double* best_sq, int* winners) {
  constexpr size_t K = McRounds::kBlockRounds;
  double sq[K];
  for (size_t b = 0; b * K < rounds; ++b) {
    const McRounds::Block& block = *c.rows->blocks[b];
    const double* xs = block.samples.data() + c.member * 2 * block.width;
    size_t len = std::min(block.width, rounds - b * K);
    simd::SquaredDistScan(xs, xs + block.width, len, q.x, q.y, sq);
    double* bs = best_sq + b * K;
    int* ws = winners + b * K;
    for (size_t k = 0; k < len; ++k) {
      int closer = -static_cast<int>(sq[k] < bs[k]);
      ws[k] = (label & closer) | (ws[k] & ~closer);
      bs[k] = std::min(sq[k], bs[k]);
    }
  }
}

}  // namespace

void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  uint64_t seed, std::vector<Quantification>* out) {
  out->clear();
  if (snap.live_count == 0) return;  // Every part dead: nothing to sample.
  PNN_CHECK(rounds > 0);
  // Lemma 2.1 prunes the scan: every live point has each round's sample
  // within its MaxDistance(q), so a round's nearest sample lies within
  // Delta(q), and only points with MinDistance(q) <= Delta(q) can own it.
  // Samples may round a few ulps outside their support, so the bound is
  // inflated relative to the coordinates' magnitude; the candidate set only
  // has to be a superset — an extra candidate costs scan time, never a
  // changed winner.
  double delta = SnapshotNonzeroDelta(snap, q);
  double bound =
      delta + 1e-9 * (1.0 + delta + std::max(std::fabs(q.x), std::fabs(q.y)));

  // Candidates in the tie order of an argmin over every live member:
  // buckets in snapshot order, local indices ascending, then the tail in
  // tail order.
  util::ScratchVec<std::shared_ptr<const McRounds>> mc_lease;
  std::vector<std::shared_ptr<const McRounds>>& mc = *mc_lease;
  mc.clear();
  util::ScratchVec<McCandidate> cand_lease;
  std::vector<McCandidate>& cands = *cand_lease;
  cands.clear();
  {
    util::ScratchVec<int> locals_lease;
    std::vector<int>& locals = *locals_lease;
    for (const auto& bref : snap.buckets) {
      if (bref.live_count == 0) continue;
      const Bucket& b = *bref.bucket;
      b.engine().NonzeroNNWithinInto(q, bound, bref.dead.get(), &locals);
      if (locals.empty()) continue;
      mc.push_back(b.EnsureRounds(rounds, nullptr));
      for (int local : locals) {
        cands.push_back({mc.back().get(), static_cast<size_t>(local), b.ids()[local]});
      }
    }
  }
  // Tail samples come from the snapshot's cache (built once per snapshot,
  // shared by every query); a hand-built snapshot without one samples into
  // a throwaway cache. Samples are per-(round, id) either way.
  std::shared_ptr<const TailSamples> tail_samples;
  if (snap.tail != nullptr) {
    std::optional<TailMcCache> local;
    TailMcCache* cache = snap.tail_mc ? snap.tail_mc.get() : &local.emplace();
    tail_samples = cache->Ensure(snap, rounds, seed);
    const TailSamples& ts = *tail_samples;
    for (size_t j = 0; j < ts.ids.size(); ++j) {
      if ((*snap.tail)[ts.tail_index[j]].point.MinDistance(q) < bound) {
        cands.push_back({&ts.rows, j, ts.ids[j]});
      }
    }
  }

  util::ScratchVec<double> best_lease;
  std::vector<double>& best_sq = *best_lease;
  best_sq.assign(rounds, kInf);
  // Per round, the index in cands of the nearest candidate so far.
  util::ScratchVec<int> winners_lease;
  std::vector<int>& winners = *winners_lease;
  winners.assign(rounds, -1);
  for (size_t i = 0; i < cands.size(); ++i) {
    FoldCandidate(cands[i], static_cast<int>(i), q, rounds, best_sq.data(),
                  winners.data());
  }

  // Winner histogram per candidate, then ascending ids (live ids are
  // unique, so each candidate is one id).
  util::ScratchVec<int> counts_lease;
  std::vector<int>& counts = *counts_lease;
  counts.assign(cands.size(), 0);
  for (int w : winners) {
    if (w >= 0) ++counts[w];
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    if (counts[i] == 0) continue;
    out->push_back(
        {cands[i].id, static_cast<double>(counts[i]) / static_cast<double>(rounds)});
  }
  std::sort(out->begin(), out->end(),
            [](const Quantification& a, const Quantification& b) {
              return a.index < b.index;
            });
  // Drop the sample-row refs before the lease returns to the arena: a
  // pooled buffer must not pin retired buckets' rows on an idle thread.
  mc.clear();
}

std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q) {
  if (snap.live_count == 0) return {};  // Every part dead: empty product.
  PNN_CHECK_MSG(snap.all_discrete(), "exact merge needs an all-discrete live set");
  std::vector<PartialQuantify> parts;
  std::vector<std::vector<Id>> part_ids;  // part_ids[p][member] = id.
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    std::vector<int> members;
    std::vector<Id> ids;
    for (size_t j = 0; j < bref.bucket->size(); ++j) {
      if (bref.dead && (*bref.dead)[j]) continue;
      members.push_back(static_cast<int>(j));
      ids.push_back(bref.bucket->ids()[j]);
    }
    parts.push_back(QuantifyPartDiscrete(bref.bucket->points(), members, q));
    part_ids.push_back(std::move(ids));
  }
  if (snap.tail != nullptr) {
    UncertainSet tpts;
    std::vector<Id> ids;
    const std::vector<TailEntry>& entries = *snap.tail;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!snap.TailAlive(i)) continue;
      tpts.push_back(entries[i].point);
      ids.push_back(entries[i].id);
    }
    if (!tpts.empty()) {
      std::vector<int> members(tpts.size());
      for (size_t j = 0; j < members.size(); ++j) members[j] = static_cast<int>(j);
      parts.push_back(QuantifyPartDiscrete(tpts, members, q));
      part_ids.push_back(std::move(ids));
    }
  }

  // pi_i factorizes over the partition: within-part partial times the
  // product of the other parts' survival profiles at i's location radius.
  std::map<Id, double> pi;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const PartialQuantify::Term& t : parts[p].terms) {
      double f = t.partial;
      for (size_t p2 = 0; p2 < parts.size() && f != 0.0; ++p2) {
        if (p2 != p) f *= parts[p2].profile.Value(t.dist);
      }
      if (f != 0.0) pi[part_ids[p][t.member]] += f;
    }
  }
  std::vector<Quantification> out;
  for (const auto& [id, v] : pi) {
    if (v > 0) out.push_back({id, v});
  }
  return out;
}

void PrewarmWorkerScratch(size_t points_hint, size_t rounds_hint) {
  size_t cap = std::max(points_hint, rounds_hint);
  // Kd DFS stacks and best-first heaps (several can nest: one stream per
  // bucket in the k-way merge, a stage-2 report inside a stage-1 walk).
  // int also covers Id winners/labels/counts and the quantify sweep's
  // seen/touched buffers.
  KdTree::PrewarmScratch(cap);
  // Spiral-merge bookkeeping (MergedSpiralQuantifyInto).
  util::ScratchVec<SourceLoc>::Prewarm(2, cap);
  util::ScratchVec<Source>::Prewarm(1, 16);
  util::ScratchVec<std::pair<double, size_t>>::Prewarm(1, 16);
  util::ScratchVec<WeightedLocation>::Prewarm(1, cap);
  // Monte-Carlo recombination (MergedMonteCarloQuantifyInto).
  util::ScratchVec<std::shared_ptr<const McRounds>>::Prewarm(1, 16);
  util::ScratchVec<McCandidate>::Prewarm(1, cap);
  // Quantify sweep accumulators + survival gather buffer
  // (QuantifyPrefixSweepInto).
  util::ScratchVec<double>::Prewarm(4, cap);
}

}  // namespace dyn
}  // namespace pnn
