#include "src/dyn/dynamic_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/dyn/answer_cache.h"
#include "src/dyn/merge.h"
#include "src/dyn/tail_cache.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

// What one maintenance round will build: either a tail merge (the frozen
// tail plus every bucket the doubling rule absorbs) or a full compaction
// (everything live). Members are snapshotted under the lock; the bucket is
// built outside it.
struct DynamicEngine::MaintenancePlan {
  bool any = false;
  std::vector<size_t> absorbed;  // Indices into buckets_ at plan time.
  size_t frozen_tail = 0;        // Tail prefix consumed by the build.
  std::vector<Id> ids;           // Ascending members of the new bucket.
  UncertainSet points;           // Parallel to ids.
};

// One in-flight maintenance build, advanced a bounded step at a time by
// MaintenanceStep: the gathered plan, the sliced bucket builder consuming
// it, then the built bucket and its pre-splice prewarm progress.
struct DynamicEngine::BuildJob {
  MaintenancePlan plan;  // points are moved into the builder at creation.
  std::unique_ptr<SlicedBucketBuilder> builder;
  std::shared_ptr<const Bucket> built;
  size_t prewarm_rounds = 0;  // Monte-Carlo rounds to warm pre-splice.
  size_t prewarm_done = 0;
};

DynamicEngine::DynamicEngine(Options options) : options_(std::move(options)) {
  PNN_CHECK_MSG(options_.engine.mc_stream_ids.empty(),
                "dyn::Options::engine.mc_stream_ids is managed internally");
  PNN_CHECK_MSG(options_.tail_limit >= 1, "tail_limit must be >= 1");
  PNN_CHECK_MSG(options_.max_dead_fraction > 0 && options_.max_dead_fraction < 1,
                "max_dead_fraction must be in (0,1)");
  // Bucket kd builds fork per-subtree across the maintenance pool unless
  // the caller picked a dedicated build pool.
  if (options_.engine.build_pool == nullptr) {
    options_.engine.build_pool = options_.pool;
  }
  // Validate the shared engine options eagerly (Engine would only check
  // them at the first bucket build).
  PNN_CHECK_MSG(options_.engine.default_eps > 0 && options_.engine.default_eps < 1,
                "Options::default_eps must be in (0,1)");
  PNN_CHECK_MSG(options_.engine.mc_delta > 0 && options_.engine.mc_delta < 1,
                "Options::mc_delta must be in (0,1)");
  PNN_CHECK_MSG(options_.engine.spiral_budget_fraction > 0 &&
                    options_.engine.spiral_budget_fraction <= 1,
                "Options::spiral_budget_fraction must be in (0,1]");
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
}

DynamicEngine::DynamicEngine(const UncertainSet& initial, Options options)
    : DynamicEngine(std::move(options)) {
  if (initial.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Id> ids(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) {
    ids[i] = next_id_++;
    live_.emplace(ids[i], initial[i]);
    AddAggregatesLocked(initial[i]);
  }
  auto bucket = std::make_shared<const Bucket>(std::move(ids), initial, options_.engine);
  buckets_.push_back({bucket, nullptr, bucket->size()});
  PublishLocked();
}

DynamicEngine::DynamicEngine(std::vector<RecoveredBucket> recovered,
                             Id next_id_floor, Options options)
    : DynamicEngine(std::move(options)) {
  PNN_CHECK_MSG(next_id_floor >= 0, "next_id_floor must be nonnegative");
  std::unique_lock<std::mutex> lock(mu_);
  // Aggregates are bulk-built below: element-wise multiset inserts
  // (AddAggregatesLocked) are the recovery bottleneck at scale, while
  // range-constructing from a sorted vector is linear.
  std::vector<double> all_weights;
  std::vector<size_t> all_ks;
  for (RecoveredBucket& rb : recovered) {
    PNN_CHECK_MSG(rb.bucket != nullptr, "recovered bucket must not be null");
    const std::vector<Id>& ids = rb.bucket->ids();
    const UncertainSet& pts = rb.bucket->points();
    PNN_CHECK_MSG(rb.dead.empty() || rb.dead.size() == ids.size(),
                  "recovered dead mask must parallel the bucket");
    size_t live = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!rb.dead.empty() && rb.dead[i]) continue;
      // Hinted: segment ids ascend, so append is amortized O(1); the
      // size delta still catches duplicate ids across buckets.
      size_t before = live_.size();
      live_.emplace_hint(live_.end(), ids[i], pts[i]);
      PNN_CHECK_MSG(live_.size() == before + 1,
                    "recovered buckets hold a duplicate live id");
      const UncertainPoint& p = pts[i];
      if (p.is_discrete()) {
        ++discrete_count_;
        const auto& d = p.discrete();
        all_weights.insert(all_weights.end(), d.weights.begin(),
                           d.weights.end());
      } else {
        ++continuous_count_;
      }
      total_complexity_ += p.DescriptionComplexity();
      all_ks.push_back(std::max<size_t>(p.DescriptionComplexity(), 1));
      ++live;
      if (ids[i] >= next_id_) next_id_ = ids[i] + 1;
    }
    Snapshot::BucketRef ref;
    ref.bucket = std::move(rb.bucket);
    ref.dead = rb.dead.empty()
                   ? nullptr
                   : std::make_shared<const std::vector<char>>(std::move(rb.dead));
    ref.live_count = live;
    buckets_.push_back(std::move(ref));
  }
  std::sort(all_weights.begin(), all_weights.end());
  live_weights_ = std::multiset<double>(all_weights.begin(), all_weights.end());
  std::sort(all_ks.begin(), all_ks.end());
  live_ks_ = std::multiset<size_t>(all_ks.begin(), all_ks.end());
  if (next_id_floor > next_id_) next_id_ = next_id_floor;
  PublishLocked();
}

DynamicEngine::~DynamicEngine() { WaitForMaintenance(); }

SnapshotIntrospection Introspect(const Snapshot& snap) {
  SnapshotIntrospection out;
  out.buckets.reserve(snap.buckets.size());
  for (const Snapshot::BucketRef& bref : snap.buckets) {
    SnapshotIntrospection::BucketView view;
    view.bucket = bref.bucket.get();
    view.dead = bref.dead.get();
    view.live_count = bref.live_count;
    out.buckets.push_back(view);
  }
  out.tail = snap.tail.get();
  out.tail_dead = snap.tail_dead.get();
  out.live_count = snap.live_count;
  return out;
}

void DynamicEngine::PublishLocked() {
  auto s = std::make_shared<Snapshot>();
  s->buckets = buckets_;
  s->tail = std::make_shared<const std::vector<TailEntry>>(tail_);
  s->tail_dead = tail_dead_count_ == 0
                     ? nullptr
                     : std::make_shared<const std::vector<char>>(tail_dead_mask_);
  if (tail_.size() > tail_dead_count_) s->tail_mc = std::make_shared<TailMcCache>();
  if (options_.answer_cache && !live_.empty()) {
    s->answers = std::make_shared<AnswerCache>();
  }
  s->live_count = live_.size();
  s->discrete_count = discrete_count_;
  s->continuous_count = continuous_count_;
  s->total_complexity = total_complexity_;
  s->max_k = live_ks_.empty() ? 1 : *live_ks_.rbegin();
  // Mirrors SpiralSearchPNN's spread computation (wmin/wmax seeds 1.0/0.0).
  double wmin = live_weights_.empty() ? 1.0 : std::min(1.0, *live_weights_.begin());
  double wmax = live_weights_.empty() ? 0.0 : *live_weights_.rbegin();
  s->rho = wmax / wmin;
  std::atomic_store_explicit(&snapshot_, std::shared_ptr<const Snapshot>(std::move(s)),
                             std::memory_order_release);
}

void DynamicEngine::AddAggregatesLocked(const UncertainPoint& p) {
  if (p.is_discrete()) {
    ++discrete_count_;
    const auto& d = p.discrete();
    for (double w : d.weights) live_weights_.insert(w);
  } else {
    ++continuous_count_;
  }
  total_complexity_ += p.DescriptionComplexity();
  live_ks_.insert(std::max<size_t>(p.DescriptionComplexity(), 1));
}

void DynamicEngine::RemoveAggregatesLocked(const UncertainPoint& p) {
  if (p.is_discrete()) {
    --discrete_count_;
    for (double w : p.discrete().weights) {
      live_weights_.erase(live_weights_.find(w));
    }
  } else {
    --continuous_count_;
  }
  total_complexity_ -= p.DescriptionComplexity();
  live_ks_.erase(live_ks_.find(std::max<size_t>(p.DescriptionComplexity(), 1)));
}

Id DynamicEngine::Insert(UncertainPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  PNN_CHECK_MSG(next_id_ < std::numeric_limits<Id>::max(), "id space exhausted");
  Id id = next_id_++;
  InsertEntryLocked(id, std::move(point));
  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
  return id;
}

void DynamicEngine::InsertWithId(Id id, UncertainPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  PNN_CHECK_MSG(id >= 0, "ids must be nonnegative");
  PNN_CHECK_MSG(live_.count(id) == 0, "InsertWithId id is already live");
  // A tombstoned copy of this id may still sit in a bucket or the tail
  // (an erased id re-inserted, as a log's kMoveOut/kMoveIn replay does);
  // deadness is positional, so appending a fresh live entry alongside it
  // is exact.
  if (id >= next_id_) next_id_ = id + 1;
  InsertEntryLocked(id, std::move(point));
  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
}

void DynamicEngine::InsertEntryLocked(Id id, UncertainPoint point) {
  AddAggregatesLocked(point);
  tail_.push_back({id, point});
  tail_dead_mask_.push_back(0);
  live_.emplace(id, std::move(point));
}

bool DynamicEngine::IsLive(Id id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.count(id) != 0;
}

bool DynamicEngine::Erase(Id id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  RemoveAggregatesLocked(it->second);
  live_.erase(it);

  // Find the live copy: dead-masked copies of the same id may linger in
  // buckets (and the tail) after an erase/re-insert round trip; skip them.
  bool in_bucket = false;
  for (auto& bref : buckets_) {
    int local = bref.bucket->LocalIndex(id);
    if (local < 0) continue;
    if (bref.dead && (*bref.dead)[local]) continue;  // Stale tombstoned copy.
    auto mask = bref.dead ? std::make_shared<std::vector<char>>(*bref.dead)
                          : std::make_shared<std::vector<char>>(bref.bucket->size(), 0);
    (*mask)[local] = 1;
    bref.dead = std::move(mask);
    --bref.live_count;
    in_bucket = true;
    break;
  }
  if (!in_bucket) {
    bool in_tail = false;
    for (size_t i = 0; i < tail_.size(); ++i) {
      if (tail_[i].id == id && tail_dead_mask_[i] == 0) {
        tail_dead_mask_[i] = 1;
        ++tail_dead_count_;
        in_tail = true;
        break;
      }
    }
    PNN_CHECK_MSG(in_tail, "live id missing from both buckets and tail");
  }
  if (building_) erased_during_build_.push_back(id);

  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
  return true;
}

bool DynamicEngine::MaintenanceNeededLocked() const {
  size_t total = tail_.size();
  size_t dead = tail_dead_count_;
  for (const auto& bref : buckets_) {
    total += bref.bucket->size();
    dead += bref.bucket->size() - bref.live_count;
  }
  if (dead >= 8 && static_cast<double>(dead) >
                       options_.max_dead_fraction * static_cast<double>(total)) {
    return true;
  }
  return tail_.size() - tail_dead_count_ >= options_.tail_limit;
}

void DynamicEngine::MaybeStartMaintenanceLocked(std::unique_lock<std::mutex>& lock) {
  if (maintenance_running_ || !MaintenanceNeededLocked()) return;
  maintenance_running_ = true;
  if (options_.pool != nullptr) {
    options_.pool->Submit([this] { MaintenanceChain(); });
  } else {
    lock.unlock();
    MaintenanceLoop();
  }
}

void DynamicEngine::MaintenanceChain() {
  // One bounded step per hop: between steps the job goes back through the
  // pool queues, so queries fanning out on the pool interleave with a long
  // build instead of waiting out a monolithic one. When the step below
  // returns false the engine may be destroyed by a racing destructor —
  // touch nothing after it.
  if (MaintenanceStep()) options_.pool->Submit([this] { MaintenanceChain(); });
}

DynamicEngine::MaintenancePlan DynamicEngine::DecidePlanLocked() {
  MaintenancePlan plan;
  size_t total = tail_.size();
  size_t dead = tail_dead_count_;
  for (const auto& bref : buckets_) {
    total += bref.bucket->size();
    dead += bref.bucket->size() - bref.live_count;
  }
  if (dead >= 8 && static_cast<double>(dead) >
                       options_.max_dead_fraction * static_cast<double>(total)) {
    // Compaction: rebuild the whole structure from the live set.
    plan.any = true;
    plan.frozen_tail = tail_.size();
    for (size_t i = 0; i < buckets_.size(); ++i) plan.absorbed.push_back(i);
    plan.ids.reserve(live_.size());
    plan.points.reserve(live_.size());
    for (const auto& [id, p] : live_) {
      plan.ids.push_back(id);
      plan.points.push_back(p);
    }
  } else if (tail_.size() - tail_dead_count_ >= options_.tail_limit) {
    // Tail merge with the Bentley–Saxe doubling rule: absorb every bucket
    // no larger than the accumulated merge, so an absorbed bucket at least
    // doubles — each point is rebuilt O(log n) times.
    plan.any = true;
    plan.frozen_tail = tail_.size();
    std::vector<std::pair<Id, const UncertainPoint*>> members;
    for (size_t i = 0; i < tail_.size(); ++i) {
      if (tail_dead_mask_[i] == 0) members.push_back({tail_[i].id, &tail_[i].point});
    }
    size_t merged = members.size();
    std::vector<char> take(buckets_.size(), 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < buckets_.size(); ++i) {
        if (!take[i] && buckets_[i].live_count <= merged) {
          take[i] = 1;
          merged += buckets_[i].live_count;
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (!take[i]) continue;
      plan.absorbed.push_back(i);
      const auto& bref = buckets_[i];
      for (size_t j = 0; j < bref.bucket->size(); ++j) {
        if (bref.dead && (*bref.dead)[j]) continue;
        members.push_back({bref.bucket->ids()[j], &bref.bucket->points()[j]});
      }
    }
    std::sort(members.begin(), members.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    plan.ids.reserve(members.size());
    plan.points.reserve(members.size());
    for (const auto& [id, p] : members) {
      plan.ids.push_back(id);
      plan.points.push_back(*p);
    }
  }
  if (plan.any) {
    building_ = true;
    erased_during_build_.clear();
  }
  return plan;
}

void DynamicEngine::SpliceLocked(const MaintenancePlan& plan,
                                 std::shared_ptr<const Bucket> built) {
  for (auto it = plan.absorbed.rbegin(); it != plan.absorbed.rend(); ++it) {
    buckets_.erase(buckets_.begin() + static_cast<long>(*it));
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<long>(plan.frozen_tail));
  // Tombstones of frozen tail entries are either folded into the new
  // bucket's mask (erased during the build) or gone with their points; the
  // mask is positional, so dropping the consumed prefix is all it takes.
  tail_dead_mask_.erase(tail_dead_mask_.begin(),
                        tail_dead_mask_.begin() + static_cast<long>(plan.frozen_tail));
  tail_dead_count_ = 0;
  for (char d : tail_dead_mask_) tail_dead_count_ += d != 0;
  if (built != nullptr) {
    Snapshot::BucketRef ref{built, nullptr, built->size()};
    std::shared_ptr<std::vector<char>> mask;
    for (Id id : erased_during_build_) {
      int local = built->LocalIndex(id);
      if (local < 0) continue;
      if (!mask) mask = std::make_shared<std::vector<char>>(built->size(), 0);
      if (!(*mask)[local]) {
        (*mask)[local] = 1;
        --ref.live_count;
      }
    }
    ref.dead = mask;
    buckets_.push_back(std::move(ref));
  }
  building_ = false;
  erased_during_build_.clear();
  PublishLocked();
}

void DynamicEngine::MaintenanceLoop() {
  while (MaintenanceStep()) {
  }
}

bool DynamicEngine::MaintenanceStep() {
  if (job_ == nullptr) {
    // Decide (or finish): cheap, under the lock.
    std::lock_guard<std::mutex> lock(mu_);
    MaintenancePlan plan = DecidePlanLocked();
    if (!plan.any) {
      maintenance_running_ = false;
      cv_.notify_all();
      return false;
    }
    job_ = std::make_unique<BuildJob>();
    job_->plan = std::move(plan);
    if (!job_->plan.ids.empty()) {
      // The gathered ids and points move into the builder, whose staging
      // arrays become the finished structures' own storage — transient
      // build memory stays (gathered live set + one chunk), not a second
      // copy. The splice only reads plan.absorbed/frozen_tail.
      job_->builder = std::make_unique<SlicedBucketBuilder>(
          std::move(job_->plan.ids), std::move(job_->plan.points), options_.engine,
          options_.build_chunk);
    }
    return true;
  }

  BuildJob& job = *job_;
  if (job.builder != nullptr && !job.builder->done()) {
    // Build outside the lock: updates and queries proceed against the old
    // snapshot; erases landing meanwhile are logged and folded in at the
    // splice.
    job.builder->Step();
    return true;
  }
  if (job.builder != nullptr) {
    job.built = job.builder->Finish();
    job.builder.reset();
    if (options_.prewarm_after_build) {
      // Warm the new bucket before it is published, so the first query
      // against it never pays the lazy Monte-Carlo construction. A merge
      // preserves the live set, so the pre-splice aggregates give the same
      // plan and round count the post-splice snapshot will.
      auto snap = Snap();
      double eps = options_.engine.default_eps;
      if (snap->live_count > 0 && PlanFor(*snap, eps) == QuantifyPlan::kMonteCarlo) {
        job.prewarm_rounds = RoundsFor(*snap, eps);
      }
    }
    return true;
  }
  if (job.built != nullptr && job.prewarm_done < job.prewarm_rounds) {
    // Chunked prewarm: each step extends the sample rows by about one
    // build_chunk's worth of sampled points (EnsureRounds shares the full
    // blocks and re-copies only the partial one, so batching costs a copy
    // far cheaper than the sampling it interleaves).
    size_t per = job.prewarm_rounds;
    if (options_.build_chunk > 0) {
      per = std::max<size_t>(
          1, options_.build_chunk / std::max<size_t>(1, job.built->size()));
    }
    job.prewarm_done = std::min(job.prewarm_rounds, job.prewarm_done + per);
    job.built->EnsureRounds(job.prewarm_done, options_.pool);
    return true;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    SpliceLocked(job.plan, std::move(job.built));
  }
  job_.reset();
  if (options_.prewarm_after_build) {
    // The splice published a fresh snapshot (and a fresh tail cache):
    // warm the tail samples too, so the whole post-build query path is
    // construction-free.
    auto snap = Snap();
    double eps = options_.engine.default_eps;
    if (snap->live_count > 0 && snap->tail_mc != nullptr &&
        PlanFor(*snap, eps) == QuantifyPlan::kMonteCarlo) {
      snap->tail_mc->Ensure(*snap, RoundsFor(*snap, eps), options_.engine.seed);
    }
  }
  return true;  // Re-check the predicate: more work may have accumulated.
}

void DynamicEngine::WaitForMaintenance() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !maintenance_running_; });
}

double DynamicEngine::ResolveEps(std::optional<double> eps_opt) const {
  double eps = eps_opt.value_or(options_.engine.default_eps);
  PNN_CHECK_MSG(eps > 0 && eps < 1, "eps must be in (0,1)");
  return eps;
}

QuantifyPlan PlanForSnapshot(const Snapshot& snap, const Engine::Options& options,
                             double eps) {
  if (snap.all_discrete()) {
    size_t budget = SpiralSearchPNN::RetrievalBoundFor(snap.rho, snap.max_k, eps);
    if (static_cast<double>(budget) <= options.spiral_budget_fraction *
                                           static_cast<double>(snap.total_complexity)) {
      return QuantifyPlan::kSpiral;
    }
  }
  return QuantifyPlan::kMonteCarlo;
}

size_t McRoundsForSnapshot(const Snapshot& snap, const Engine::Options& options,
                           double eps) {
  if (options.mc_rounds_override > 0) return options.mc_rounds_override;
  return MonteCarloPNN::TheoreticalRounds(snap.live_count, snap.max_k, eps,
                                          options.mc_delta);
}

QuantifyPlan DynamicEngine::PlanFor(const Snapshot& snap, double eps) const {
  return PlanForSnapshot(snap, options_.engine, eps);
}

size_t DynamicEngine::RoundsFor(const Snapshot& snap, double eps) const {
  return McRoundsForSnapshot(snap, options_.engine, eps);
}

QuantifyPlan DynamicEngine::PlanForQuantify(std::optional<double> eps_opt) const {
  return PlanFor(*Snap(), ResolveEps(eps_opt));
}

void DynamicEngine::Prewarm(std::optional<double> eps_opt) const {
  double eps = ResolveEps(eps_opt);
  auto snap = Snap();
  if (snap->live_count == 0) return;
  if (PlanFor(*snap, eps) != QuantifyPlan::kMonteCarlo) return;
  size_t rounds = RoundsFor(*snap, eps);
  for (const auto& bref : snap->buckets) {
    if (bref.live_count > 0) bref.bucket->EnsureRounds(rounds, options_.pool);
  }
  if (snap->tail_mc != nullptr) {
    snap->tail_mc->Ensure(*snap, rounds, options_.engine.seed);
  }
}

std::vector<Id> DynamicEngine::NonzeroNN(Point2 q) const {
  auto snap = Snap();
  if (snap->live_count == 0) return {};
  return NonzeroNN(*snap, q);
}

std::vector<Id> DynamicEngine::NonzeroNN(const Snapshot& snap, Point2 q) const {
  std::vector<Id> out;
  NonzeroNNInto(snap, q, &out);
  return out;
}

void DynamicEngine::NonzeroNNInto(Point2 q, std::vector<Id>* out) const {
  auto snap = Snap();
  NonzeroNNInto(*snap, q, out);
}

void DynamicEngine::NonzeroNNInto(const Snapshot& snap, Point2 q,
                                  std::vector<Id>* out) const {
  AnswerCache* cache = snap.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kNonzeroNN, q, 0.0};
  if (cache != nullptr && cache->LookupIds(key, out)) return;
  MergedNonzeroNNInto(snap, q, out);
  if (cache != nullptr) cache->InsertIds(key, *out);
}

std::vector<Quantification> DynamicEngine::Quantify(Point2 q,
                                                    std::optional<double> eps_opt) const {
  auto snap = Snap();
  return Quantify(*snap, q, eps_opt);
}

std::vector<Quantification> DynamicEngine::Quantify(const Snapshot& snap, Point2 q,
                                                    std::optional<double> eps_opt) const {
  std::vector<Quantification> out;
  QuantifyInto(snap, q, eps_opt, &out);
  return out;
}

void DynamicEngine::QuantifyInto(Point2 q, std::optional<double> eps_opt,
                                 std::vector<Quantification>* out) const {
  auto snap = Snap();
  QuantifyInto(*snap, q, eps_opt, out);
}

void DynamicEngine::QuantifyInto(const Snapshot& snap, Point2 q,
                                 std::optional<double> eps_opt,
                                 std::vector<Quantification>* out) const {
  double eps = ResolveEps(eps_opt);
  out->clear();
  if (snap.live_count == 0) return;
  // The snapshot is immutable and the evaluation below is a deterministic
  // function of (snapshot, q, eps), so a memoized answer is exact — a hit
  // skips plan selection, MC rounds, and the merge entirely.
  AnswerCache* cache = snap.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kQuantify, q, eps};
  if (cache != nullptr && cache->LookupQuants(key, out)) return;
  if (PlanFor(snap, eps) == QuantifyPlan::kSpiral) {
    MergedSpiralQuantifyInto(snap, q, eps, out);
  } else {
    MergedMonteCarloQuantifyInto(snap, q, RoundsFor(snap, eps), options_.engine.seed,
                                 out);
  }
  if (cache != nullptr) cache->InsertQuants(key, *out);
}

std::vector<Quantification> DynamicEngine::QuantifyExact(Point2 q) const {
  auto snap = Snap();
  return QuantifyExact(*snap, q);
}

std::vector<Quantification> DynamicEngine::QuantifyExact(const Snapshot& snap,
                                                         Point2 q) const {
  if (snap.live_count == 0) return {};
  AnswerCache* cache = snap.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kQuantifyExact, q, 0.0};
  std::vector<Quantification> cached;
  if (cache != nullptr && cache->LookupQuants(key, &cached)) return cached;
  if (snap.all_discrete()) {
    std::vector<Quantification> out = MergedQuantifyExact(snap, q);
    if (cache != nullptr) cache->InsertQuants(key, out);
    return out;
  }
  PNN_CHECK_MSG(snap.all_continuous(),
                "QuantifyExact supports all-discrete or all-continuous inputs");
  // Gather from the snapshot, not the mutable live set: a concurrent
  // insert must not leak into (or invalidate the all-continuous check of)
  // this query's view.
  std::vector<Id> ids;
  UncertainSet live = SnapshotLiveSet(snap, &ids);
  std::vector<Quantification> out = QuantifyNumericContinuous(live, q, 1e-8);
  for (auto& e : out) e.index = ids[e.index];
  if (cache != nullptr) cache->InsertQuants(key, out);
  return out;
}

std::vector<Quantification> DynamicEngine::ThresholdNN(
    Point2 q, double tau, std::optional<double> eps) const {
  auto snap = Snap();
  return ThresholdNN(*snap, q, tau, eps);
}

std::vector<Quantification> DynamicEngine::ThresholdNN(
    const Snapshot& snap, Point2 q, double tau, std::optional<double> eps) const {
  PNN_CHECK_MSG(tau >= 0 && tau <= 1,
                "ThresholdNN tau must be a probability in [0,1]");
  return ThresholdFilter(Quantify(snap, q, eps), tau);
}

Id DynamicEngine::MostLikelyNN(Point2 q, std::optional<double> eps) const {
  return pnn::MostLikelyNN(Quantify(q, eps));
}

Id DynamicEngine::MostLikelyNN(const Snapshot& snap, Point2 q,
                               std::optional<double> eps) const {
  return pnn::MostLikelyNN(Quantify(snap, q, eps));
}

size_t DynamicEngine::live_size() const { return Snap()->live_count; }

size_t DynamicEngine::num_buckets() const { return Snap()->buckets.size(); }

namespace {
size_t CountDead(const std::shared_ptr<const std::vector<char>>& mask) {
  size_t dead = 0;
  if (mask != nullptr) {
    for (char d : *mask) dead += d != 0;
  }
  return dead;
}
}  // namespace

size_t DynamicEngine::tail_size() const {
  auto snap = Snap();
  return snap->tail->size() - CountDead(snap->tail_dead);
}

size_t DynamicEngine::dead_size() const {
  auto snap = Snap();
  size_t dead = CountDead(snap->tail_dead);
  for (const auto& bref : snap->buckets) {
    dead += bref.bucket->size() - bref.live_count;
  }
  return dead;
}

UncertainSet DynamicEngine::LiveSet(std::vector<Id>* ids) const {
  std::lock_guard<std::mutex> lock(mu_);
  UncertainSet out;
  out.reserve(live_.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(live_.size());
  }
  for (const auto& [id, p] : live_) {
    out.push_back(p);
    if (ids != nullptr) ids->push_back(id);
  }
  return out;
}

Engine::Options DynamicEngine::ReferenceEngineOptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  Engine::Options o = options_.engine;
  o.mc_stream_ids.reserve(live_.size());
  for (const auto& [id, p] : live_) {
    o.mc_stream_ids.push_back(static_cast<uint64_t>(id));
  }
  return o;
}

}  // namespace dyn
}  // namespace pnn
