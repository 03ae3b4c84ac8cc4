#include "servebench/workload.h"

#include <cstdint>
#include <cstring>
#include <set>
#include <tuple>
#include <utility>

#include "src/util/check.h"
#include "src/workload/generators.h"
#include "src/workload/streaming.h"

namespace servebench {

namespace {

using pnn::api::QueryKind;

constexpr double kSpan = 100.0;  // Point centers uniform in [-span, span]^2.
constexpr double kCluster = 3.0; // Discrete location scatter.
constexpr int kHotSet = 64;      // point_mix hot set, < AnswerCache::Capacity().
constexpr double kHotShare = 0.3;
constexpr double kTau = 0.2;     // ThresholdNN threshold.

}  // namespace

Workload GetWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  // point_mix: engine work (spiral plan) is a fraction of the round trip,
  // so serve, exec and the answer cache (hot set) dominate.
  // mc_disk: Monte-Carlo quantification costs milliseconds per request and
  // every query is unique, so the answer cache is bypassed.
  // churn_hotspot: fsync'd updates beside queries, merges, checkpoint
  // rotations and per-publish cache resets.
  if (name == "point_mix") {
    w.points = 20000;
    w.eps = 0.1;
    w.base_rate = 8000;
    w.late_limit_us = 20000;
    w.inflight = 256;
    w.deadline_us = 100000;
    w.replay_cap = 4000;
    w.gate_queries = 60;
  } else if (name == "mc_disk") {
    w.discrete = false;
    w.points = 2000;
    w.eps = 0.2;
    w.base_rate = 200;
    w.late_limit_us = 50000;
    w.inflight = 32;  // On one CPU, queued work stays within the deadline.
    w.deadline_us = 500000;
    w.replay_cap = 300;
    w.gate_queries = 40;
  } else if (name == "churn_hotspot") {
    w.churn = true;
    w.points = 20000;
    w.eps = 0.1;
    w.base_rate = 4000;
    w.late_limit_us = 50000;
    w.inflight = 256;
    w.deadline_us = 500000;
    w.replay_cap = 3000;
    w.gate_queries = 60;
  } else {
    PNN_CHECK_MSG(false, "unknown workload");
  }
  if (tiny) {
    w.points = w.discrete ? 600 : 150;
    w.replay_cap = 40;
    w.gate_queries = 10;
  }
  return w;
}

Inputs::Inputs(const Workload& w, uint64_t seed, size_t stream_ops)
    : w_(w), rng_(seed * 0x9E3779B97F4A7C15ull + 17), span_(kSpan) {
  if (w_.churn) {
    pnn::StreamingChurnOptions o;
    o.initial = w_.points;
    o.ops = static_cast<int>(stream_ops);
    o.churn = 0.3;
    o.arrival_weight = 1.0;
    o.departure_weight = 1.0;
    o.drift_weight = 1.0;
    o.drift_sigma = 2.0;
    o.quantify_fraction = 0.5;
    o.discrete = true;
    o.k = 3;
    o.span = kSpan;
    o.cluster = kCluster;
    o.hotspot_fraction = 0.5;
    o.hotspot_sigma = 5.0;
    o.hotspot_orbits = 1.0;
    o.repeat_fraction = 0.5;
    std::vector<pnn::exec::MixedOp> ops = pnn::GenerateStreamingChurn(o, &rng_);
    for (size_t i = 0; i < ops.size(); ++i) {
      const pnn::exec::MixedOp& op = ops[i];
      if (i < static_cast<size_t>(w_.points)) {
        initial_.push_back(*op.point);
        ++next_gen_id_;
        continue;
      }
      QueryRequest req = op.ToRequest(w_.eps);
      int gen = -1;
      if (op.kind == pnn::exec::MixedOp::Kind::kInsert) gen = next_gen_id_++;
      if (op.kind == pnn::exec::MixedOp::Kind::kErase) gen = op.id;
      req.deadline_micros = w_.deadline_us;
      churn_.requests.push_back(std::move(req));
      churn_.gen_ids.push_back(gen);
    }
    return;
  }
  if (w_.discrete) {
    initial_ = pnn::ToUniformUncertain(
        pnn::RandomDiscreteLocations(w_.points, 3, kSpan, kCluster, &rng_));
    for (int i = 0; i < kHotSet; ++i) hot_.push_back(RandomQuery());
  } else {
    for (const pnn::Circle& c : pnn::RandomDisks(w_.points, kSpan / 2, 0.5, 2.0, &rng_)) {
      initial_.push_back(pnn::UncertainPoint::UniformDisk(c.center, c.radius));
    }
    span_ = kSpan / 2;
  }
  next_gen_id_ = w_.points;
}

QueryRequest Inputs::RandomQuery() {
  pnn::Point2 q{rng_.Uniform(-span_, span_), rng_.Uniform(-span_, span_)};
  double u = rng_.Uniform(0, 1);
  QueryRequest req;
  if (w_.churn) {
    req = u < 0.5 ? QueryRequest::NonzeroNN(q) : QueryRequest::Quantify(q, w_.eps);
  } else if (!w_.discrete) {
    req = u < 0.5 ? QueryRequest::Quantify(q, w_.eps)
                  : QueryRequest::ThresholdNN(q, kTau, w_.eps);
  } else if (u < 0.4) {
    req = QueryRequest::NonzeroNN(q);
  } else if (u < 0.8) {
    req = QueryRequest::Quantify(q, w_.eps);
  } else {
    req = QueryRequest::ThresholdNN(q, kTau, w_.eps);
  }
  req.deadline_micros = w_.deadline_us;
  return req;
}

pnn::UncertainPoint Inputs::RandomPoint() {
  pnn::Point2 c{rng_.Uniform(-span_, span_), rng_.Uniform(-span_, span_)};
  if (!w_.discrete) return pnn::UncertainPoint::UniformDisk(c, rng_.Uniform(0.5, 2.0));
  std::vector<pnn::Point2> locs(3);
  for (pnn::Point2& p : locs) {
    p = {c.x + rng_.Uniform(-kCluster, kCluster), c.y + rng_.Uniform(-kCluster, kCluster)};
  }
  return pnn::UncertainPoint::Discrete(std::move(locs), {1.0 / 3, 1.0 / 3, 1.0 / 3});
}

size_t Inputs::remaining() const {
  return w_.churn ? churn_.size() - churn_cursor_ : SIZE_MAX;
}

OpStream Inputs::Next(size_t count) {
  OpStream out;
  if (w_.churn) {
    PNN_CHECK_MSG(churn_cursor_ + count <= churn_.size(), "churn stream exhausted");
    out.requests.assign(churn_.requests.begin() + churn_cursor_,
                        churn_.requests.begin() + churn_cursor_ + count);
    out.gen_ids.assign(churn_.gen_ids.begin() + churn_cursor_,
                       churn_.gen_ids.begin() + churn_cursor_ + count);
    churn_cursor_ += count;
    return out;
  }
  for (size_t i = 0; i < count; ++i) {
    if (!hot_.empty() && rng_.Bernoulli(kHotShare)) {
      out.requests.push_back(hot_[static_cast<size_t>(rng_.UniformInt(0, kHotSet - 1))]);
    } else {
      out.requests.push_back(RandomQuery());
    }
    out.gen_ids.push_back(-1);
  }
  return out;
}

OpStream Inputs::UpdatePairs(size_t pairs) {
  OpStream out;
  for (size_t i = 0; i < pairs; ++i) {
    int gen = next_gen_id_++;
    out.requests.push_back(QueryRequest::Insert(RandomPoint()));
    out.gen_ids.push_back(gen);
    out.requests.push_back(QueryRequest::Erase(gen));
    out.gen_ids.push_back(gen);
  }
  for (QueryRequest& r : out.requests) r.deadline_micros = w_.deadline_us;
  return out;
}

std::vector<QueryRequest> Inputs::GateQueries(size_t count) {
  std::vector<QueryRequest> out;
  for (size_t i = 0; i < count; ++i) out.push_back(RandomQuery());
  return out;
}

double RepeatShare(const std::vector<QueryRequest>& requests) {
  std::set<std::tuple<int, uint64_t, uint64_t, double, double>> seen;
  size_t queries = 0, repeats = 0;
  for (const QueryRequest& r : requests) {
    if (r.is_update()) continue;
    ++queries;
    uint64_t x, y;
    std::memcpy(&x, &r.q.x, sizeof(x));
    std::memcpy(&y, &r.q.y, sizeof(y));
    auto key = std::make_tuple(static_cast<int>(r.kind), x, y, r.eps.value_or(-1.0), r.tau);
    if (!seen.insert(key).second) ++repeats;
  }
  return queries > 0 ? static_cast<double>(repeats) / static_cast<double>(queries) : 0.0;
}

}  // namespace servebench
