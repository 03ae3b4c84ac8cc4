// Workload definitions for the serving benchmark: the fixed loads and
// input generators of the three traffic mixes. Everything a run
// offers the server is a function of (workload, scale, seed); no rate is
// ever derived from capacity measured during the run.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/query.h"
#include "src/uncertain/uncertain_point.h"
#include "src/util/rng.h"

namespace servebench {

using pnn::api::QueryRequest;

struct Workload {
  std::string name;
  bool discrete = true;       // Discrete k=3 points; else uniform disks.
  bool churn = false;         // Streaming-churn op stream with updates.
  int points = 0;             // Bulk-loaded at set-up.
  double eps = 0.1;           // Every quantification request's eps.
  double base_rate = 0;       // Offered requests/s of the traced run.
  double late_limit_us = 0;   // Limit on the traced run's send lateness p99.
  size_t inflight = 0;        // Outstanding requests of the loaded windows.
  uint64_t deadline_us = 0;   // Server-side deadline carried by requests.
  size_t replay_cap = 0;      // Requests per per-layer replay (traced run).
  size_t gate_queries = 0;    // Fresh queries the correctness gate sends.
};

/// The named workload at full or tiny scale ("tiny" shrinks the point
/// counts, replays and gate for the smoke test; rates and limits stay).
/// Aborts on an unknown name.
Workload GetWorkload(const std::string& name, bool tiny);

/// A request stream plus, per request, the generated id an Insert creates
/// or an Erase names (-1 for queries). Erases are sent with the id the
/// server acknowledged for that generated id (loadgen.h IdMap).
struct OpStream {
  std::vector<QueryRequest> requests;
  std::vector<int> gen_ids;
  size_t size() const { return requests.size(); }
};

/// Deterministic inputs for one run.
class Inputs {
 public:
  Inputs(const Workload& w, uint64_t seed, size_t stream_ops);

  /// The bulk-loaded points (ids 0..points-1 in a fresh store).
  const pnn::UncertainSet& initial() const { return initial_; }

  /// The next `count` requests of the workload's traffic: query mixes for
  /// point_mix/mc_disk, the churn stream for churn_hotspot. Consecutive
  /// calls continue the stream; `count` must not exceed remaining().
  OpStream Next(size_t count);
  /// Requests left in the stream (unbounded for the query mixes).
  size_t remaining() const;

  /// `pairs` inserts of fresh points, each followed by the erase of the
  /// point it inserted (named by generated id).
  OpStream UpdatePairs(size_t pairs);

  /// Fresh unique queries for the correctness gate.
  std::vector<QueryRequest> GateQueries(size_t count);


 private:
  QueryRequest RandomQuery();
  pnn::UncertainPoint RandomPoint();

  Workload w_;
  pnn::Rng rng_;
  pnn::UncertainSet initial_;
  std::vector<QueryRequest> hot_;  // point_mix's repeated hot set.
  OpStream churn_;                 // churn_hotspot: pre-generated stream.
  size_t churn_cursor_ = 0;
  int next_gen_id_ = 0;
  double span_ = 0;
};

/// Share of the query requests that repeat an earlier query of the same
/// sequence verbatim (kind, point, eps, tau): the input property an answer
/// cache claim must cite.
double RepeatShare(const std::vector<QueryRequest>& requests);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
