// Streaming-churn workload generator: op streams for the dynamic engine
// that mimic live uncertain-point sources (sensor pods, tracked vehicles)
// with three update processes — arrivals (new points), departures (erases)
// and drift (a live point moves: erase + reinsert displaced) — interleaved
// with NN!=0 / quantification queries at a configurable churn ratio.

#ifndef PNN_WORKLOAD_STREAMING_H_
#define PNN_WORKLOAD_STREAMING_H_

#include <vector>

#include "src/exec/batch_engine.h"
#include "src/util/rng.h"

namespace pnn {

struct StreamingChurnOptions {
  int initial = 256;  // Bulk inserts at the head of the stream.
  int ops = 1024;     // Interleaved ops after the initial fill.
  /// Fraction of interleaved ops that are updates (the rest are queries).
  double churn = 0.2;
  // Relative rates among updates:
  double arrival_weight = 1.0;    // Insert a fresh point.
  double departure_weight = 1.0;  // Erase a random live point.
  double drift_weight = 0.0;      // Move a random live point (erase+insert).
  double drift_sigma = 1.0;       // Displacement std-dev for drift moves.
  /// Fraction of queries that quantify (the rest are NonzeroNN); with
  /// tau >= 0 the quantify queries become ThresholdNN(tau).
  double quantify_fraction = 0.0;
  double tau = -1.0;
  // Point family:
  bool discrete = false;
  int k = 4;                       // Locations per discrete point.
  double span = 50.0;              // Centers uniform in [-span, span]^2.
  double cluster = 2.0;            // Discrete location scatter radius.
  double rmin = 0.5, rmax = 2.0;   // Disk radius range (continuous).
  // Moving hotspot: this fraction of arrivals clusters (std-dev
  // hotspot_sigma) around a center orbiting the 0.7*span circle,
  // completing hotspot_orbits turns over the stream — a drifting load
  // imbalance that keeps any fixed spatial partition lopsided.
  double hotspot_fraction = 0.0;
  double hotspot_sigma = 5.0;
  double hotspot_orbits = 1.0;
  /// Fraction of queries re-issued VERBATIM from earlier in the stream
  /// (same kind, same point, same tau) — the skewed-repeat distribution of
  /// dashboard/hot-spot traffic, and what the answer-cache bench drives.
  /// 0 keeps every query unique; the first query is always fresh.
  double repeat_fraction = 0.0;
};

/// Generates an op stream for exec::BatchEngine::MixedBatch against a
/// fresh dyn::DynamicEngine: `initial` inserts followed by `ops`
/// interleaved ops from the churn/query mix. The generator mirrors the
/// engine's sequential id assignment, so departure/drift ops always
/// reference ids that are live at their stream position.
std::vector<exec::MixedOp> GenerateStreamingChurn(const StreamingChurnOptions& options,
                                                  Rng* rng);

}  // namespace pnn

#endif  // PNN_WORKLOAD_STREAMING_H_
