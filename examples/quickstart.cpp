// Quickstart: build an engine over a few uncertain points and run every
// query mode — first through the unified pnn::api request/response
// surface, then over the wire against an in-process pnn::serve server.
//
//   ./examples/quickstart

#include <cstdio>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

int main() {
  using namespace pnn;

  // Three uncertain points: a GPS ping with disk uncertainty, a sensor
  // with Gaussian noise truncated to its range, and a discrete histogram
  // of possible locations.
  UncertainSet points;
  points.push_back(UncertainPoint::UniformDisk({0.0, 0.0}, 2.0));
  points.push_back(UncertainPoint::TruncatedGaussian({6.0, 1.0}, 3.0, 1.0));
  points.push_back(UncertainPoint::Discrete({{2.0, 5.0}, {3.0, 6.0}, {2.5, 7.0}},
                                            {0.5, 0.3, 0.2}));

  Engine engine(std::move(points));
  Point2 q{3.0, 2.0};

  // Every backend (Engine, dyn::DynamicEngine, store::Store) answers the
  // same five query kinds behind one type-erased handle.
  api::EngineRef ref(&engine);

  // 1. Which points can possibly be the nearest neighbor? (Lemma 2.1)
  api::QueryResponse r = ref.Call(api::QueryRequest::NonzeroNN(q));
  std::printf("NN!=0(q) = { ");
  for (int i : r.ids) std::printf("P%d ", i);
  std::printf("}\n");

  // 2. With what probability is each the nearest? (Section 4, additive
  //    error 0.02 here).
  r = ref.Call(api::QueryRequest::Quantify(q, 0.02));
  for (const auto& [index, probability] : r.quants) {
    std::printf("pi_%d(q) ~ %.3f\n", index, probability);
  }

  // 3. Derived queries.
  r = ref.Call(api::QueryRequest::MostLikelyNN(q, 0.02));
  std::printf("most likely NN: P%d\n", r.id);
  r = ref.Call(api::QueryRequest::ThresholdNN(q, 0.25, 0.02));
  std::printf("points with pi > 0.25:");
  for (const auto& e : r.quants) std::printf(" P%d", e.index);
  std::printf("\nexpected-distance NN ([AESZ12] semantics): P%d\n",
              engine.ExpectedDistanceNN(q));

  // 4. The same engine served over loopback TCP: serve::Server batches
  //    concurrent requests into the engine; serve::Client speaks the
  //    length-prefixed binary protocol (docs/protocol.md).
  serve::Server server(ref);
  if (!server.Start()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  serve::Client client;
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "client failed to connect\n");
    return 1;
  }
  api::QueryRequest req = api::QueryRequest::Quantify(q, 0.02);
  req.deadline_micros = 100000;  // 100ms budget; late answers say so.
  if (auto resp = client.Call(req); resp && resp->ok()) {
    std::printf("over the wire: pi_%d(q) ~ %.3f (server time %.0f us)\n",
                resp->quants[0].index, resp->quants[0].probability,
                resp->server_micros);
  }
  server.Stop();
  return 0;
}
