#include "servebench/served.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/store/format.h"
#include "src/util/check.h"

namespace servebench {

using pnn::api::QueryKind;
using pnn::api::QueryResponse;

pnn::store::Store::Options StoreOptions(pnn::exec::ThreadPool* pool) {
  pnn::store::Store::Options o;
  o.dynamic.engine.seed = kEngineSeed;
  o.dynamic.pool = pool;
  return o;
}

void WriteLoadedStore(const pnn::UncertainSet& initial, const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto store = pnn::store::Store::Open(dir, StoreOptions(nullptr));
  constexpr size_t kChunk = 4096;
  for (size_t i = 0; i < initial.size(); i += kChunk) {
    std::vector<pnn::UncertainPoint> chunk(
        initial.begin() + i, initial.begin() + std::min(initial.size(), i + kChunk));
    PNN_CHECK_MSG(store->InsertBatch(std::move(chunk)).ok(), "bulk load failed");
  }
  store->engine().WaitForMaintenance();
  PNN_CHECK_MSG(store->Checkpoint().ok(), "checkpoint failed");
}

std::unique_ptr<Served> SetUp(const Workload& w, const pnn::UncertainSet& initial,
                              const std::string& dir) {
  WriteLoadedStore(initial, dir);
  auto s = std::make_unique<Served>();
  s->dir = dir;
  s->pool = std::make_unique<pnn::exec::ThreadPool>(kMaintenanceThreads);
  pnn::serve::StoreServer::Options o;
  o.num_shards = 0;
  o.store = StoreOptions(s->pool.get());
  s->server = pnn::serve::StoreServer::Open(dir, o);
  s->store().engine().Prewarm(w.eps);
  PNN_CHECK_MSG(s->server->Start(), "server start failed");
  return s;
}

Reference BuildReference(const pnn::dyn::DynamicEngine& engine, const Workload& w, bool wrong) {
  Reference r;
  r.live = engine.LiveSet(&r.ids);
  r.engine = std::make_unique<pnn::Engine>(r.live, engine.ReferenceEngineOptions());
  r.engine->Prewarm(w.eps);
  if (wrong && !r.ids.empty()) std::rotate(r.ids.begin(), r.ids.begin() + 1, r.ids.end());
  return r;
}

QueryResponse Reference::Answer(const QueryRequest& req) const {
  QueryResponse out;
  out.kind = req.kind;
  auto to_ids = [&](std::vector<pnn::Quantification> q) {
    for (pnn::Quantification& x : q) x.index = ids[static_cast<size_t>(x.index)];
    return q;
  };
  switch (req.kind) {
    case QueryKind::kNonzeroNN:
      for (int i : engine->NonzeroNN(req.q)) out.ids.push_back(ids[static_cast<size_t>(i)]);
      break;
    case QueryKind::kQuantify:
      out.quants = to_ids(engine->Quantify(req.q, req.eps));
      break;
    case QueryKind::kThresholdNN:
      out.quants = to_ids(engine->ThresholdNN(req.q, req.tau, req.eps));
      break;
    default:
      PNN_CHECK_MSG(false, "the gate checks NonzeroNN, Quantify and ThresholdNN only");
  }
  return out;
}

bool SameAnswer(const QueryResponse& got, const QueryResponse& want) {
  if (!got.ok() || got.kind != want.kind || got.ids != want.ids ||
      got.quants.size() != want.quants.size()) {
    return false;
  }
  for (size_t i = 0; i < got.quants.size(); ++i) {
    if (got.quants[i].index != want.quants[i].index ||
        std::memcmp(&got.quants[i].probability, &want.quants[i].probability,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void ApplyAcked(const OpStream& stream, const PhaseResult& result, LiveMap* live) {
  for (size_t i = 0; i < stream.size(); ++i) {
    const QueryRequest& req = stream.requests[i];
    const Outcome& o = result.outcomes[i];
    if (!req.is_update() || o.recv_ns < 0 || o.status != pnn::api::StatusCode::kOk) continue;
    if (req.kind == QueryKind::kInsert) {
      live->emplace(o.resp_id, *req.point);
    } else if (o.resp_id >= 0) {
      live->erase(o.resp_id);
    }
  }
}

bool SameLiveSet(const pnn::dyn::DynamicEngine& engine, const LiveMap& expected, std::string* why) {
  std::vector<pnn::dyn::Id> ids;
  pnn::UncertainSet live = engine.LiveSet(&ids);
  if (ids.size() != expected.size()) {
    *why = "live set has " + std::to_string(ids.size()) + " points, acknowledged history " +
           std::to_string(expected.size());
    return false;
  }
  size_t i = 0;
  std::string a, b;
  for (const auto& [id, point] : expected) {
    a.clear();
    b.clear();
    pnn::store::EncodePoint(point, &a);
    pnn::store::EncodePoint(live[i], &b);
    if (ids[i] != id || a != b) {
      *why = "live set differs from acknowledged history at id " + std::to_string(id);
      return false;
    }
    ++i;
  }
  return true;
}

double WcharBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  double value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double PeakRssMb() {
  rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

}  // namespace servebench
