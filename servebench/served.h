// The system under test and its correctness oracle: a serve::StoreServer
// with num_shards = 0 (one durable store::Store over one dyn::DynamicEngine,
// fdatasync before every ack), and the static reference Engine its answers
// must match bit for bit.

#ifndef SERVEBENCH_SERVED_H_
#define SERVEBENCH_SERVED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "servebench/loadgen.h"
#include "servebench/workload.h"
#include "src/core/pnn.h"
#include "src/exec/thread_pool.h"
#include "src/serve/store_server.h"
#include "src/store/store.h"

namespace servebench {

/// Seed of every engine's Monte-Carlo sample streams (inputs vary with the
/// run's --seed; the engine configuration does not).
constexpr uint64_t kEngineSeed = 20130622;

/// Worker threads of a served store's background maintenance pool.
constexpr size_t kMaintenanceThreads = 2;

/// Store options of every store a run opens: the Store default of one
/// fdatasync per acknowledged mutation, the benchmark's engine seed, and
/// merges/compactions on `pool` (null: inline in the triggering update).
pnn::store::Store::Options StoreOptions(pnn::exec::ThreadPool* pool);

/// Writes a fresh store at `dir` holding `initial` under ids 0..n-1:
/// bulk-loaded with inline maintenance (a pooled engine would republish
/// its growing tail on every insert while a merge runs), merged,
/// checkpointed and closed.
void WriteLoadedStore(const pnn::UncertainSet& initial, const std::string& dir);

/// A served store. The pool is declared first so that the server and its
/// store stop before the pool their maintenance runs on.
struct Served {
  std::string dir;
  std::unique_ptr<pnn::exec::ThreadPool> pool;
  std::unique_ptr<pnn::serve::StoreServer> server;

  pnn::store::Store& store() { return *server->store(); }
};

/// The span setup_s measures: WriteLoadedStore, then the restart path —
/// StoreServer::Open recovers the directory with a maintenance pool —
/// then the prewarm of the workload's eps, until the server accepts.
std::unique_ptr<Served> SetUp(const Workload& w, const pnn::UncertainSet& initial,
                              const std::string& dir);

/// The static paper Engine over a live set, with the id of each index.
struct Reference {
  std::vector<pnn::dyn::Id> ids;
  pnn::UncertainSet live;
  std::unique_ptr<pnn::Engine> engine;

  /// The answer a correct server gives to `request`.
  pnn::api::QueryResponse Answer(const QueryRequest& request) const;
};

/// Engine(LiveSet(), ReferenceEngineOptions()) over the store's engine.
/// `wrong` rotates the index -> id map by one: a deliberately wrong
/// reference the gate must reject (the smoke test's negative case).
Reference BuildReference(const pnn::dyn::DynamicEngine& engine, const Workload& w, bool wrong);

/// True when `got` carries exactly `want`'s answer (ids, or quantification
/// indices and probabilities compared bit for bit).
bool SameAnswer(const pnn::api::QueryResponse& got, const pnn::api::QueryResponse& want);

/// Live set keyed by id, as a client reconstructs it from acknowledgements.
using LiveMap = std::map<pnn::dyn::Id, pnn::UncertainPoint>;

/// Applies the acknowledged updates of one phase, in stream order.
void ApplyAcked(const OpStream& stream, const PhaseResult& result, LiveMap* live);

/// True when the engine's live set holds exactly `expected` (same ids,
/// byte-identical encoded points). `why` receives the first difference.
bool SameLiveSet(const pnn::dyn::DynamicEngine& engine, const LiveMap& expected, std::string* why);

/// Bytes written by this process so far (/proc/self/io wchar).
double WcharBytes();

/// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_SERVED_H_
