// pnn::api::EngineRef — a type-erased, non-owning handle over the query
// backends (static Engine, dyn::DynamicEngine, and its durable wrapper
// store::Store) that dispatches api::QueryRequest.
//
// This is the seam the serving layer and the batch executor stand on: the
// server decodes wire frames into QueryRequests and calls one EngineRef;
// exec::BatchEngine's per-backend switch quintets collapsed into the same
// dispatch. Answers are bit-identical to the direct method calls they
// replace (tests/api_engine_ref_test.cc differential-tests randomized op
// streams on the static and dynamic backends).
//
// Pinning: Capture() grabs the backend's current immutable state (the
// dynamic engine's Snapshot; nothing for the static Engine, which never
// changes) and Call(request, pin) answers as of that capture — the batch
// executor pins once per query run, the server once per coalesced network
// batch. Updates always apply to the live backend regardless of any pin.
//
// Thread safety: EngineRef is three pointers — copy it freely. Calls
// are as safe as the backend's own methods: queries may run concurrently
// with anything; updates serialize inside the backend.

#ifndef PNN_API_ENGINE_REF_H_
#define PNN_API_ENGINE_REF_H_

#include <cstddef>
#include <memory>
#include <optional>

#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/store/store.h"

namespace pnn {
namespace api {

class EngineRef {
 public:
  /// Which backend a ref points at (mostly for logs and tests).
  enum class Backend { kNone, kStatic, kDynamic, kStore };

  EngineRef() = default;
  /// Static backend: the five query kinds; Insert/Erase answer
  /// kUnimplemented. The engine must outlive every call.
  explicit EngineRef(const Engine* engine) : engine_(engine) {}
  explicit EngineRef(dyn::DynamicEngine* engine) : dyn_(engine) {}
  /// Durable backend: queries run against the store's live engine
  /// exactly like the in-memory ref; Insert/Erase route through the
  /// store so they are logged (and synced) before they apply.
  explicit EngineRef(store::Store* store) : store_(store) {}

  Backend backend() const {
    if (engine_ != nullptr) return Backend::kStatic;
    if (dyn_ != nullptr) return Backend::kDynamic;
    if (store_ != nullptr) return Backend::kStore;
    return Backend::kNone;
  }
  bool valid() const { return backend() != Backend::kNone; }
  /// True when Insert/Erase are available (every backend but the static
  /// Engine).
  bool supports_updates() const { return dyn_view() != nullptr; }

  /// The backend's immutable state for pinned calls. Holding a Pin keeps
  /// the captured structures alive; an empty Pin (static backend, or
  /// default-constructed) makes Call(request, pin) answer the live state.
  struct Pin {
    std::shared_ptr<const dyn::Snapshot> snap;
  };
  Pin Capture() const;

  /// Dispatches one request against the current live state. Never aborts
  /// on bad arguments — vacuous requests (eps/tau out of range, Insert
  /// without a point, updates on a static backend, QuantifyExact on a
  /// mixed discrete/continuous set) come back as error statuses, because
  /// a server must outlive its clients' mistakes.
  QueryResponse Call(const QueryRequest& request) const;

  /// Dispatches against pinned state: queries answer as of the capture
  /// (bit-identical to the direct snapshot overloads), updates apply
  /// to the live backend and invalidate nothing the pin holds.
  QueryResponse Call(const QueryRequest& request, const Pin& pin) const;

  // Backend pass-throughs the batch executor and server need:
  /// Builds every structure Quantify(·, eps) may need.
  void Prewarm(std::optional<double> eps = std::nullopt) const;
  /// The spiral-vs-Monte-Carlo routing decision at this eps.
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt) const;
  size_t live_size() const;

  /// The raw backends (null unless this ref wraps that kind).
  const Engine* static_engine() const { return engine_; }
  dyn::DynamicEngine* dynamic_engine() const { return dyn_; }
  store::Store* store() const { return store_; }

 private:
  QueryResponse Dispatch(const QueryRequest& request, const Pin* pin) const;
  /// The dynamic engine queries read from (the store's live engine for
  /// the durable backend); null when this ref is not dynamic-shaped.
  const dyn::DynamicEngine* dyn_view() const {
    return store_ != nullptr ? &store_->engine() : dyn_;
  }

  const Engine* engine_ = nullptr;
  dyn::DynamicEngine* dyn_ = nullptr;
  store::Store* store_ = nullptr;
};

}  // namespace api
}  // namespace pnn

#endif  // PNN_API_ENGINE_REF_H_
