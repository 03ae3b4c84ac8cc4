#include "src/api/engine_ref.h"

#include <utility>

namespace pnn {
namespace api {

namespace {

/// QuantifyExact supports all-discrete or all-continuous sets; the direct
/// methods PNN_CHECK on mixed input, the api answers a status instead.
constexpr const char* kMixedExactMessage =
    "QuantifyExact needs an all-discrete or all-continuous set";

}  // namespace

EngineRef::Pin EngineRef::Capture() const {
  Pin pin;
  if (dyn_view() != nullptr) pin.snap = dyn_view()->snapshot();
  return pin;
}

QueryResponse EngineRef::Call(const QueryRequest& request) const {
  return Dispatch(request, nullptr);
}

QueryResponse EngineRef::Call(const QueryRequest& request, const Pin& pin) const {
  return Dispatch(request, &pin);
}

QueryResponse EngineRef::Dispatch(const QueryRequest& request, const Pin* pin) const {
  QueryResponse r;
  r.kind = request.kind;
  if (!valid()) {
    return QueryResponse::Error(StatusCode::kInternal, request.kind,
                                "EngineRef has no backend");
  }
  std::string detail;
  StatusCode valid_status = Validate(request, &detail);
  if (valid_status != StatusCode::kOk) {
    return QueryResponse::Error(valid_status, request.kind, std::move(detail));
  }

  // Resolve the pinned state once: queries below answer as of `snap` on
  // the mutable backends (identical to the snapshot overloads the batch
  // executor already used), the static Engine needs no pin.
  const dyn::DynamicEngine* dv = dyn_view();
  std::shared_ptr<const dyn::Snapshot> snap;
  if (!request.is_update() && dv != nullptr) {
    snap = (pin != nullptr && pin->snap != nullptr) ? pin->snap : dv->snapshot();
  }

  switch (request.kind) {
    case QueryKind::kNonzeroNN:
      if (engine_ != nullptr) {
        r.ids = engine_->NonzeroNN(request.q);
      } else {
        r.ids = dv->NonzeroNN(*snap, request.q);
      }
      break;
    case QueryKind::kQuantify:
      if (engine_ != nullptr) {
        r.quants = engine_->Quantify(request.q, request.eps);
      } else {
        r.quants = dv->Quantify(*snap, request.q, request.eps);
      }
      break;
    case QueryKind::kQuantifyExact: {
      // Pre-check what the direct call would abort on.
      bool empty, mixed;
      if (engine_ != nullptr) {
        empty = engine_->points().empty();
        mixed = !engine_->all_discrete() && !engine_->all_continuous();
      } else {
        empty = snap->live_count == 0;
        mixed = !empty && !snap->all_discrete() && !snap->all_continuous();
      }
      if (mixed) {
        return QueryResponse::Error(StatusCode::kUnimplemented, request.kind,
                                    kMixedExactMessage);
      }
      if (!empty) {
        if (engine_ != nullptr) {
          r.quants = engine_->QuantifyExact(request.q);
        } else {
          r.quants = dv->QuantifyExact(*snap, request.q);
        }
      }
      break;
    }
    case QueryKind::kThresholdNN:
      if (engine_ != nullptr) {
        r.quants = engine_->ThresholdNN(request.q, request.tau, request.eps);
      } else {
        r.quants = dv->ThresholdNN(*snap, request.q, request.tau, request.eps);
      }
      break;
    case QueryKind::kMostLikelyNN:
      if (engine_ != nullptr) {
        r.id = engine_->MostLikelyNN(request.q, request.eps);
      } else {
        r.id = dv->MostLikelyNN(*snap, request.q, request.eps);
      }
      break;
    case QueryKind::kInsert:
      // A degraded durable store refuses mutations with kUnavailable: the
      // op was NOT applied and a retry after its disk heals will succeed.
      // Queries above never take this path — they keep answering kOk.
      if (store_ != nullptr) {
        util::StatusOr<dyn::Id> id = store_->Insert(*request.point);
        if (!id.ok()) {
          return QueryResponse::Error(StatusCode::kUnavailable, request.kind,
                                      id.status().ToString());
        }
        r.id = *id;
      } else if (dyn_ != nullptr) {
        r.id = dyn_->Insert(*request.point);
      } else {
        return QueryResponse::Error(StatusCode::kUnimplemented, request.kind,
                                    "static Engine backends are immutable");
      }
      break;
    case QueryKind::kErase:
      if (store_ != nullptr) {
        util::StatusOr<bool> erased = store_->Erase(request.id);
        if (!erased.ok()) {
          return QueryResponse::Error(StatusCode::kUnavailable, request.kind,
                                      erased.status().ToString());
        }
        r.id = *erased ? request.id : -1;
      } else if (dyn_ != nullptr) {
        r.id = dyn_->Erase(request.id) ? request.id : -1;
      } else {
        return QueryResponse::Error(StatusCode::kUnimplemented, request.kind,
                                    "static Engine backends are immutable");
      }
      break;
  }
  return r;
}

void EngineRef::Prewarm(std::optional<double> eps) const {
  if (engine_ != nullptr) {
    engine_->Prewarm(eps);
  } else if (dyn_view() != nullptr) {
    dyn_view()->Prewarm(eps);
  }
}

QuantifyPlan EngineRef::PlanForQuantify(std::optional<double> eps) const {
  if (engine_ != nullptr) return engine_->PlanForQuantify(eps);
  return dyn_view()->PlanForQuantify(eps);
}

size_t EngineRef::live_size() const {
  if (engine_ != nullptr) return engine_->points().size();
  if (dyn_view() != nullptr) return dyn_view()->live_size();
  return 0;
}

}  // namespace api
}  // namespace pnn
