// The served request shape and the gateway handler's per-request engine
// scope, shared by the in-process suites. Header-only: these sit on top of
// webapp::Application and the gateway's wire format, which the measurement
// layer itself must not depend on.
#pragma once

#include <utility>
#include <vector>

#include "attack/workload.h"
#include "core/joza.h"
#include "gateway/client.h"
#include "http/request.h"
#include "webapp/application.h"

namespace joza::benchkit {

// Each request round-trips through the wire format a gateway parses, so it
// carries the Host and Connection inputs (and any cookie) a served request
// does.
inline std::vector<http::Request> ServedRequests(
    const std::vector<attack::WorkloadRequest>& workload) {
  std::vector<http::Request> requests;
  requests.reserve(workload.size());
  for (const attack::WorkloadRequest& wr : workload) {
    StatusOr<http::Request> parsed = http::ParseRawRequest(
        gateway::SerializeRequest(wr.request, /*keep_alive=*/true));
    if (parsed.ok()) requests.push_back(std::move(parsed).value());
  }
  return requests;
}

// Serves one request as a gateway handler does: one engine scope per
// request, its gate installed for the request's queries.
inline http::Response ServeScoped(webapp::Application& app, core::Joza& joza,
                                  const http::Request& request) {
  core::RequestScope scope = joza.BeginRequest(request);
  app.SetQueryGate(scope.MakeGate());
  http::Response response = app.Handle(request);
  app.SetQueryGate(nullptr);
  return response;
}

}  // namespace joza::benchkit
