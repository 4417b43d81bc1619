#include "gateway/server_impl.h"

#include "http/request_parser.h"
#include "util/strings.h"

namespace joza::gateway::internal {

namespace {

// Standard reason phrase for the status codes this stack emits.
const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

}  // namespace

bool WantsKeepAlive(std::string_view raw) {
  const std::size_t header_end = raw.find("\r\n\r\n");
  const std::string_view head =
      raw.substr(0, header_end == std::string_view::npos ? raw.size()
                                                         : header_end);
  // The version is the request line's last token.
  const std::string_view request_line = head.substr(0, head.find("\r\n"));
  const std::size_t space = request_line.rfind(' ');
  const bool http11 = space != std::string_view::npos &&
                      request_line.substr(space + 1) == "HTTP/1.1";
  const std::optional<std::string_view> value =
      http::FindHeader(head, "connection");
  if (!value) return http11;
  if (ContainsIgnoreCase(*value, "close")) return false;
  if (ContainsIgnoreCase(*value, "keep-alive")) return true;
  return http11;
}

TenantRoute ResolveTenant(GatewayShared& shared, http::Request& request) {
  TenantRoute route;
  route.id = tenant::kDefaultTenant;
  if (shared.fleet == nullptr) return route;

  // /t/<tenant>/rest takes precedence over the header; the prefix is
  // stripped only once the id is accepted, so a fallback to the default
  // tenant (or a 404) leaves the path untouched.
  std::string_view requested;
  std::string stripped_path;
  bool have_explicit = false;
  bool from_prefix = false;
  const std::string_view path = request.path;
  if (path.size() > 3 && path.compare(0, 3, "/t/") == 0) {
    const std::size_t slash = path.find('/', 3);
    requested = path.substr(3, slash == std::string_view::npos
                                   ? std::string_view::npos
                                   : slash - 3);
    stripped_path = slash == std::string_view::npos
                        ? std::string("/")
                        : std::string(path.substr(slash));
    have_explicit = true;
    from_prefix = true;
  } else {
    // ParseRawRequest lowercases header names.
    for (const http::Input& header : request.headers) {
      if (header.name == "x-joza-tenant") {
        requested = header.value;
        have_explicit = true;
        break;
      }
    }
  }

  if (have_explicit &&
      (!tenant::ValidTenantId(requested) || !shared.fleet->Has(requested))) {
    // Unknown/malformed/oversized tenant id: policy decides. The strict
    // grammar check also runs before any filesystem-adjacent use, so a
    // hostile id ("../x") can never name a cold-store or snapshot path.
    if (shared.config.unknown_tenant ==
        GatewayConfig::UnknownTenant::kNotFound) {
      route.not_found = true;
      Bump(shared.stats.tenant_404s);
      return route;
    }
    have_explicit = false;  // fall back to the default tenant
    from_prefix = false;
  }

  if (have_explicit) {
    route.id.assign(requested.data(), requested.size());
    if (from_prefix) request.path = std::move(stripped_path);
  } else if (!shared.fleet->Has(route.id)) {
    // No default tenant registered: nothing to fall back to.
    route.not_found = true;
    Bump(shared.stats.tenant_404s);
    return route;
  }
  Bump(shared.stats.tenant_routed);
  return route;
}

std::string RenderResponse(const http::Response& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: text/html\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "X-Virtual-Time-Ms: " + std::to_string(response.virtual_time_ms) +
         "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace joza::gateway::internal
