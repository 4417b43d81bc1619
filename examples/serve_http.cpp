// Serve the protected WP-SQLI-LAB testbed over real loopback HTTP and
// attack it through the wire — the closest analogue of pointing SQLMap at
// the paper's Apache deployment.
#include <cstdio>

#include "attack/catalog.h"
#include "core/joza.h"
#include "gateway/client.h"
#include "gateway/gateway.h"

int main() {
  using namespace joza;

  // The engine learns its fragments from one copy of the testbed; the
  // gateway's single handler serves another copy behind the engine's gate.
  auto proto = attack::MakeTestbed();
  core::Joza joza = core::Joza::Install(*proto);

  gateway::GatewayConfig config;
  config.workers = 1;
  gateway::GatewayServer server([] { return attack::MakeTestbed(); }, &joza,
                                config);
  auto port = server.Start();
  if (!port.ok()) {
    std::printf("failed to start: %s\n", port.status().ToString().c_str());
    return 1;
  }
  std::printf("WP-SQLI-LAB (protected) listening on 127.0.0.1:%d\n\n",
              port.value());

  gateway::KeepAliveClient client(port.value());
  auto fetch = [&](const char* label, const std::string& path) {
    auto r = client.Get(path);
    if (!r.ok()) {
      std::printf("%-8s GET %-55s -> error\n", label, path.c_str());
      return;
    }
    std::string preview = r->body.substr(0, 60);
    std::printf("%-8s GET %-55s -> HTTP %d  %s%s\n", label, path.c_str(),
                r->status, preview.c_str(),
                r->body.size() > 60 ? "..." : "");
  };

  fetch("benign", "/");
  fetch("benign", "/post?id=7");
  fetch("benign", "/search?s=Post");
  fetch("benign", "/plugins/community-events?uid=1");
  fetch("attack", "/plugins/community-events?uid=-1%20or%201%3D1");
  fetch("attack",
        "/plugins/count-per-day?id=-1%20union%20select%20login,%20pass%20"
        "from%20wp_users");
  fetch("attack", "/plugins/mystat?q=zzz%27%20or%20(select%20count(*)%20from"
                  "%20wp_users%20where%20pass%20%3E%20char(114))%20%3E%200"
                  "%20--%20a");

  std::printf("\nserved %zu requests; Joza blocked %zu attacks\n",
              server.stats().requests_served,
              joza.stats().attacks_detected);
  server.Stop();
  return 0;
}
