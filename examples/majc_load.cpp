// majc_load: load generator + latency probe for the majcd daemon.
//
// Opens N connections, drives M campaign requests down each, and reports
// p50/p99 request latency and aggregate campaign throughput as a
// majc-bench-v1 table (--json=FILE, same schema as the other benches so CI
// uploads it next to perf-smoke artifacts).
//
//   $ ./majcd --socket=/tmp/majcd.sock &
//   $ ./majc_load --socket=/tmp/majcd.sock --connections=4 --requests=8
//   $ ./majc_load --socket=/tmp/majcd.sock --campaign-out=served.json
//   $ ./majc_farm -j1 --kernels=fir,bitrev --seeds=1 --mode=functional
//         --json=cli.json        # (one command line)
//   $ cmp served.json cli.json
//
// Every request in a run is identical, so every campaign payload the
// daemon streams back must be byte-identical — the tool asserts this
// cross-request (and cross-connection) determinism itself and exits
// nonzero on any divergence, transport failure, or structured error.
// --campaign-out dumps the (single, shared) payload for the differential
// against `majc_farm --json` that CI's serve-smoke job runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/client.h"

using namespace majc;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: majc_load --socket=PATH [--connections=N] [--requests=N]\n"
      "                 [--kernels=a,b,...] [--seeds=N] [--seed=BASE]\n"
      "                 [--mode=cycle|functional|both]\n"
      "                 [--backend=interp|threaded] [--workers=N]\n"
      "                 [--json=FILE] [--campaign-out=FILE] [--quiet]\n");
  return 2;
}

struct ConnOutcome {
  std::vector<double> latencies_ms;
  std::string campaign;  // payload of this connection's first success
  u64 errors = 0;
  std::string first_error;
  bool divergent = false;  // some reply's payload differed from the first
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

} // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  unsigned connections = 2;
  unsigned requests = 4;
  std::string kernels_csv = "fir,bitrev";
  serve::CampaignRequest req;
  req.mode = "functional";
  req.seeds = 1;
  bool quiet = false;
  const char* campaign_out = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(9);
    } else if (a.rfind("--connections=", 0) == 0) {
      connections = std::max(
          1u, static_cast<unsigned>(std::strtoul(a.c_str() + 14, nullptr, 10)));
    } else if (a.rfind("--requests=", 0) == 0) {
      requests = std::max(
          1u, static_cast<unsigned>(std::strtoul(a.c_str() + 11, nullptr, 10)));
    } else if (a.rfind("--kernels=", 0) == 0) {
      kernels_csv = a.substr(10);
    } else if (a.rfind("--seeds=", 0) == 0) {
      req.seeds = std::strtoull(a.c_str() + 8, nullptr, 10);
    } else if (a.rfind("--seed=", 0) == 0) {
      req.seed = std::strtoull(a.c_str() + 7, nullptr, 0);
    } else if (a.rfind("--mode=", 0) == 0) {
      req.mode = a.substr(7);
    } else if (a.rfind("--backend=", 0) == 0) {
      req.backend = a.substr(10);
    } else if (a.rfind("--workers=", 0) == 0) {
      req.workers = std::strtoull(a.c_str() + 10, nullptr, 10);
    } else if (a.rfind("--campaign-out=", 0) == 0) {
      campaign_out = argv[i] + 15;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a.rfind("--json=", 0) == 0) {
      // Consumed by bench::Table below.
    } else {
      return usage();
    }
  }
  if (socket_path.empty()) return usage();

  {
    std::stringstream ss(kernels_csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) req.kernels.push_back(item);
    }
  }
  if (req.kernels.empty()) return usage();

  std::vector<ConnOutcome> outcomes(connections);
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (unsigned ci = 0; ci < connections; ++ci) {
    threads.emplace_back([&, ci] {
      ConnOutcome& out = outcomes[ci];
      serve::Client client;
      std::string err;
      if (!client.connect(socket_path, &err)) {
        out.errors = requests;
        out.first_error = "connect: " + err;
        return;
      }
      for (unsigned ri = 0; ri < requests; ++ri) {
        serve::CampaignRequest r = req;
        r.id = static_cast<u64>(ci) * requests + ri + 1;
        serve::CampaignReply reply;
        const auto a = std::chrono::steady_clock::now();
        const bool ok = serve::run_campaign(client, r, &reply, &err);
        const auto b = std::chrono::steady_clock::now();
        if (!ok || !reply.ok) {
          ++out.errors;
          if (out.first_error.empty()) {
            out.first_error = !ok ? err
                                  : reply.error_code + ": " +
                                        reply.error_message;
          }
          continue;
        }
        out.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(b - a).count());
        if (out.campaign.empty()) {
          out.campaign = reply.campaign;
        } else if (reply.campaign != out.campaign) {
          out.divergent = true;
        }
      }
      client.close();
    });
  }
  for (std::thread& t : threads) t.join();

  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Merge + cross-connection determinism check: every successful reply in
  // the whole run must carry the same campaign bytes.
  std::vector<double> latencies;
  std::string reference;
  u64 errors = 0;
  bool divergent = false;
  std::string first_error;
  for (const ConnOutcome& out : outcomes) {
    latencies.insert(latencies.end(), out.latencies_ms.begin(),
                     out.latencies_ms.end());
    errors += out.errors;
    if (out.divergent) divergent = true;
    if (first_error.empty()) first_error = out.first_error;
    if (out.campaign.empty()) continue;
    if (reference.empty()) {
      reference = out.campaign;
    } else if (out.campaign != reference) {
      divergent = true;
    }
  }

  const u64 total = static_cast<u64>(connections) * requests;
  const u64 completed = static_cast<u64>(latencies.size());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double rate = wall_secs > 0.0
                          ? static_cast<double>(completed) / wall_secs
                          : 0.0;

  bench::Table table("majcd load: campaign latency/throughput", argc, argv);
  table.row("campaigns completed",
            std::to_string(total) + " sent",
            std::to_string(completed),
            static_cast<double>(completed), "campaigns");
  table.row("latency p50", "n/a", bench::fmt("%.2f ms", p50), p50, "ms");
  table.row("latency p99", "n/a", bench::fmt("%.2f ms", p99), p99, "ms");
  table.row("throughput", "n/a", bench::fmt("%.2f campaigns/s", rate), rate,
            "campaigns/s");
  table.note("connections=" + std::to_string(connections) +
             " requests/conn=" + std::to_string(requests) +
             " kernels=" + kernels_csv + " mode=" + req.mode +
             " backend=" + req.backend +
             " seeds=" + std::to_string(req.seeds));
  if (!quiet) {
    std::printf("majc_load: %llu/%llu ok in %.2fs, %llu error(s)%s\n",
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(total), wall_secs,
                static_cast<unsigned long long>(errors),
                divergent ? ", DIVERGENT payloads" : "");
  }
  table.finish();

  if (campaign_out != nullptr && !reference.empty()) {
    std::ofstream os(campaign_out, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "majc_load: cannot write %s\n", campaign_out);
      return 2;
    }
    os << reference;
  }

  if (divergent) {
    std::fprintf(stderr,
                 "majc_load: served campaign payloads DIVERGED across "
                 "identical requests\n");
    return 1;
  }
  if (errors != 0) {
    std::fprintf(stderr, "majc_load: %llu request(s) failed (first: %s)\n",
                 static_cast<unsigned long long>(errors),
                 first_error.c_str());
    return 1;
  }
  return 0;
}
