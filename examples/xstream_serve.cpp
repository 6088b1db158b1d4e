// xstream-serve: multi-tenant graph query daemon over the X-Stream engine.
//
//   xstream-serve --graphs=social=rmat:14 --port=8080
//   xstream-serve --graphs=web=file:edges.txt,roads=grid:16
//                 --tenants=prod:weight=3:max-jobs=4,batch:weight=1 --port=0
//   (the last example is one command line)
//
// Loads and partitions every --graphs entry at startup, then serves
// algorithm queries over HTTP (POST /v1/jobs, see docs/serving.md) through
// one fair-share JobScheduler per graph. The same port carries the full
// telemetry plane (/metrics, /healthz, /stats, /trace, /attribution).
// SIGTERM/SIGINT drain: new submissions get 503, running jobs finish, then
// the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/sizing.h"
#include "graph/generators.h"
#include "graph/text_io.h"
#include "obs/http_exporter.h"
#include "scheduler/scheduler.h"
#include "serve/service.h"
#include "util/options.h"

namespace xstream {
namespace {

constexpr char kUsage[] = R"(xstream-serve — multi-tenant graph query daemon

  --graphs=NAME=SOURCE[,NAME=SOURCE...]   graphs to mount (required)
      SOURCE = file:PATH   text edge list ("src dst [weight]" lines)
             | rmat:SCALE  RMAT graph, 2^SCALE vertices (edge factor 8)
             | grid:SCALE  grid graph, ~2^SCALE vertices
             | er:SCALE    Erdos-Renyi graph, 2^SCALE vertices
  --port=P                  listen on 127.0.0.1:P (default 0 = ephemeral,
                            printed at startup)
  --engine=in-memory|out-of-core|hybrid   job substrate (default in-memory)
    --workdir=DIR           scratch dir for device engines (default: temp)
    --budget-mb=N           per-job streaming budget, MB (default 64)
    --io-unit-kb=N          I/O unit (default 1024)
  --threads=N               compute pool size (0 = all cores)
  --partitions=N            per-graph partition count (0 = auto)
  --memory-budget=BYTES     scheduler admission budget per graph (default:
                            half of physical memory on hybrid, else off;
                            0 = off)
  --max-active-jobs=N       global concurrent-job ceiling per graph (0 = off)
  --max-body-kb=N           request body ceiling (default 1024; above = 413)
  --tenants=NAME:k=v[:k=v...][,NAME:...]  per-tenant quotas:
      weight=W              fair-share weight (default 1)
      max-jobs=N            concurrent running jobs (0 = unlimited)
      max-queued=N          queued jobs before 429 (0 = unlimited)
      mem-share=F           max fraction of the memory budget per job
  --default-weight=W --default-max-jobs=N --default-max-queued=N
      --default-mem-share=F quotas for tenants not listed in --tenants
)";

// One "k1=v1" split. Aborts with usage on malformed text.
void Split(const std::string& text, char sep, std::vector<std::string>* out) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      end = text.size();
    }
    out->push_back(text.substr(start, end - start));
    start = end + 1;
    if (end == text.size()) {
      break;
    }
  }
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "xstream-serve: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

EdgeList LoadGraphSource(const std::string& source) {
  size_t colon = source.find(':');
  if (colon == std::string::npos) {
    Die("graph source \"" + source + "\" needs a kind prefix (file:/rmat:/grid:/er:)");
  }
  std::string kind = source.substr(0, colon);
  std::string arg = source.substr(colon + 1);
  if (kind == "file") {
    return ReadTextEdgeList(arg, {});
  }
  uint32_t scale = static_cast<uint32_t>(std::strtoul(arg.c_str(), nullptr, 10));
  if (scale == 0 || scale > 28) {
    Die("graph source \"" + source + "\": scale must be in [1,28]");
  }
  uint64_t seed = 1;
  if (kind == "rmat") {
    RmatParams params;
    params.scale = scale;
    params.edge_factor = 8;
    params.undirected = true;
    params.seed = seed;
    return GenerateRmat(params);
  }
  if (kind == "grid") {
    uint32_t side = uint32_t{1} << (scale / 2);
    return GenerateGrid(side, side, seed);
  }
  if (kind == "er") {
    return GenerateErdosRenyi(uint64_t{1} << scale, (uint64_t{1} << scale) * 8, true, seed);
  }
  Die("unknown graph source kind \"" + kind + "\"");
}

TenantQuota ParseQuotaFields(const std::string& name,
                             const std::vector<std::string>& fields, size_t first,
                             TenantQuota base) {
  for (size_t i = first; i < fields.size(); ++i) {
    size_t eq = fields[i].find('=');
    if (eq == std::string::npos) {
      Die("tenant \"" + name + "\": bad quota field \"" + fields[i] + "\"");
    }
    std::string key = fields[i].substr(0, eq);
    std::string value = fields[i].substr(eq + 1);
    if (key == "weight") {
      base.weight = std::strtod(value.c_str(), nullptr);
      if (!(base.weight > 0.0)) {
        Die("tenant \"" + name + "\": weight must be > 0");
      }
    } else if (key == "max-jobs") {
      base.max_running = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "max-queued") {
      base.max_queued = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "mem-share") {
      base.memory_share = std::strtod(value.c_str(), nullptr);
    } else {
      Die("tenant \"" + name + "\": unknown quota key \"" + key + "\"");
    }
  }
  return base;
}

// SIGTERM/SIGINT set the flag; the main loop notices and drains. sig_atomic_t
// keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_shutdown = 0;
void OnShutdownSignal(int) { g_shutdown = 1; }

int Main(int argc, char** argv) {
  Options opts(argc, argv);
  if (opts.GetBool("help", false) || !opts.Has("graphs")) {
    std::fputs(kUsage, stdout);
    return opts.Has("graphs") ? 0 : 2;
  }

  serve::ServiceOptions sopts;
  sopts.engine = opts.GetString("engine", "in-memory");
  sopts.workdir = opts.GetString("workdir", "");
  sopts.threads = static_cast<int>(opts.GetInt("threads", 0));
  sopts.partitions = static_cast<uint32_t>(opts.GetUint("partitions", 0));
  sopts.io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", 1024)) << 10;
  sopts.job_budget_bytes = opts.GetUint("budget-mb", 64) << 20;
  sopts.max_body_bytes = static_cast<size_t>(opts.GetUint("max-body-kb", 1024)) << 10;
  sopts.scheduler.memory_budget_bytes = SchedulerMemoryBudget(
      opts.Has("memory-budget") ? std::optional(opts.GetUint("memory-budget", 0)) : std::nullopt,
      sopts.engine == "hybrid");
  sopts.scheduler.max_active_jobs =
      static_cast<uint32_t>(opts.GetUint("max-active-jobs", 0));
  sopts.scheduler.default_quota.weight = opts.GetDouble("default-weight", 1.0);
  sopts.scheduler.default_quota.max_running =
      static_cast<uint32_t>(opts.GetUint("default-max-jobs", 0));
  sopts.scheduler.default_quota.max_queued =
      static_cast<uint32_t>(opts.GetUint("default-max-queued", 0));
  sopts.scheduler.default_quota.memory_share = opts.GetDouble("default-mem-share", 0.0);
  if (opts.Has("tenants")) {
    std::vector<std::string> entries;
    Split(opts.GetString("tenants", ""), ',', &entries);
    for (const std::string& entry : entries) {
      std::vector<std::string> fields;
      Split(entry, ':', &fields);
      if (fields.empty() || fields[0].empty()) {
        Die("bad --tenants entry \"" + entry + "\"");
      }
      sopts.scheduler.tenants[fields[0]] =
          ParseQuotaFields(fields[0], fields, 1, sopts.scheduler.default_quota);
    }
  }

  serve::GraphService service(sopts);
  {
    std::vector<std::string> entries;
    Split(opts.GetString("graphs", ""), ',', &entries);
    for (const std::string& entry : entries) {
      size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        Die("bad --graphs entry \"" + entry + "\" (want NAME=SOURCE)");
      }
      serve::GraphSpec spec;
      spec.name = entry.substr(0, eq);
      spec.edges = LoadGraphSource(entry.substr(eq + 1));
      std::printf("graph %s: %zu edge records\n", spec.name.c_str(), spec.edges.size());
      service.Mount(std::move(spec));
    }
  }

  obs::HttpExporter exporter;
  service.Start(exporter);
  if (!exporter.Start(static_cast<uint16_t>(opts.GetUint("port", 0)))) {
    std::fprintf(stderr, "xstream-serve: cannot bind 127.0.0.1:%llu%s\n",
                 static_cast<unsigned long long>(opts.GetUint("port", 0)),
#ifdef XSTREAM_DISABLE_OBS
                 " (built with -DXSTREAM_DISABLE_OBS: no HTTP plane)"
#else
                 ""
#endif
    );
    service.Stop();
    return 1;
  }
  std::printf("serve: listening on http://127.0.0.1:%d "
              "(POST /v1/jobs; /v1/graphs /v1/tenants /metrics /healthz /stats)\n",
              exporter.port());
  std::fflush(stdout);  // scripted probes poll this line through a pipe

  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  while (g_shutdown == 0) {
    // The pump threads and the exporter do all the work; this thread only
    // waits for the shutdown signal (usleep returns early on EINTR).
    ::usleep(100 * 1000);
  }

  std::printf("serve: draining (running jobs finish, new submissions get 503)\n");
  std::fflush(stdout);
  service.BeginDrain();
  service.WaitIdle();
  service.Stop();
  exporter.Stop();
  std::printf("serve: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) { return xstream::Main(argc, argv); }
