// End-to-end tests for the xstream-serve service (src/serve/service.*):
// the full REST surface over a real ephemeral-port HTTP server, with every
// algorithm's result compared bit-for-bit against a solo JobScheduler run on
// the same graph; fault injection (malformed JSON, unknown graph/algo,
// oversized bodies, client disconnects, drain); per-tenant quota rejection
// with Retry-After; and a randomized multi-client stress run that doubles as
// the TSan workload for the serving path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sizing.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "scheduler/algo_jobs.h"
#include "scheduler/scan_source.h"
#include "scheduler/scheduler.h"
#include "serve/service.h"
#include "threads/thread_pool.h"
#include "util/json.h"

namespace xstream {
namespace {

// The service and the solo oracle must agree on threads and partitions:
// scatter/gather results are bit-deterministic for a fixed (pool size,
// layout) pair, which is exactly what the bit-identical assertions rely on.
constexpr int kThreads = 2;
constexpr uint32_t kPartitions = 8;

EdgeList TestGraph(uint64_t seed, uint32_t scale = 9) {
  RmatParams params;
  params.scale = scale;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

// ---- Raw-socket HTTP client ------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string headers;  // raw header block
  std::string body;
};

// One blocking request against 127.0.0.1:port. The exporter closes after
// each response, so "read to EOF" delimits the body. POST/DELETE bodies go
// out with an exact Content-Length, matching what curl sends.
HttpReply Request(int port, const std::string& method, const std::string& target,
                  const std::string& body = "") {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to 127.0.0.1:" << port;
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    ADD_FAILURE() << "no header terminator in reply: " << raw;
    return reply;
  }
  reply.headers = raw.substr(0, header_end);
  reply.body = raw.substr(header_end + 4);
  if (raw.size() > 12 && raw.rfind("HTTP/1.1 ", 0) == 0) {
    reply.status = std::stoi(raw.substr(9, 3));
  }
  return reply;
}

HttpReply Get(int port, const std::string& target) { return Request(port, "GET", target); }

// Connects, fires the request, and slams the connection shut without reading
// a byte — the poke for the disconnect-survival test.
void RequestAndDisconnect(int port, const std::string& method, const std::string& target,
                          const std::string& body = "") {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  ::send(fd, req.data(), req.size(), 0);
  // An abortive close (SO_LINGER 0) turns into an RST the server's send()
  // hits mid-response — the nastiest client disconnect shape.
  struct linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

// ---- Reply decoding helpers ------------------------------------------------

JsonValue MustParse(const std::string& body) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(body, &value, &error)) << error << " in: " << body;
  return value;
}

uint64_t JobIdOf(const HttpReply& reply) {
  JsonValue v = MustParse(reply.body);
  const JsonValue* id = v.Get("id");
  EXPECT_NE(id, nullptr) << reply.body;
  return id == nullptr ? 0 : static_cast<uint64_t>(id->as_int());
}

// One "values" element back to a double. Non-finite values travel as the
// strings "Infinity"/"-Infinity"/"NaN" (JSON has no non-finite numbers).
double ResultValue(const JsonValue& v) {
  if (v.is_number()) {
    return v.as_double();
  }
  if (v.is_string()) {
    if (v.as_string() == "Infinity") {
      return std::numeric_limits<double>::infinity();
    }
    if (v.as_string() == "-Infinity") {
      return -std::numeric_limits<double>::infinity();
    }
    if (v.as_string() == "NaN") {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  ADD_FAILURE() << "unexpected result element type";
  return 0.0;
}

std::string HeaderValueOf(const HttpReply& reply, const std::string& name) {
  // Case-sensitive is fine: our server emits canonical casing.
  std::string needle = "\r\n" + name + ": ";
  size_t pos = reply.headers.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  size_t start = pos + needle.size();
  size_t end = reply.headers.find('\r', start);
  return reply.headers.substr(start, end - start);
}

// ---- Service fixture --------------------------------------------------------

struct ServeHarness {
  explicit ServeHarness(serve::ServiceOptions sopts = {}, uint64_t seed = 21,
                        uint32_t scale = 9)
      : edges(TestGraph(seed, scale)) {
    sopts.threads = kThreads;
    sopts.partitions = kPartitions;
    service = std::make_unique<serve::GraphService>(std::move(sopts));
    serve::GraphSpec spec;
    spec.name = "g";
    spec.edges = edges;
    service->Mount(std::move(spec));
    service->Start(exporter);
    EXPECT_TRUE(exporter.Start(0));
    port = exporter.port();
  }

  ~ServeHarness() {
    service->WaitIdle();  // never tear down under a running pump round
    service->Stop();
    exporter.Stop();
  }

  // POST /v1/jobs; expects 201 and returns the service job id.
  uint64_t Submit(const std::string& json) {
    HttpReply reply = Request(port, "POST", "/v1/jobs", json);
    EXPECT_EQ(reply.status, 201) << reply.body;
    return JobIdOf(reply);
  }

  // Polls GET /v1/jobs/<id> until the state settles. Returns the final
  // status body.
  JsonValue WaitState(uint64_t id, const std::string& want) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      HttpReply reply = Get(port, "/v1/jobs/" + std::to_string(id));
      EXPECT_EQ(reply.status, 200) << reply.body;
      JsonValue v = MustParse(reply.body);
      const JsonValue* state = v.Get("state");
      if (state != nullptr && state->as_string() == want) {
        return v;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "job " << id << " never reached \"" << want
                      << "\": " << reply.body;
        return v;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  EdgeList edges;
  std::unique_ptr<serve::GraphService> service;
  obs::HttpExporter exporter;
  int port = 0;
};

// Runs `spec_text` solo through a fresh scheduler on the same graph with the
// same pool size and partition count — the bit-identity oracle.
std::vector<double> SoloRun(const EdgeList& edges, const std::string& spec_text) {
  GraphInfo info = ScanEdges(edges);
  ThreadPool pool(kThreads);
  PartitionLayout layout(info.num_vertices, kPartitions);
  MemoryScanSource source(pool, layout, edges);
  JobScheduler sched(source);
  auto out = std::make_shared<JobOutput>();
  JobId id = sched.Submit(MakeMemoryJob(ParseJobSpec(spec_text), source, out));
  EXPECT_TRUE(sched.Wait(id));
  return out->per_vertex;
}

// ---- Device mounts keep edge weights ----------------------------------------

TEST(ServeTest, OutOfCoreMountKeepsEdgeWeightsForSssp) {
  // A device mount's scan source must store edge weights: any algorithm may
  // arrive, and SSSP reads them. On a source without weights this
  // submission would abort the daemon.
  serve::ServiceOptions sopts;
  sopts.engine = "out-of-core";
  ServeHarness h(std::move(sopts));
  uint64_t id = h.Submit(R"({"graph":"g","algo":"sssp","params":{"src":0}})");
  h.WaitState(id, "done");
  HttpReply result = Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200) << result.body;
  JsonValue parsed = MustParse(result.body);
  ASSERT_NE(parsed.Get("values"), nullptr) << result.body;
  const std::vector<JsonValue>& values = parsed.Get("values")->as_array();
  std::vector<double> solo = SoloRun(h.edges, "sssp:src=0");
  ASSERT_EQ(values.size(), solo.size());
  bool weighted = false;  // some distance is not a hop count
  for (size_t v = 0; v < solo.size(); ++v) {
    const double got = ResultValue(values[v]);
    if (std::isinf(solo[v])) {
      EXPECT_TRUE(std::isinf(got)) << "vertex " << v;
      continue;
    }
    EXPECT_NEAR(got, solo[v], 1e-5 * solo[v] + 1e-6) << "vertex " << v;
    weighted = weighted || solo[v] != std::floor(solo[v]);
  }
  EXPECT_TRUE(weighted) << "the test graph lost its weights";
}

// ---- Hybrid mounts pin under the default budget ------------------------------

TEST(ServeTest, HybridMountPinsUnderTheDefaultBudget) {
  // xstream-serve's budget when --memory-budget is unset. Without one the
  // scheduler never re-splits, so hybrid jobs would pin nothing.
  serve::ServiceOptions sopts;
  sopts.engine = "hybrid";
  sopts.scheduler.memory_budget_bytes = SchedulerMemoryBudget(std::nullopt, /*hybrid=*/true);
  obs::Counter& promotions = obs::MetricsRegistry::Global().counter("residency.promotions");
  const uint64_t promotions_before = promotions.Value();
  ServeHarness h(std::move(sopts));
  uint64_t pagerank = h.Submit(R"({"graph":"g","algo":"pagerank","params":{"iters":5}})");
  uint64_t wcc = h.Submit(R"({"graph":"g","algo":"wcc"})");

  auto values_of = [&h](uint64_t id) {
    h.WaitState(id, "done");
    HttpReply result = Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result");
    EXPECT_EQ(result.status, 200) << result.body;
    std::vector<double> out;
    JsonValue parsed = MustParse(result.body);
    if (const JsonValue* values = parsed.Get("values"); values != nullptr) {
      for (const JsonValue& v : values->as_array()) {
        out.push_back(ResultValue(v));
      }
    }
    return out;
  };
  const uint64_t n = ScanEdges(h.edges).num_vertices;
  std::vector<double> ranks = values_of(pagerank);
  std::vector<double> labels = values_of(wcc);
  ASSERT_EQ(ranks.size(), n);
  ASSERT_EQ(labels.size(), n);
  std::vector<double> expected_ranks = ReferencePageRank(ReferenceGraph(h.edges, n), 5);
  std::vector<VertexId> expected_labels = ReferenceWcc(h.edges, n);
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(ranks[v], expected_ranks[v], 1e-4 * expected_ranks[v] + 1e-9) << "vertex " << v;
    EXPECT_EQ(labels[v], static_cast<double>(expected_labels[v])) << "vertex " << v;
  }
  EXPECT_GT(h.service->scheduler("g")->stats().budget_resplits, 0u);
  EXPECT_GT(promotions.Value(), promotions_before);
}

// ---- End-to-end: every algorithm, bit-identical to a solo run ---------------

TEST(ServeTest, AllAlgorithmsOverHttpMatchSoloSchedulerBitExact) {
  ServeHarness h;
  struct Case {
    const char* request;
    const char* solo_spec;
  };
  const Case cases[] = {
      {R"({"graph":"g","algo":"pagerank","params":{"iters":5}})", "pagerank:iters=5"},
      {R"({"graph":"g","algo":"bfs","params":{"src":0}})", "bfs:src=0"},
      {R"({"graph":"g","algo":"sssp","params":{"src":0}})", "sssp:src=0"},
      {R"({"graph":"g","algo":"wcc"})", "wcc"},
  };

  // Submit all four up front so they co-schedule on shared scans — the
  // strongest form of the claim: sharing must not perturb a single bit.
  std::vector<uint64_t> ids;
  for (const Case& c : cases) {
    HttpReply reply = Request(h.port, "POST", "/v1/jobs", c.request);
    ASSERT_EQ(reply.status, 201) << reply.body;
    uint64_t id = JobIdOf(reply);
    EXPECT_EQ(HeaderValueOf(reply, "Location"), "/v1/jobs/" + std::to_string(id));
    ids.push_back(id);
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    h.WaitState(ids[i], "done");
    HttpReply result = Get(h.port, "/v1/jobs/" + std::to_string(ids[i]) + "/result");
    ASSERT_EQ(result.status, 200) << result.body;
    JsonValue v = MustParse(result.body);
    ASSERT_NE(v.Get("values"), nullptr) << result.body;
    const std::vector<JsonValue>& values = v.Get("values")->as_array();

    std::vector<double> solo = SoloRun(h.edges, cases[i].solo_spec);
    ASSERT_EQ(values.size(), solo.size()) << cases[i].solo_spec;
    for (size_t vtx = 0; vtx < solo.size(); ++vtx) {
      // EXPECT_EQ, not NEAR: shortest round-trip serialization reads back
      // exactly, so the HTTP path must reproduce the solo run bit for bit.
      EXPECT_EQ(ResultValue(values[vtx]), solo[vtx])
          << cases[i].solo_spec << " vertex " << vtx;
    }
    EXPECT_FALSE(v.Get("summary")->as_string().empty());
  }

  // The serve counters moved on the shared /metrics endpoint.
  HttpReply metrics = Get(h.port, "/metrics");
  EXPECT_NE(metrics.body.find("xstream_serve_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("xstream_serve_jobs_completed_total"), std::string::npos);
}

TEST(ServeTest, LateSubmissionJoinsWhileEarlierJobsRun) {
  ServeHarness h;
  // A long job keeps the scheduler busy...
  uint64_t slow =
      h.Submit(R"({"graph":"g","algo":"pagerank","params":{"iters":400}})");
  // ...and a fresh submission lands mid-flight, gets admitted at a partition
  // boundary and completes correctly.
  uint64_t late = h.Submit(R"({"graph":"g","algo":"bfs","params":{"src":0}})");
  h.WaitState(late, "done");
  HttpReply result = Get(h.port, "/v1/jobs/" + std::to_string(late) + "/result");
  ASSERT_EQ(result.status, 200);
  JsonValue parsed = MustParse(result.body);
  const std::vector<JsonValue>& values = parsed.Get("values")->as_array();
  std::vector<double> solo = SoloRun(h.edges, "bfs:src=0");
  ASSERT_EQ(values.size(), solo.size());
  for (size_t vtx = 0; vtx < solo.size(); ++vtx) {
    EXPECT_EQ(ResultValue(values[vtx]), solo[vtx]) << "vertex " << vtx;
  }
  h.WaitState(slow, "done");
}

// ---- Fault injection --------------------------------------------------------

TEST(ServeTest, MalformedAndUnknownRequestsGetProperStatusCodes) {
  ServeHarness h;
  // Malformed JSON → 400 with a parse diagnostic.
  HttpReply bad_json = Request(h.port, "POST", "/v1/jobs", "{\"graph\":\"g\",");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(bad_json.body.find("malformed JSON"), std::string::npos) << bad_json.body;
  // Non-object body → 400.
  EXPECT_EQ(Request(h.port, "POST", "/v1/jobs", "[1,2]").status, 400);
  // Unknown graph → 404; unknown algo / unknown param → 400.
  EXPECT_EQ(
      Request(h.port, "POST", "/v1/jobs", R"({"graph":"nope","algo":"bfs"})").status, 404);
  EXPECT_EQ(
      Request(h.port, "POST", "/v1/jobs", R"({"graph":"g","algo":"dijkstra"})").status, 400);
  EXPECT_EQ(Request(h.port, "POST", "/v1/jobs",
                    R"({"graph":"g","algo":"bfs","params":{"hops":3}})")
                .status,
            400);
  // Roots must be integer vertex ids of the target graph: ids past |V|,
  // negatives (which a cast would wrap) and fractions (which it would
  // truncate) → 400; the last vertex is still a valid root.
  const uint64_t n = ScanEdges(h.edges).num_vertices;
  for (const std::string& root :
       {std::to_string(n), std::string("99999999"), std::string("4294967296"),
        std::string("-1"), std::string("1.5"), std::to_string(n - 1) + ".25"}) {
    for (const char* key : {"root", "src"}) {
      HttpReply reply = Request(
          h.port, "POST", "/v1/jobs",
          std::string(R"({"graph":"g","algo":"bfs","params":{")") + key + "\":" + root + "}}");
      EXPECT_EQ(reply.status, 400) << key << "=" << root << ": " << reply.body;
      EXPECT_NE(reply.body.find("vertex id"), std::string::npos) << reply.body;
    }
  }
  h.WaitState(h.Submit(R"({"graph":"g","algo":"sssp","params":{"src":)" + std::to_string(n - 1) +
                       "}}"),
              "done");
  // Iteration caps must be integers in [1, 1000000] and seeds integers in
  // [0, 2^53]: a cast would wrap -1 to 2^64-1 (which the PageRank round
  // count then overflows to 0), truncate 1.5, and is undefined past 2^63.
  struct BadParam {
    const char* algo;
    const char* key;
    const char* value;
  };
  for (const BadParam& bad : std::vector<BadParam>{
           {"pagerank", "iterations", "-1"},  {"pagerank", "iters", "-1"},
           {"pagerank", "iters", "0"},        {"pagerank", "iters", "1.5"},
           {"pagerank", "iters", "1000001"},  {"pagerank", "iters", "1e19"},
           {"wcc", "max_iterations", "-3"},   {"wcc", "max_iterations", "0"},
           {"wcc", "max_iterations", "2.5"},  {"wcc", "max_iterations", "1e300"},
           {"spmv", "seed", "-1"},            {"spmv", "seed", "0.5"},
           {"spmv", "seed", "9007199254740994"}, {"spmv", "seed", "1e19"}}) {
    HttpReply reply =
        Request(h.port, "POST", "/v1/jobs",
                std::string(R"({"graph":"g","algo":")") + bad.algo + R"(","params":{")" +
                    bad.key + "\":" + bad.value + "}}");
    EXPECT_EQ(reply.status, 400) << bad.key << "=" << bad.value << ": " << reply.body;
    EXPECT_NE(reply.body.find("must be an integer"), std::string::npos) << reply.body;
  }
  h.WaitState(h.Submit(R"({"graph":"g","algo":"spmv","params":{"seed":9007199254740992}})"),
              "done");
  h.WaitState(h.Submit(R"({"graph":"g","algo":"wcc","params":{"max_iterations":1000000}})"),
              "done");
  // Unknown routes and malformed ids → 404; wrong methods → 405.
  EXPECT_EQ(Get(h.port, "/v1/nope").status, 404);
  EXPECT_EQ(Get(h.port, "/v1/jobs/abc").status, 404);
  EXPECT_EQ(Get(h.port, "/v1/jobs/999999").status, 404);
  EXPECT_EQ(Request(h.port, "PUT", "/v1/jobs", "{}").status, 405);
  EXPECT_EQ(Request(h.port, "POST", "/metrics").status, 405);

  // Result-state machinery: 409 while queued/running, 202 on cancel, 410
  // after the cancellation lands.
  uint64_t id = h.Submit(R"({"graph":"g","algo":"pagerank","params":{"iters":400}})");
  HttpReply not_ready = Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result");
  EXPECT_EQ(not_ready.status, 409);
  EXPECT_EQ(HeaderValueOf(not_ready, "Retry-After"), "1");
  HttpReply cancel = Request(h.port, "DELETE", "/v1/jobs/" + std::to_string(id));
  EXPECT_EQ(cancel.status, 202);
  h.WaitState(id, "cancelled");
  EXPECT_EQ(Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result").status, 410);
}

TEST(ServeTest, OversizedBodyGets413WithoutReadingIt) {
  serve::ServiceOptions sopts;
  sopts.max_body_bytes = 256;
  ServeHarness h(std::move(sopts));
  std::string huge = R"({"graph":"g","algo":"bfs","padding":")" +
                     std::string(4096, 'x') + "\"}";
  HttpReply reply = Request(h.port, "POST", "/v1/jobs", huge);
  EXPECT_EQ(reply.status, 413);
  // The limit applies to bodies, not to the service itself: a small request
  // on the same server still works.
  EXPECT_EQ(Request(h.port, "POST", "/v1/jobs", R"({"graph":"g","algo":"wcc"})").status,
            201);
}

TEST(ServeTest, ClientDisconnectMidResponseDoesNotKillTheDaemon) {
  // A bigger graph makes the result body outgrow socket buffers, so the
  // server is still send()ing when the RST arrives.
  ServeHarness h({}, 23, /*scale=*/12);
  uint64_t id = h.Submit(R"({"graph":"g","algo":"pagerank","params":{"iters":3}})");
  h.WaitState(id, "done");
  std::string result_path = "/v1/jobs/" + std::to_string(id) + "/result";
  for (int i = 0; i < 8; ++i) {
    RequestAndDisconnect(h.port, "GET", result_path);
    RequestAndDisconnect(h.port, "POST", "/v1/jobs",
                         R"({"graph":"g","algo":"wcc"})");
  }
  // The exporter thread survived every RST: full requests still complete.
  HttpReply alive = Get(h.port, result_path);
  EXPECT_EQ(alive.status, 200);
  EXPECT_NE(alive.body.find("\"values\""), std::string::npos);
  EXPECT_EQ(Get(h.port, "/healthz").status, 200);
}

TEST(ServeTest, DrainRejectsNewJobsAndFinishesRunningOnes) {
  ServeHarness h;
  uint64_t running =
      h.Submit(R"({"graph":"g","algo":"pagerank","params":{"iters":200}})");
  h.service->BeginDrain();
  EXPECT_TRUE(h.service->draining());
  HttpReply rejected = Request(h.port, "POST", "/v1/jobs",
                               R"({"graph":"g","algo":"wcc"})");
  EXPECT_EQ(rejected.status, 503);
  EXPECT_EQ(HeaderValueOf(rejected, "Retry-After"), "5");
  // Reads stay up during the drain, and the in-flight job runs to done.
  EXPECT_EQ(Get(h.port, "/v1/graphs").status, 200);
  h.service->WaitIdle();
  h.WaitState(running, "done");
  EXPECT_EQ(Get(h.port, "/v1/jobs/" + std::to_string(running) + "/result").status, 200);
}

// ---- Per-tenant quotas over HTTP -------------------------------------------

TEST(ServeTest, TenantQuotaRejectionIs429WithRetryAfter) {
  serve::ServiceOptions sopts;
  sopts.scheduler.max_active_jobs = 1;
  TenantQuota capped;
  capped.max_queued = 1;
  sopts.scheduler.tenants["burst"] = capped;
  ServeHarness h(std::move(sopts));

  // Job 1 occupies the single active slot for a while; job 2 fills tenant
  // "burst"'s queue depth of 1; job 3 must bounce with 429 + Retry-After.
  std::string long_job =
      R"({"graph":"g","algo":"pagerank","params":{"iters":2000},"tenant":"burst"})";
  std::string short_job = R"({"graph":"g","algo":"wcc","tenant":"burst"})";
  uint64_t first = h.Submit(long_job);
  // The queue check below needs job 1 admitted, not queued in front of job 2.
  h.WaitState(first, "running");
  uint64_t second = h.Submit(short_job);
  HttpReply rejected = Request(h.port, "POST", "/v1/jobs", short_job);
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  EXPECT_EQ(HeaderValueOf(rejected, "Retry-After"), "1");
  EXPECT_NE(rejected.body.find("queue full"), std::string::npos) << rejected.body;

  // An unthrottled tenant is not affected by burst's quota.
  uint64_t other = h.Submit(R"({"graph":"g","algo":"wcc","tenant":"calm"})");

  // /v1/tenants surfaces the rejection in burst's counters.
  HttpReply tenants = Get(h.port, "/v1/tenants");
  EXPECT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"tenant\":\"burst\""), std::string::npos) << tenants.body;
  EXPECT_NE(tenants.body.find("\"rejected\":1"), std::string::npos) << tenants.body;

  // Cancel the long job so teardown is quick; everything else completes.
  Request(h.port, "DELETE", "/v1/jobs/" + std::to_string(first));
  h.service->WaitIdle();
  h.WaitState(second, "done");
  h.WaitState(other, "done");
}

// ---- Randomized multi-client stress (the TSan leg runs this) ----------------

TEST(ServeTest, RandomizedMultiClientStress) {
  serve::ServiceOptions sopts;
  // Quotas on half the tenants so the 429 path is part of the race surface.
  TenantQuota tight;
  tight.max_queued = 3;
  tight.weight = 2.0;
  sopts.scheduler.tenants["t0"] = tight;
  sopts.scheduler.tenants["t1"] = tight;
  ServeHarness h(std::move(sopts), 29, /*scale=*/8);

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 12;
  std::atomic<int> submitted{0};
  std::atomic<int> completed_seen{0};
  std::mutex ids_mu;
  std::vector<uint64_t> all_ids;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<uint32_t>(1000 + c));
      const char* algos[] = {"pagerank", "bfs", "wcc", "sssp"};
      std::vector<uint64_t> mine;
      for (int op = 0; op < kOpsPerClient; ++op) {
        switch (rng() % 5) {
          case 0:
          case 1: {  // submit
            std::string algo = algos[rng() % 4];
            std::string body = "{\"graph\":\"g\",\"algo\":\"" + algo + "\"";
            if (algo == "pagerank") {
              body += ",\"params\":{\"iters\":" + std::to_string(2 + rng() % 8) + "}";
            } else if (algo == "bfs" || algo == "sssp") {
              body += ",\"params\":{\"src\":" + std::to_string(rng() % 16) + "}";
            }
            body += ",\"tenant\":\"t" + std::to_string(c % 3) + "\"}";
            HttpReply reply = Request(h.port, "POST", "/v1/jobs", body);
            EXPECT_TRUE(reply.status == 201 || reply.status == 429) << reply.body;
            if (reply.status == 201) {
              mine.push_back(JobIdOf(reply));
              submitted.fetch_add(1);
            }
            break;
          }
          case 2: {  // poll someone
            if (!mine.empty()) {
              uint64_t id = mine[rng() % mine.size()];
              HttpReply reply = Get(h.port, "/v1/jobs/" + std::to_string(id));
              EXPECT_EQ(reply.status, 200) << reply.body;
              if (reply.body.find("\"state\":\"done\"") != std::string::npos) {
                completed_seen.fetch_add(1);
              }
            }
            break;
          }
          case 3: {  // fetch a result (any of 200/409/410 is legal mid-race)
            if (!mine.empty()) {
              uint64_t id = mine[rng() % mine.size()];
              HttpReply reply =
                  Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result");
              EXPECT_TRUE(reply.status == 200 || reply.status == 409 ||
                          reply.status == 410)
                  << reply.status << " " << reply.body;
            }
            break;
          }
          case 4: {  // cancel or scrape
            if (!mine.empty() && rng() % 2 == 0) {
              uint64_t id = mine[rng() % mine.size()];
              HttpReply reply =
                  Request(h.port, "DELETE", "/v1/jobs/" + std::to_string(id));
              EXPECT_EQ(reply.status, 202) << reply.body;
            } else {
              EXPECT_EQ(Get(h.port, rng() % 2 == 0 ? "/metrics" : "/v1/tenants").status,
                        200);
            }
            break;
          }
        }
      }
      std::lock_guard<std::mutex> lk(ids_mu);
      all_ids.insert(all_ids.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // Quiesce, then check global coherence: every accepted job reached a
  // terminal state and its terminal answer is servable exactly once the
  // state says so.
  h.service->WaitIdle();
  ASSERT_GT(submitted.load(), 0);
  int done = 0, cancelled = 0;
  for (uint64_t id : all_ids) {
    HttpReply status = Get(h.port, "/v1/jobs/" + std::to_string(id));
    ASSERT_EQ(status.status, 200);
    JsonValue v = MustParse(status.body);
    std::string state = v.Get("state")->as_string();
    EXPECT_TRUE(state == "done" || state == "cancelled") << status.body;
    HttpReply result = Get(h.port, "/v1/jobs/" + std::to_string(id) + "/result");
    if (state == "done") {
      ++done;
      EXPECT_EQ(result.status, 200);
    } else {
      ++cancelled;
      EXPECT_EQ(result.status, 410);
    }
  }
  EXPECT_EQ(done + cancelled, static_cast<int>(all_ids.size()));
  EXPECT_GT(done, 0);
  // The scheduler's books balance with what the clients saw.
  SchedulerStats stats = h.service->scheduler("g")->stats();
  EXPECT_EQ(stats.jobs_completed + stats.jobs_cancelled,
            static_cast<uint64_t>(submitted.load()));
}

// ---- In-process surface checks ----------------------------------------------

TEST(ServeTest, GraphListingAndInProcessHandle) {
  ServeHarness h;
  HttpReply graphs = Get(h.port, "/v1/graphs");
  EXPECT_EQ(graphs.status, 200);
  JsonValue v = MustParse(graphs.body);
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 1u);
  EXPECT_EQ(v.as_array()[0].Get("name")->as_string(), "g");
  EXPECT_EQ(v.as_array()[0].Get("partitions")->as_int(), 8);
  EXPECT_EQ(v.as_array()[0].Get("engine")->as_string(), "in-memory");

  // Handle() is the same entry point the exporter uses; tests (and embedders)
  // can call it without a socket.
  obs::HttpRequest req;
  req.method = "GET";
  req.path = "/v1/graphs";
  obs::HttpResponse in_process = h.service->Handle(req);
  EXPECT_EQ(in_process.status, 200);
  EXPECT_EQ(in_process.body, graphs.body);
}

}  // namespace
}  // namespace xstream
