#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <utility>

#include "core/sizing.h"
#include "graph/edge_io.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"

namespace xstream::serve {

namespace {

obs::HttpResponse JsonError(int status, const std::string& message,
                            const char* retry_after = nullptr) {
  JsonWriter w;
  w.BeginObject();
  w.Field("error", std::string_view(message));
  w.EndObject();
  obs::HttpResponse resp{status, "application/json", w.TakeString() + "\n", {}};
  if (retry_after != nullptr) {
    resp.headers.emplace_back("Retry-After", retry_after);
  }
  return resp;
}

// True if `v` is an integer in [lo, hi]. Casting unchecked JSON numbers
// would wrap negatives, truncate fractions, and is undefined past 2^63.
bool IsIntegerIn(double v, double lo, double hi) {
  return v >= lo && v <= hi && v == std::floor(v);
}

// Validates and converts one POST body into a JobSpec for a graph of
// `num_vertices` vertices. The factory's own ParseJobSpec aborts on bad
// algos (CLI semantics); a service must answer 400 instead, so the
// validation lives here.
bool SpecFromJson(const JsonValue& body, uint64_t num_vertices, JobSpec* spec,
                  std::string* error) {
  const JsonValue* algo = body.Get("algo");
  if (algo == nullptr || !algo->is_string()) {
    *error = "missing required string field \"algo\"";
    return false;
  }
  const auto& known = KnownJobAlgorithms();
  if (std::find(known.begin(), known.end(), algo->as_string()) == known.end()) {
    *error = "unknown algo \"" + algo->as_string() + "\"";
    return false;
  }
  spec->algo = algo->as_string();
  spec->name = spec->algo;
  if (const JsonValue* name = body.Get("name"); name != nullptr && name->is_string()) {
    spec->name = name->as_string();
  }
  if (const JsonValue* params = body.Get("params")) {
    if (!params->is_object()) {
      *error = "\"params\" must be an object";
      return false;
    }
    for (const auto& [key, value] : params->as_object()) {
      if (!value.is_number()) {
        *error = "param \"" + key + "\" must be a number";
        return false;
      }
      if (key == "root" || key == "src") {
        // A root past the graph would run as an empty traversal.
        if (!IsIntegerIn(value.as_double(), 0, static_cast<double>(num_vertices) - 1)) {
          *error = "param \"" + key + "\" must be an integer vertex id in [0, " +
                   std::to_string(num_vertices) + ")";
          return false;
        }
        spec->root = static_cast<VertexId>(value.as_double());
      } else if (key == "iterations" || key == "iters" || key == "max_iterations") {
        if (!IsIntegerIn(value.as_double(), 1, 1e6)) {
          *error = "param \"" + key + "\" must be an integer in [1, 1000000]";
          return false;
        }
        (key == "max_iterations" ? spec->max_iterations : spec->iterations) =
            static_cast<uint64_t>(value.as_double());
      } else if (key == "seed") {
        if (!IsIntegerIn(value.as_double(), 0, 0x1p53)) {
          *error = "param \"seed\" must be an integer in [0, 2^53]";
          return false;
        }
        spec->seed = static_cast<uint64_t>(value.as_double());
      } else {
        *error = "unknown param \"" + key + "\"";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

GraphService::GraphService(ServiceOptions opts)
    : opts_(std::move(opts)), pool_(opts_.threads > 0 ? opts_.threads : NumCores()) {}

GraphService::~GraphService() { Stop(); }

void GraphService::Mount(GraphSpec spec) {
  XS_CHECK(!started_) << "Mount after Start";
  for (const auto& g : graphs_) {
    XS_CHECK(g->name != spec.name) << "duplicate graph \"" << spec.name << "\"";
  }
  auto ctx = std::make_unique<GraphContext>();
  ctx->name = spec.name;
  ctx->info = ScanEdges(spec.edges);
  uint32_t k = opts_.partitions;
  if (k == 0) {
    // Same auto-sizing as the CLI --jobs path: 16 B/vertex covers every job
    // algorithm's state against the per-job streaming budget.
    k = opts_.engine == "in-memory"
            ? 8
            : ChooseOutOfCorePartitions(ctx->info.num_vertices * 16, opts_.job_budget_bytes,
                                        opts_.io_unit_bytes);
  }
  ctx->layout = PartitionLayout(ctx->info.num_vertices, k);
  if (opts_.engine == "in-memory") {
    ctx->source = std::make_unique<MemoryScanSource>(pool_, ctx->layout, spec.edges);
  } else {
    XS_CHECK(opts_.engine == "out-of-core" || opts_.engine == "hybrid")
        << "unknown serve engine \"" << opts_.engine << "\"";
    if (opts_.workdir.empty() && scratch_ == nullptr) {
      scratch_ = std::make_unique<ScratchDir>("xstream-serve");
    }
    std::string workdir = opts_.workdir.empty() ? scratch_->path() : opts_.workdir;
    ctx->disk = std::make_unique<PosixDevice>("disk-" + spec.name, workdir);
    std::string edge_file = spec.name + ".edges";
    WriteEdgeFile(*ctx->disk, edge_file, spec.edges);
    DeviceScanSource::Options sopts;
    sopts.io_unit_bytes = opts_.io_unit_bytes;
    sopts.file_prefix = spec.name + ".scan";
    // Only hybrid jobs pin, and pins are priced from these tallies.
    sopts.collect_dst_tallies = opts_.engine == "hybrid";
    // Any algorithm may arrive later, SSSP included, so the edge files keep
    // their weights.
    sopts.keep_edge_weights = true;
    ctx->source = std::make_unique<DeviceScanSource>(pool_, ctx->layout, sopts, *ctx->disk,
                                                     edge_file);
  }
  ctx->scheduler = std::make_unique<JobScheduler>(*ctx->source, opts_.scheduler);
  XS_LOG(Info) << "serve: mounted graph \"" << spec.name << "\" (" << ctx->info.num_vertices
               << " vertices, " << ctx->info.num_edges << " edges, " << k << " partitions, "
               << opts_.engine << ")";
  graphs_.push_back(std::move(ctx));
}

void GraphService::Start(obs::HttpExporter& exporter) {
  XS_CHECK(!started_);
  started_ = true;
  exporter.set_max_body_bytes(opts_.max_body_bytes);
  exporter.HandlePrefix("/v1", [this](const obs::HttpRequest& request) {
    return Handle(request);
  });
  for (auto& ctx : graphs_) {
    ctx->pump = std::thread([this, c = ctx.get()] { PumpLoop(c); });
  }
}

void GraphService::PumpLoop(GraphContext* ctx) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    bool more = false;
    try {
      more = ctx->scheduler->PumpOne();
    } catch (const std::exception& e) {
      // A job's spill/gather I/O error propagates out of the boundary by
      // design; a daemon logs it and keeps serving the other jobs rather
      // than dying with the whole tenant population.
      XS_LOG(Error) << "serve: pump error on graph \"" << ctx->name << "\": " << e.what();
    }
    // Completion counter: the scheduler's own stats are per-graph; the
    // serve-level counter aggregates them for the /metrics smoke checks.
    uint64_t completed = ctx->scheduler->stats().jobs_completed;
    if (completed > ctx->completed_seen) {
      obs::MetricsRegistry::Global()
          .counter("serve.jobs_completed")
          .Add(completed - ctx->completed_seen);
      ctx->completed_seen = completed;
    }
    if (more) {
      continue;
    }
    // Idle: sleep until a submission pokes the cv (the timeout papers over
    // the submit-before-wait race without busy-spinning).
    std::unique_lock<std::mutex> lk(pump_mu_);
    pump_cv_.wait_for(lk, std::chrono::milliseconds(50));
  }
}

void GraphService::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  pump_cv_.notify_all();
}

void GraphService::WaitIdle() {
  // RunAll lends this thread as a driver: it pumps whenever the graph's own
  // pump thread is between boundaries, and otherwise waits on them.
  for (auto& ctx : graphs_) {
    ctx->scheduler->RunAll();
  }
}

void GraphService::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    return;
  }
  pump_cv_.notify_all();
  for (auto& ctx : graphs_) {
    if (ctx->pump.joinable()) {
      ctx->pump.join();
    }
  }
}

std::vector<std::string> GraphService::graph_names() const {
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& ctx : graphs_) {
    names.push_back(ctx->name);
  }
  return names;
}

JobScheduler* GraphService::scheduler(const std::string& graph) {
  for (auto& ctx : graphs_) {
    if (ctx->name == graph) {
      return ctx->scheduler.get();
    }
  }
  return nullptr;
}

const GraphService::JobEntry* GraphService::FindJobLocked(uint64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

obs::HttpResponse GraphService::Handle(const obs::HttpRequest& request) {
  if (request.path.rfind("/v1/jobs", 0) == 0) {
    return HandleJobs(request);
  }
  if (request.path == "/v1/graphs" && request.method == "GET") {
    return ListGraphs();
  }
  if (request.path == "/v1/tenants" && request.method == "GET") {
    return ListTenants();
  }
  return JsonError(404, "no such resource");
}

obs::HttpResponse GraphService::HandleJobs(const obs::HttpRequest& request) {
  // "/v1/jobs" | "/v1/jobs/<id>" | "/v1/jobs/<id>/result"
  std::string rest = request.path.substr(std::string("/v1/jobs").size());
  if (rest.empty()) {
    if (request.method == "POST") {
      return SubmitJob(request);
    }
    if (request.method == "GET") {
      JsonWriter w;
      w.BeginArray();
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [id, entry] : jobs_) {
        JobReport r = entry.graph->scheduler->report(entry.sched_id);
        w.BeginObject();
        w.Field("id", id);
        w.Field("graph", std::string_view(entry.graph->name));
        w.Field("algo", std::string_view(entry.spec.algo));
        w.Field("tenant", std::string_view(entry.tenant));
        w.Field("state", std::string_view(JobStateName(r.state)));
        w.EndObject();
      }
      w.EndArray();
      return obs::HttpResponse{200, "application/json", w.TakeString() + "\n", {}};
    }
    return JsonError(405, "use POST to submit or GET to list");
  }
  if (rest[0] != '/') {
    return JsonError(404, "no such resource");
  }
  rest.erase(0, 1);
  bool want_result = false;
  if (size_t slash = rest.find('/'); slash != std::string::npos) {
    if (rest.substr(slash) != "/result") {
      return JsonError(404, "no such resource");
    }
    want_result = true;
    rest.resize(slash);
  }
  if (rest.empty() || rest.find_first_not_of("0123456789") != std::string::npos) {
    return JsonError(404, "job ids are decimal integers");
  }
  uint64_t id = std::strtoull(rest.c_str(), nullptr, 10);

  std::lock_guard<std::mutex> lk(mu_);
  const JobEntry* entry = FindJobLocked(id);
  if (entry == nullptr) {
    return JsonError(404, "unknown job id " + rest);
  }
  if (request.method == "DELETE" && !want_result) {
    entry->graph->scheduler->Cancel(entry->sched_id);
    pump_cv_.notify_all();  // a boundary must run for the cancel to land
    JsonWriter w;
    w.BeginObject();
    w.Field("id", id);
    w.Field("state", "cancelling");
    w.EndObject();
    return obs::HttpResponse{202, "application/json", w.TakeString() + "\n", {}};
  }
  if (request.method != "GET") {
    return JsonError(405, "use GET (or DELETE on the job itself)");
  }
  return want_result ? JobResult(*entry) : JobStatus(*entry);
}

obs::HttpResponse GraphService::SubmitJob(const obs::HttpRequest& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return JsonError(503, "draining: not accepting new jobs", "5");
  }
  JsonValue body;
  std::string parse_error;
  if (!ParseJson(request.body, &body, &parse_error)) {
    return JsonError(400, "malformed JSON: " + parse_error);
  }
  if (!body.is_object()) {
    return JsonError(400, "request body must be a JSON object");
  }
  const JsonValue* graph_name = body.Get("graph");
  if (graph_name == nullptr || !graph_name->is_string()) {
    return JsonError(400, "missing required string field \"graph\"");
  }
  GraphContext* graph = nullptr;
  for (auto& ctx : graphs_) {
    if (ctx->name == graph_name->as_string()) {
      graph = ctx.get();
      break;
    }
  }
  if (graph == nullptr) {
    return JsonError(404, "unknown graph \"" + graph_name->as_string() + "\"");
  }
  JobSpec spec;
  std::string spec_error;
  if (!SpecFromJson(body, graph->info.num_vertices, &spec, &spec_error)) {
    return JsonError(400, spec_error);
  }
  std::string tenant;
  if (const JsonValue* t = body.Get("tenant"); t != nullptr && t->is_string()) {
    tenant = t->as_string();
  }

  auto output = std::make_shared<JobOutput>();
  std::unique_ptr<ScheduledJob> job;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_job_id_++;
  }
  if (opts_.engine == "in-memory") {
    job = MakeMemoryJob(spec, static_cast<MemoryScanSource&>(*graph->source), output);
  } else {
    DeviceJobConfig jcfg;
    jcfg.memory_budget_bytes = opts_.job_budget_bytes;
    jcfg.io_unit_bytes = opts_.io_unit_bytes;
    // Hybrid jobs keep their vertices in files so they can pin partitions.
    jcfg.allow_vertex_memory_opt = opts_.engine != "hybrid";
    job = MakeDeviceJob(spec, static_cast<DeviceScanSource&>(*graph->source), *graph->disk,
                        *graph->disk, jcfg, graph->name + ".q" + std::to_string(id), output);
  }
  SubmitOutcome outcome = graph->scheduler->TrySubmit(std::move(job), tenant);
  if (!outcome.accepted) {
    obs::MetricsRegistry::Global().counter("serve.jobs_rejected").Add();
    return JsonError(429, outcome.reason, "1");
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.emplace(id, JobEntry{id, graph, outcome.id, tenant, spec, output});
  }
  obs::MetricsRegistry::Global().counter("serve.jobs_submitted").Add();
  pump_cv_.notify_all();

  JsonWriter w;
  w.BeginObject();
  w.Field("id", id);
  w.Field("graph", std::string_view(graph->name));
  w.Field("algo", std::string_view(spec.algo));
  w.Field("tenant", std::string_view(tenant));
  w.Field("state", std::string_view(JobStateName(JobState::kQueued)));
  w.EndObject();
  obs::HttpResponse resp{201, "application/json", w.TakeString() + "\n", {}};
  resp.headers.emplace_back("Location", "/v1/jobs/" + std::to_string(id));
  return resp;
}

obs::HttpResponse GraphService::JobStatus(const JobEntry& entry) const {
  JobReport r = entry.graph->scheduler->report(entry.sched_id);
  JsonWriter w;
  w.BeginObject();
  w.Field("id", entry.id);
  w.Field("graph", std::string_view(entry.graph->name));
  w.Field("algo", std::string_view(entry.spec.algo));
  w.Field("name", std::string_view(r.name));
  w.Field("tenant", std::string_view(entry.tenant));
  w.Field("state", std::string_view(JobStateName(r.state)));
  w.Field("rounds", r.rounds);
  w.Field("partitions_done", static_cast<uint64_t>(r.partitions_done));
  w.Field("partitions_total", static_cast<uint64_t>(r.partitions_total));
  w.Field("queue_seconds", r.queue_seconds);
  w.Field("run_seconds", r.run_seconds);
  if (r.state == JobState::kDone) {
    w.Field("summary", std::string_view(entry.output->summary));
  }
  w.EndObject();
  return obs::HttpResponse{200, "application/json", w.TakeString() + "\n", {}};
}

obs::HttpResponse GraphService::JobResult(const JobEntry& entry) const {
  JobState state = entry.graph->scheduler->Poll(entry.sched_id);
  if (state == JobState::kCancelled) {
    return JsonError(410, "job was cancelled; no result");
  }
  if (state != JobState::kDone) {
    obs::HttpResponse resp =
        JsonError(409, std::string("job is ") + JobStateName(state) + "; result not ready", "1");
    return resp;
  }
  // The scheduler finalized the job before reporting kDone, so output is
  // complete and immutable here. Doubles go out in the writer's shortest
  // round-trip form (std::to_chars), which reads back bit-exactly — the e2e
  // tests compare against solo runs.
  // JSON numbers cannot carry non-finite values (SSSP marks unreached
  // vertices with +inf), so those become the string forms "Infinity",
  // "-Infinity" and "NaN" to keep the round trip lossless.
  JsonWriter w;
  w.BeginObject();
  w.Field("id", entry.id);
  w.Field("graph", std::string_view(entry.graph->name));
  w.Field("algo", std::string_view(entry.spec.algo));
  w.Field("summary", std::string_view(entry.output->summary));
  w.Key("values").BeginArray();
  for (double v : entry.output->per_vertex) {
    if (std::isfinite(v)) {
      w.Value(v);
    } else if (std::isnan(v)) {
      w.Value("NaN");
    } else {
      w.Value(v > 0 ? "Infinity" : "-Infinity");
    }
  }
  w.EndArray();
  w.EndObject();
  return obs::HttpResponse{200, "application/json", w.TakeString() + "\n", {}};
}

obs::HttpResponse GraphService::ListGraphs() const {
  JsonWriter w;
  w.BeginArray();
  for (const auto& ctx : graphs_) {
    w.BeginObject();
    w.Field("name", std::string_view(ctx->name));
    w.Field("vertices", ctx->info.num_vertices);
    w.Field("edges", ctx->info.num_edges);
    w.Field("partitions", static_cast<uint64_t>(ctx->layout.num_partitions()));
    w.Field("engine", std::string_view(opts_.engine));
    w.EndObject();
  }
  w.EndArray();
  return obs::HttpResponse{200, "application/json", w.TakeString() + "\n", {}};
}

obs::HttpResponse GraphService::ListTenants() const {
  JsonWriter w;
  w.BeginArray();
  for (const auto& ctx : graphs_) {
    for (const TenantStats& t : ctx->scheduler->tenant_stats()) {
      w.BeginObject();
      w.Field("graph", std::string_view(ctx->name));
      w.Field("tenant", std::string_view(t.tenant));
      w.Field("weight", t.weight);
      w.Field("deficit", t.deficit);
      w.Field("queued", static_cast<uint64_t>(t.queued));
      w.Field("running", static_cast<uint64_t>(t.running));
      w.Field("submitted", t.submitted);
      w.Field("rejected", t.rejected);
      w.Field("completed", t.completed);
      w.Field("cancelled", t.cancelled);
      w.EndObject();
    }
  }
  w.EndArray();
  return obs::HttpResponse{200, "application/json", w.TakeString() + "\n", {}};
}

}  // namespace xstream::serve
