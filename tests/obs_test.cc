// The observability layer (src/obs/): sharded-counter exactness under
// concurrency, histogram bucket/percentile behaviour, registry JSON
// snapshots, phase-tracer span recording and Chrome-trace export, and the
// RunStats JSON schema staying identical across all three engine modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/sim_device.h"

namespace xstream {
namespace {

// Minimal JSON validity scanner: strings with escapes, balanced {} / [],
// no trailing garbage. Not a parser — enough to catch emitter bugs
// (unbalanced containers, missing commas produce invalid tokens only a
// real parser would see, so the schema tests below also match exact keys).
bool JsonWellFormed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && !s.empty();
}

// Keys of the top-level object, in order of appearance.
std::vector<std::string> TopLevelKeys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::string current;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
        current.push_back(c);
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && i + 1 < json.size() && json[i + 1] == ':') {
          keys.push_back(current);
        }
      } else {
        current.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current.clear();
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return keys;
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, AddWithArgumentAccumulates) {
  obs::Counter c;
  c.Add(5);
  c.Add(37);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(HistogramTest, PercentileSanity) {
  obs::Histogram h;
  // 90 small values in (1,2] and 10 large ones in (512,1024]: p50 must land
  // in the small bucket, p99 in the large one. Percentile returns the
  // bucket's upper bound, so the answers are exact powers of two.
  for (int i = 0; i < 90; ++i) {
    h.Observe(1.5);
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(600.0);
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_NEAR(h.Sum(), 90 * 1.5 + 10 * 600.0, 1e-9);
  EXPECT_NEAR(h.Mean(), h.Sum() / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.9), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 1024.0);
}

TEST(HistogramTest, EdgeValues) {
  obs::Histogram h;
  h.Observe(0.0);   // bucket 0
  h.Observe(-3.0);  // clamped into bucket 0
  h.Observe(1.0);   // still bucket 0 (<= 1)
  EXPECT_EQ(h.BucketCount(0), 3u);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram().Percentile(0.5), 0.0);  // empty
}

TEST(RegistryTest, JsonSnapshotWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").Add(7);
  reg.gauge("a.level").Set(3.5);
  reg.histogram("a.lat_us").Observe(12.0);
  std::string json = reg.ToJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"a.count\":7"), std::string::npos) << json;
  std::vector<std::string> keys = TopLevelKeys(json);
  EXPECT_EQ(keys, (std::vector<std::string>{"counters", "gauges", "histograms"}));
}

TEST(RegistryTest, HandlesAreStableAndNamesShared) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same.name");
  obs::Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  obs::MetricGroup group(reg, "grp");
  group.counter("x").Add(3);
  EXPECT_EQ(reg.counter("grp.x").Value(), 3u);
}

TEST(TracerTest, SpansRecordAndNestByContainment) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable();
  {
    obs::TraceSpan outer("iteration");
    {
      obs::TraceSpan inner("scatter", "phase", /*partition=*/3);
    }
  }
  tracer.Disable();
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first, so the scatter event is recorded first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "scatter");
  EXPECT_EQ(inner.partition, 3);
  EXPECT_STREQ(outer.name, "iteration");
  EXPECT_EQ(inner.tid, outer.tid);
  // Time containment: the inner span nests inside the outer one.
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);

  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"scatter\""), std::string::npos);
  tracer.Reset();
}

TEST(TracerTest, DisabledSpansCostNothingAndRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  ASSERT_FALSE(tracer.enabled());
  {
    obs::TraceSpan span("scatter");
    obs::ManualSpan manual;
    manual.Start(1);
    manual.Stop("gather");
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, ManualSpanCancelDropsTheSpan) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable();
  obs::ManualSpan span;
  span.Start(0);
  span.Cancel();
  span.Stop("scatter");  // after Cancel: must not record
  tracer.Disable();
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.Reset();
}

TEST(TracerTest, SampleRateZeroSuppressesEverySpan) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable();
  tracer.set_sample_rate(0.0);
  for (int i = 0; i < 100; ++i) {
    obs::TraceSpan span("scatter", "phase", i);
    obs::ManualSpan manual;
    manual.Start(0);
    manual.Stop("gather");
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);  // never sampled, so never dropped

  // Rate 1.0 restores record-everything (the default).
  tracer.set_sample_rate(1.0);
  { obs::TraceSpan span("scatter"); }
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
  tracer.Disable();
  tracer.Reset();
}

TEST(TracerTest, MidRateSamplingKeepsAFraction) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable();
  tracer.set_sample_rate(0.5);
  constexpr int kSpans = 4000;
  for (int i = 0; i < kSpans; ++i) {
    obs::TraceSpan span("scatter");
  }
  size_t kept = tracer.Snapshot().size();
  // xorshift32 at rate 0.5: binomial(4000, 0.5) stays within ±10% of the
  // mean with overwhelming probability (and the draw sequence is
  // deterministic per thread, so this cannot flake).
  EXPECT_GT(kept, kSpans * 2 / 5) << kept;
  EXPECT_LT(kept, kSpans * 3 / 5) << kept;
  tracer.set_sample_rate(1.0);
  tracer.Disable();
  tracer.Reset();
}

TEST(TracerTest, RingCapacityBoundsRetentionKeepingNewest) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.set_ring_capacity(4);
  tracer.Enable();
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span("scatter", "phase", /*partition=*/i);
  }
  tracer.Disable();
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first chronological order, newest four retained: partitions 6..9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].partition, 6 + i);
  }
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"droppedSpans\":6"), std::string::npos) << json;

  // Shrinking an occupied ring keeps the newest spans and counts the rest
  // as dropped; capacity 0 returns to unbounded.
  tracer.set_ring_capacity(2);
  EXPECT_EQ(tracer.Snapshot().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 8u);
  tracer.set_ring_capacity(0);
  tracer.Reset();
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Every engine mode must emit the same RunStats JSON schema — unused fields
// as zeroes, never missing — so dashboards and bench_diff keys stay valid
// regardless of which engine produced the run.
TEST(RunStatsJsonTest, SchemaIdenticalAcrossEngineModes) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 7;
  EdgeList edges = GenerateRmat(params);
  GraphInfo info = ScanEdges(edges);

  InMemoryConfig mem_config;
  mem_config.threads = 2;
  InMemoryEngine<WccAlgorithm> mem(mem_config, edges, info.num_vertices);
  RunStats mem_stats = RunWcc(mem).stats;

  SimDevice ooc_dev("ooc", DeviceProfile::Instant());
  WriteEdgeFile(ooc_dev, "input", edges);
  HybridConfig ooc_config;
  ooc_config.allow_vertex_memory_opt = true;
  ooc_config.threads = 2;
  ooc_config.num_partitions = 4;
  ooc_config.io_unit_bytes = 16 << 10;
  HybridEngine<WccAlgorithm> ooc(ooc_config, ooc_dev, ooc_dev, ooc_dev, "input", info);
  RunStats ooc_stats = RunWcc(ooc).stats;

  SimDevice hyb_dev("hyb", DeviceProfile::Instant());
  WriteEdgeFile(hyb_dev, "input", edges);
  HybridConfig hyb_config;
  hyb_config.threads = 2;
  hyb_config.num_partitions = 4;
  hyb_config.io_unit_bytes = 16 << 10;
  hyb_config.memory_budget_bytes = 1 << 20;
  HybridEngine<WccAlgorithm> hyb(hyb_config, hyb_dev, hyb_dev, hyb_dev, "input", info);
  RunStats hyb_stats = RunWcc(hyb).stats;

  std::string mem_json = mem_stats.ToJson();
  std::string ooc_json = ooc_stats.ToJson();
  std::string hyb_json = hyb_stats.ToJson();
  EXPECT_TRUE(JsonWellFormed(mem_json));
  EXPECT_TRUE(JsonWellFormed(ooc_json));
  EXPECT_TRUE(JsonWellFormed(hyb_json));

  std::vector<std::string> mem_keys = TopLevelKeys(mem_json);
  EXPECT_FALSE(mem_keys.empty());
  EXPECT_EQ(mem_keys, TopLevelKeys(ooc_json));
  EXPECT_EQ(mem_keys, TopLevelKeys(hyb_json));
  std::set<std::string> key_set(mem_keys.begin(), mem_keys.end());
  EXPECT_TRUE(key_set.count("iterations"));
  EXPECT_TRUE(key_set.count("update_file_bytes"));
  EXPECT_TRUE(key_set.count("per_iteration"));

  // PublishTo mirrors the snapshot into the registry without throwing, and
  // republishing is idempotent for the monotonic counters.
  mem_stats.PublishTo("obs_test.run");
  mem_stats.PublishTo("obs_test.run");
  EXPECT_EQ(obs::MetricsRegistry::Global().counter("obs_test.run.edges_streamed").Value(),
            mem_stats.edges_streamed);
}

}  // namespace
}  // namespace xstream
