// Fig 23: disk bandwidth over time — X-Stream vs the GraphChi-like PSW
// engine running Pagerank on Twitter*. The paper's iostat trace shows
// X-Stream alternating dense bursts of reads (edges) and writes (updates)
// at high aggregate bandwidth, while GraphChi's accesses are fragmented and
// bursty with far lower aggregate bandwidth. Reproduced from the SimDevice
// request timeline, binned on the device's virtual clock.
#include "algorithms/pagerank.h"
#include "baselines/graphchi_like.h"
#include "baselines/psw_programs.h"
#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "graph/datasets.h"

namespace xstream {
namespace {

struct TraceSummary {
  double read_mbps = 0.0;    // aggregate
  double write_mbps = 0.0;
  std::vector<double> read_series;   // MB/s per bin
  std::vector<double> write_series;
};

TraceSummary Summarize(std::vector<IoEvent> a, std::vector<IoEvent> b, double bin_seconds) {
  a.insert(a.end(), b.begin(), b.end());
  TraceSummary summary;
  double horizon = 0.0;
  for (const IoEvent& e : a) {
    horizon = std::max(horizon, e.time);
  }
  if (horizon <= 0) {
    return summary;
  }
  size_t bins = static_cast<size_t>(horizon / bin_seconds) + 1;
  summary.read_series.assign(bins, 0.0);
  summary.write_series.assign(bins, 0.0);
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  for (const IoEvent& e : a) {
    size_t bin = static_cast<size_t>(e.time / bin_seconds);
    if (e.write) {
      summary.write_series[bin] += e.bytes;
      write_bytes += e.bytes;
    } else {
      summary.read_series[bin] += e.bytes;
      read_bytes += e.bytes;
    }
  }
  for (size_t i = 0; i < bins; ++i) {
    summary.read_series[i] /= bin_seconds * 1e6;
    summary.write_series[i] /= bin_seconds * 1e6;
  }
  summary.read_mbps = static_cast<double>(read_bytes) / horizon / 1e6;
  summary.write_mbps = static_cast<double>(write_bytes) / horizon / 1e6;
  return summary;
}

void PrintSeries(const char* label, const std::vector<double>& series, double peak) {
  std::printf("%s ", label);
  for (double v : series) {
    int level = peak > 0 ? static_cast<int>(8.9 * v / peak) : 0;
    static const char* kBlocks[] = {" ", ".", ":", "-", "=", "+", "*", "#", "%", "@"};
    std::printf("%s", kBlocks[std::clamp(level, 0, 9)]);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 23", "Disk bandwidth trace: X-Stream vs GraphChi-like (Pagerank)",
              "X-Stream sustains much higher aggregate bandwidth with regular "
              "read/write bursts; PSW I/O is fragmented and bursty");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  int shift = static_cast<int>(opts.GetInt("scale-shift", 0));
  uint64_t budget = opts.GetUint("budget-mb", 2) << 20;
  EdgeList edges = GenerateDataset(*FindDataset("Twitter*"), shift);
  GraphInfo info = ScanEdges(edges);

  TraceSummary xs;
  {
    SimRaidPair pair = SimRaidPair::Make("xs", DeviceProfile::Ssd());
    WriteEdgeFile(*pair.raid, "input", edges);
    pair.a->TakeTimeline();
    pair.b->TakeTimeline();
    HybridConfig config;
    config.allow_vertex_memory_opt = true;
    config.threads = threads;
    config.streaming_budget_bytes = budget;
    config.io_unit_bytes = 256 << 10;
    // Disable the in-memory shortcut so update traffic reaches the device,
    // as it would at paper scale.
    config.allow_update_memory_opt = false;
    HybridEngine<PageRankAlgorithm> engine(config, *pair.raid, *pair.raid, *pair.raid,
                                           "input", info);
    RunPageRank(engine, 5);
    xs = Summarize(pair.a->TakeTimeline(), pair.b->TakeTimeline(), 0.01);
  }

  TraceSummary psw;
  {
    SimRaidPair pair = SimRaidPair::Make("psw", DeviceProfile::Ssd());
    PswConfig config;
    config.threads = threads;
    config.memory_budget_bytes = budget;
    PswPageRank program(info.num_vertices);
    PswEngine<PswPageRank> engine(config, *pair.raid, edges, info.num_vertices, program);
    pair.a->TakeTimeline();  // drop the shard-construction trace
    pair.b->TakeTimeline();
    engine.RunIterations(program, 5);
    psw = Summarize(pair.a->TakeTimeline(), pair.b->TakeTimeline(), 0.01);
  }

  Table table({"System", "Aggregate reads (MB/s)", "Aggregate writes (MB/s)"});
  table.AddRow({"X-Stream", FormatDouble(xs.read_mbps, 2), FormatDouble(xs.write_mbps, 2)});
  table.AddRow({"Graphchi-like", FormatDouble(psw.read_mbps, 2),
                FormatDouble(psw.write_mbps, 2)});
  table.Print();

  double peak = 0.0;
  for (double v : xs.read_series) peak = std::max(peak, v);
  for (double v : xs.write_series) peak = std::max(peak, v);
  for (double v : psw.read_series) peak = std::max(peak, v);
  for (double v : psw.write_series) peak = std::max(peak, v);
  std::printf("\nbandwidth over (virtual device) time, 10ms bins, darker = higher:\n");
  PrintSeries("X-Stream  R", xs.read_series, peak);
  PrintSeries("X-Stream  W", xs.write_series, peak);
  PrintSeries("Graphchi  R", psw.read_series, peak);
  PrintSeries("Graphchi  W", psw.write_series, peak);
  std::printf("(paper aggregates: X-Stream 416 MB/s reads / 177 MB/s writes vs Graphchi 141 "
              "/ 48)\n\n");
  return 0;
}
