// Fig 26: big-O bounds in the Aggarwal-Vitter I/O model for label
// propagation: X-Stream vs Graphchi vs sort-plus-random-access. The bench
// evaluates the closed forms for paper-scale configurations and validates
// the X-Stream bound against bytes actually moved by the out-of-core engine
// on a small run.
#include <cmath>

#include "algorithms/wcc.h"
#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "iomodel/io_model.h"

namespace xstream {
namespace {

void PrintModelTable(const IoModelParams& p, const char* label) {
  std::printf("%s (V=%.3g, E=%.3g, M=%.3g, B=%.3g words, D=%.0f)\n", label, p.v, p.e, p.m,
              p.b, p.d);
  Table table({"Approach", "Partitions", "Pre-processing", "One iteration", "All iterations"});
  IoModelCosts xs = XStreamIoModel(p);
  IoModelCosts gc = GraphchiIoModel(p);
  IoModelCosts sr = SortRandomIoModel(p);
  auto row = [](const char* name, const IoModelCosts& c) {
    return std::vector<std::string>{name, FormatDouble(c.partitions, 0),
                                    FormatDouble(c.preprocessing, 0),
                                    c.one_iteration > 0 ? FormatDouble(c.one_iteration, 0) : "-",
                                    FormatDouble(c.all_iterations, 0)};
  };
  table.AddRow(row("X-Stream", xs));
  table.AddRow(row("Graphchi", gc));
  table.AddRow(row("Sort + random access", sr));
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 26", "I/O model bounds",
              "X-Stream: no pre-processing, fewer partitions than Graphchi "
              "shards, better I/O scaling on low-diameter graphs");

  // A Twitter-like configuration (1.4B edges, 42M vertices, 8GB memory,
  // 16MB transfer unit; words = 4 bytes).
  IoModelParams twitter;
  twitter.v = 41.7e6;
  twitter.e = 1.4e9 * 3;  // 12-byte edges in words
  twitter.m = 8e9 / 4;
  twitter.b = 16e6 / 4;
  twitter.d = 16;
  PrintModelTable(twitter, "Twitter-like");

  // A yahoo-web-like configuration (6.6B edges, 1.4B vertices).
  IoModelParams yahoo;
  yahoo.v = 1.4e9;
  yahoo.e = 6.6e9 * 3;
  yahoo.m = 8e9 / 4;
  yahoo.b = 16e6 / 4;
  yahoo.d = 155;
  PrintModelTable(yahoo, "yahoo-web-like");

  // Validation: measured bytes moved by the out-of-core engine vs the bound.
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", 13));
  EdgeList edges = MakeRmat(scale, 16, true, 10);
  GraphInfo info = ScanEdges(edges);
  SimRaidPair pair = SimRaidPair::Make("v", DeviceProfile::Ssd());
  WriteEdgeFile(*pair.raid, "input", edges);
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  config.streaming_budget_bytes = 2 << 20;
  config.io_unit_bytes = 64 << 10;
  config.allow_update_memory_opt = false;  // force real update traffic
  HybridEngine<WccAlgorithm> engine(config, *pair.raid, *pair.raid, *pair.raid, "input",
                                    info);
  WccResult r = RunWcc(engine);

  // Bound in bytes: D*(V+E) + (E+U)*log_{M/B}(K) per the X-Stream row, with
  // record sizes substituted and U = the run's actual update volume (the
  // paper's closed form approximates total updates by |E|; the measured
  // count keeps the check exact).
  double d = static_cast<double>(r.stats.iterations);
  double v_bytes = static_cast<double>(info.num_vertices) * sizeof(WccAlgorithm::VertexState);
  double e_bytes =
      static_cast<double>(info.num_edges) * static_cast<double>(engine.store().edge_record_bytes());
  double u_bytes =
      static_cast<double>(r.stats.updates_generated) * sizeof(WccAlgorithm::Update);
  double log_term =
      std::max(1.0, std::log2(std::max<double>(2, engine.num_partitions())) /
                        std::log2(static_cast<double>(config.streaming_budget_bytes) /
                                  config.io_unit_bytes));
  double bound = d * (v_bytes + e_bytes) + (u_bytes + e_bytes) * (1.0 + log_term);
  double measured = static_cast<double>(r.stats.bytes_read + r.stats.bytes_written);
  std::printf("validation on RMAT scale %u WCC: measured I/O %s, X-Stream bound %s "
              "(measured/bound = %.2f; <= 1 expected)\n\n",
              scale, HumanBytes(static_cast<uint64_t>(measured)).c_str(),
              HumanBytes(static_cast<uint64_t>(bound)).c_str(), measured / bound);
  return 0;
}
