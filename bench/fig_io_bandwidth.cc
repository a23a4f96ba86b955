// Section 6 generalizations: lottery-scheduled disk and link bandwidth.
//
// The paper sketches using lotteries wherever queueing mediates resource
// access: disk bandwidth (footnote 7) and congested virtual circuits
// (Sections 6.3/7, citing the AN2 switch). This harness reports bandwidth
// shares and queueing delays for saturated clients/circuits at several
// ticket ratios.

#include "bench/bench_util.h"
#include "src/sim/crossbar.h"
#include "src/sim/disk.h"

namespace lottery {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  BenchReport report(flags, "fig_io_bandwidth");

  PrintHeader("Section 6 (I/O)", "Lottery-scheduled disk and link bandwidth",
              "saturated bandwidth splits by tickets; queueing delay falls "
              "with funding; idle capacity is never reserved");

  // --- Disk -----------------------------------------------------------------
  std::cout << "Disk (10 MB/s, 5 ms seek, both clients saturated, 60 s):\n";
  TextTable disk_table({"ticket ratio", "MB served rich", "MB served poor",
                        "observed ratio", "mean delay rich (s)",
                        "mean delay poor (s)"});
  for (const int64_t ratio : {1, 2, 4, 8}) {
    FastRand rng(seed + static_cast<uint32_t>(ratio));
    DiskScheduler::Options dopts;
    dopts.bytes_per_second = 10 * 1000 * 1000;
    dopts.seek_overhead = SimDuration::Millis(5);
    DiskScheduler disk(dopts, &rng);
    disk.RegisterClient(1, static_cast<uint64_t>(100 * ratio));
    disk.RegisterClient(2, 100);
    for (int i = 0; i < 20000; ++i) {
      disk.Submit(1, 64 * 1024, SimTime::Zero());
      disk.Submit(2, 64 * 1024, SimTime::Zero());
    }
    disk.AdvanceTo(SimTime::Zero() + SimDuration::Seconds(60));
    disk_table.AddRow(
        {std::to_string(ratio) + " : 1",
         FormatDouble(static_cast<double>(disk.BytesServed(1)) / 1e6, 1),
         FormatDouble(static_cast<double>(disk.BytesServed(2)) / 1e6, 1),
         FormatDouble(static_cast<double>(disk.BytesServed(1)) /
                          static_cast<double>(disk.BytesServed(2)),
                      2),
         FormatDouble(disk.QueueDelay(1).mean(), 2),
         FormatDouble(disk.QueueDelay(2).mean(), 2)});
    report.Metric("disk_observed_ratio_" + std::to_string(ratio) + "to1",
                  static_cast<double>(disk.BytesServed(1)) /
                      static_cast<double>(disk.BytesServed(2)));
  }
  disk_table.Print(std::cout);

  // --- Link -------------------------------------------------------------------
  std::cout << "\nATM-style link (3 us cells, three saturated circuits, "
               "10 s):\n";
  TextTable link_table({"allocation", "cells c1", "cells c2", "cells c3",
                        "shares"});
  const int64_t allocations[][3] = {{1, 1, 1}, {3, 2, 1}, {6, 3, 1}};
  for (const auto& alloc : allocations) {
    FastRand rng(seed + static_cast<uint32_t>(alloc[0]));
    // The link is a one-port switch: each slot, one lottery over the
    // circuits with a cell buffered.
    CrossbarSwitch::Options lopts;
    lopts.num_ports = 1;
    lopts.cell_time = SimDuration::Micros(3);
    lopts.buffer_cells = 4096;
    CrossbarSwitch link(lopts, &rng);
    std::vector<CrossbarSwitch::CircuitId> circuits;
    for (const int64_t tickets : alloc) {
      circuits.push_back(link.AddCircuit(0, 0, static_cast<uint64_t>(tickets)));
    }
    SimTime now = SimTime::Zero();
    for (int step = 0; step < 1000; ++step) {
      for (const auto c : circuits) {
        while (link.Backlog(c) < 4096) {
          link.Enqueue(c, now);
        }
      }
      now = now + SimDuration::Millis(10);
      link.AdvanceTo(now);
    }
    const double total = static_cast<double>(link.total_cells_sent());
    std::vector<std::string> row = {std::to_string(alloc[0]) + ":" +
                                    std::to_string(alloc[1]) + ":" +
                                    std::to_string(alloc[2])};
    std::vector<double> shares;
    for (size_t i = 0; i < circuits.size(); ++i) {
      const uint64_t sent = link.CellsSent(circuits[i]);
      shares.push_back(static_cast<double>(sent) / total);
      row.push_back(std::to_string(sent));
      report.Metric("link_" + std::to_string(alloc[0]) + "_" +
                        std::to_string(alloc[1]) + "_" +
                        std::to_string(alloc[2]) + "_share_c" +
                        std::to_string(i + 1),
                    shares.back());
    }
    row.push_back(FormatRatio(shares, 2));
    link_table.AddRow(row);
  }
  link_table.Print(std::cout);

  // --- Crossbar (statistical matching, the [And93] AN2 context) -------------
  std::cout << "\n8x8 crossbar, uniform saturated traffic: matching quality "
               "vs proposal rounds:\n";
  TextTable xb_table({"matching rounds", "throughput per port",
                      "note"});
  for (const int rounds : {1, 2, 4}) {
    FastRand rng(seed + static_cast<uint32_t>(rounds));
    CrossbarSwitch::Options xopts;
    xopts.num_ports = 8;
    xopts.cell_time = SimDuration::Micros(1);
    xopts.buffer_cells = 256;
    xopts.matching_rounds = rounds;
    CrossbarSwitch sw(xopts, &rng);
    std::vector<CrossbarSwitch::CircuitId> vcs;
    for (int in = 0; in < 8; ++in) {
      for (int out = 0; out < 8; ++out) {
        vcs.push_back(sw.AddCircuit(in, out, 10));
      }
    }
    SimTime now = SimTime::Zero();
    for (int step = 0; step < 100; ++step) {
      for (const auto vc : vcs) {
        while (sw.Backlog(vc) < 64) {
          sw.Enqueue(vc, now);
        }
      }
      now = now + SimDuration::Micros(100);
      sw.AdvanceTo(now);
    }
    const double throughput =
        static_cast<double>(sw.total_cells_sent()) /
        (static_cast<double>(sw.slots_elapsed()) * 8.0);
    xb_table.AddRow({std::to_string(rounds), FormatDouble(throughput, 3),
                     rounds == 1 ? "~1 - 1/e, single-round statistical match"
                                 : "approaches a maximal matching"});
    report.Metric("crossbar_throughput_r" + std::to_string(rounds),
                  throughput);
  }
  xb_table.Print(std::cout);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
