#include "perfbench/workloads.h"

#include <stdexcept>
#include <utility>

#include "src/workloads/compute.h"
#include "src/workloads/montecarlo.h"
#include "src/workloads/mutex_workload.h"
#include "src/workloads/query_server.h"

namespace perfbench {

using lottery::ComputeTask;
using lottery::Currency;
using lottery::CurrencyTable;
using lottery::FastRand;
using lottery::InteractiveTask;
using lottery::Kernel;
using lottery::LotteryScheduler;
using lottery::MonteCarloTask;
using lottery::MutexTask;
using lottery::QueryClient;
using lottery::QueryWorker;
using lottery::RunQueueBackend;
using lottery::SplitMix64;
using lottery::ThreadBody;
using lottery::Ticket;
namespace smp = lottery::smp;
namespace ts = lottery::ts;

namespace {

constexpr int kPopulationThreads = 100000;
constexpr int kSmpThreads = 4000;
constexpr int kTicketClasses = 8;

// A thread's ticket class and kind.
struct Slot {
  int cls = 0;
  bool interactive = false;
};

// Exactly n / kTicketClasses threads per class and, within each class, one
// interactive thread in every `interactive_every`, in a seeded random spawn
// order: the seed moves who lands where, never the mix itself.
std::vector<Slot> ShuffledSlots(int n, int interactive_every, FastRand& rng) {
  std::vector<Slot> slots;
  slots.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    slots.push_back(Slot{i % kTicketClasses,
                         (i / kTicketClasses) % interactive_every == 0});
  }
  for (size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.NextBelow(static_cast<uint32_t>(i + 1))]);
  }
  return slots;
}

}  // namespace

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "paper_mix") {
    c.backend = "list";
    c.cpus = 1;
    c.quantum = SimDuration::Millis(10);
    c.step = SimDuration::Seconds(1);
    c.warmup = SimDuration::Seconds(10);
    c.checkpoint = SimDuration::Seconds(10000);
    c.setup_reps = 101;
  } else if (name == "population") {
    c.backend = "tree";
    c.cpus = 1;
    c.quantum = SimDuration::Millis(1);
    c.step = SimDuration::Millis(100);
    c.warmup = SimDuration::Seconds(300);
    c.checkpoint = SimDuration::Seconds(700);
    c.setup_reps = 8;
  } else if (name == "smp_churn") {
    c.backend = "tree";
    c.cpus = 16;
    c.quantum = SimDuration::Millis(5);
    c.step = SimDuration::Millis(20);
    c.warmup = SimDuration::Seconds(300);
    c.checkpoint = SimDuration::Seconds(100);
    c.setup_reps = 31;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

World::World(const WorkloadConfig& config, uint32_t seed, SpanRecorder* spans)
    : spans_(spans) {
  SplitMix64 seeds(seed);
  const uint32_t sched_seed = seeds.NextFastRandSeed();
  FastRand inputs(seeds.NextFastRandSeed());

  Kernel::Options kopts;
  kopts.quantum = config.quantum;
  kopts.num_cpus = config.cpus;
  kopts.metrics = &registry_;
  if (config.cpus == 1) {
    LotteryScheduler::Options sopts;
    sopts.seed = sched_seed;
    sopts.backend = config.backend == "list" ? RunQueueBackend::kList
                                             : RunQueueBackend::kTree;
    sopts.metrics = &registry_;
    std::unique_ptr<LotteryScheduler> sched =
        spans != nullptr
            ? std::make_unique<Traced<LotteryScheduler>>(spans, sopts)
            : std::make_unique<LotteryScheduler>(sopts);
    lottery_ = sched.get();
    scheduler_ = std::move(sched);
  } else {
    smp::SmpScheduler::Options so;
    so.num_cpus = config.cpus;
    so.seed = sched_seed;
    so.cpu.backend = RunQueueBackend::kTree;
    so.balance_period = 4;  // bench_smp Part B
    so.metrics = &registry_;
    std::unique_ptr<smp::SmpScheduler> sched =
        spans != nullptr
            ? std::make_unique<Traced<smp::SmpScheduler>>(spans, so)
            : std::make_unique<smp::SmpScheduler>(so);
    smp_ = sched.get();
    scheduler_ = std::move(sched);
  }
  if (config.name == "paper_mix") {
    tracer_ = std::make_unique<lottery::Tracer>(SimDuration::Seconds(1));
  }
  kernel_ = std::make_unique<Kernel>(scheduler_.get(), kopts, tracer_.get());

  if (config.name == "paper_mix") {
    BuildPaperMix(seeds);
  } else if (config.name == "population") {
    BuildPopulation(inputs);
  } else {
    BuildSmpChurn(inputs);
  }
}

World::~World() = default;

ThreadId World::Spawn(const std::string& name, std::unique_ptr<ThreadBody> body,
                      Op kind) {
  if (spans_ != nullptr) {
    body = std::make_unique<TracedBody>(std::move(body), kind, spans_);
  }
  Span span(spans_, Op::kSpawn);
  const ThreadId tid = kernel_->Spawn(name, std::move(body));
  threads_.push_back(tid);
  return tid;
}

Ticket* World::Fund(ThreadId tid, Currency* denomination, int64_t amount) {
  Span span(spans_, Op::kFund);
  return lottery_->FundThread(tid, denomination, amount);
}

void World::BuildPaperMix(SplitMix64& seeds) {
  CurrencyTable& table = lottery_->table();
  Currency* base = table.base();

  // fig7: 8:3:1 clients on one port; the workers hold no tickets and run on
  // the clients' transferred funding. Costs are fig7's scaled by the 10x
  // shorter quantum.
  port_ = std::make_unique<lottery::RpcPort>(kernel_.get(), "db");
  QueryClient::Options copts;
  copts.query_cost = SimDuration::Millis(230);
  copts.prepare_cost = SimDuration::Millis(1);
  const int64_t client_funds[] = {800, 300, 100};
  for (int i = 0; i < 3; ++i) {
    const ThreadId tid =
        Spawn("client" + std::to_string(i),
              std::make_unique<QueryClient>(port_.get(), copts),
              Op::kBodyQueryClient);
    Fund(tid, base, client_funds[i]);
  }
  for (int i = 0; i < 3; ++i) {
    const ThreadId tid =
        Spawn("worker" + std::to_string(i),
              std::make_unique<QueryWorker>(port_.get()), Op::kBodyQueryWorker);
    Span span(spans_, Op::kFund);
    port_->RegisterServer(tid);
  }

  // fig11: two groups of four at 2:1 on one mutex, hold == compute, 10%
  // phase jitter (without it the phases align with the quantum and the lock
  // is never contended).
  mutex_ = std::make_unique<lottery::SimMutex>(kernel_.get(), "m");
  MutexTask::Options mopts;
  mopts.hold = SimDuration::Millis(5);
  mopts.compute = SimDuration::Millis(5);
  mopts.jitter = 0.1;
  for (int i = 0; i < 8; ++i) {
    mopts.jitter_seed = seeds.NextFastRandSeed();
    const bool group_a = i % 2 == 0;
    const ThreadId tid = Spawn(
        std::string(group_a ? "A" : "B") + std::to_string(i / 2),
        std::make_unique<MutexTask>(mutex_.get(), mopts), Op::kBodyMutexTask);
    Fund(tid, base, group_a ? 200 : 100);
  }

  // fig6: Monte-Carlo tasks that set their own ticket amount from their
  // error, inflating inside a user currency that insulates everyone else.
  Currency* mc = table.CreateCurrency("mc");
  table.Fund(mc, table.CreateTicket(base, 1000));
  for (int i = 0; i < 3; ++i) {
    MonteCarloTask::Options o;
    o.sampler_seed = seeds.NextFastRandSeed();
    auto body = std::make_unique<MonteCarloTask>(nullptr, nullptr, o);
    MonteCarloTask* task = body.get();
    const ThreadId tid =
        Spawn("mc" + std::to_string(i), std::move(body), Op::kBodyMonteCarlo);
    task->AttachFunding(&table, Fund(tid, mc, 1000));
  }

  // fig4/fig9: a 1:2 and a 1:2:3 compute ladder in two equally funded user
  // currencies. These threads are always runnable and never compensated, so
  // their shares follow their base values exactly up to binomial noise.
  ts::Sampler::Options topts;
  topts.metrics = &registry_;
  sampler_ = std::make_unique<ts::Sampler>(kernel_.get(), topts);
  sampler_->AttachScheduler(lottery_);
  const struct {
    const char* currency;
    std::vector<int64_t> amounts;
  } users[] = {{"A", {100, 200}}, {"B", {100, 200, 300}}};
  for (const auto& user : users) {
    Currency* cur = table.CreateCurrency(user.currency);
    table.Fund(cur, table.CreateTicket(base, 1000));
    int64_t issued = 0;
    for (const int64_t amount : user.amounts) {
      issued += amount;
    }
    for (size_t i = 0; i < user.amounts.size(); ++i) {
      const std::string name = user.currency + std::to_string(i + 1);
      const ThreadId tid =
          Spawn(name, std::make_unique<ComputeTask>(), Op::kBodyCompute);
      Fund(tid, cur, user.amounts[i]);
      sampler_->Track(tid, name);
      FundingClass cls;
      cls.funding = 1000.0 * static_cast<double>(user.amounts[i]) /
                    static_cast<double>(issued);
      cls.tids.push_back(tid);
      classes_.push_back(std::move(cls));
    }
  }

  // Interactive threads: short bursts under a quantum, then a sleep, so
  // each slice ends early and earns a compensation ticket. Fixed lengths, so
  // the dispatch mix does not depend on the seed.
  for (int i = 0; i < 4; ++i) {
    const ThreadId tid =
        Spawn("i" + std::to_string(i),
              std::make_unique<InteractiveTask>(SimDuration::Millis(1 + i),
                                                SimDuration::Millis(20 + 10 * i)),
              Op::kBodyInteractive);
    Fund(tid, base, 250);
  }

  if (spans_ != nullptr) {
    sample_hook_ = std::make_unique<TracedSampleHook>(sampler_.get(), spans_);
    kernel_->SetSampler(sample_hook_.get());
  } else {
    kernel_->SetSampler(sampler_.get());
  }
  liveness_ = {"lottery.transfers", "mutex.acquisitions",
               "lottery.compensation_grants", "rpc.calls"};
}

void World::BuildPopulation(FastRand& inputs) {
  Currency* base = lottery_->table().base();
  classes_.resize(kTicketClasses);
  for (const Slot slot : ShuffledSlots(kPopulationThreads, 4, inputs)) {
    const int64_t amount = 1 + slot.cls;
    std::unique_ptr<ThreadBody> body;
    if (slot.interactive) {
      body = std::make_unique<InteractiveTask>(
          SimDuration::Millis(5),
          SimDuration::Millis(20 + 5 * static_cast<int64_t>(inputs.NextBelow(7))));
    } else {
      body = std::make_unique<ComputeTask>();
    }
    const ThreadId tid =
        Spawn("t" + std::to_string(threads_.size()), std::move(body),
              slot.interactive ? Op::kBodyInteractive : Op::kBodyCompute);
    Fund(tid, base, amount);
    if (!slot.interactive) {
      FundingClass& c = classes_[static_cast<size_t>(slot.cls)];
      c.funding += static_cast<double>(amount);
      c.tids.push_back(tid);
    }
  }
  liveness_ = {"lottery.batch_draws", "kernel.sleeps", "kernel.wakes"};
}

void World::BuildSmpChurn(FastRand& inputs) {
  classes_.resize(kTicketClasses);
  for (const Slot slot : ShuffledSlots(kSmpThreads, 2, inputs)) {
    const int64_t amount = 50 + 30 * slot.cls;
    std::unique_ptr<ThreadBody> body;
    if (slot.interactive) {
      body = std::make_unique<InteractiveTask>(
          SimDuration::Micros(1000 + static_cast<int64_t>(inputs.NextBelow(2001))),
          SimDuration::Micros(5000 +
                              static_cast<int64_t>(inputs.NextBelow(12001))));
    } else {
      body = std::make_unique<ComputeTask>();
    }
    const ThreadId tid =
        Spawn("p" + std::to_string(threads_.size()), std::move(body),
              slot.interactive ? Op::kBodyInteractive : Op::kBodyCompute);
    {
      Span span(spans_, Op::kFund);
      smp_->FundThread(tid, amount);
    }
    if (!slot.interactive) {
      FundingClass& c = classes_[static_cast<size_t>(slot.cls)];
      c.funding += static_cast<double>(amount);
      c.tids.push_back(tid);
    }
  }
  liveness_ = {"smp.balance_checks", "kernel.sleeps", "kernel.wakes"};
}

}  // namespace perfbench
