#include "src/sim/chaos.h"

#include <bit>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/lottery_scheduler.h"
#include "src/obs/registry.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sched/stride.h"
#include "src/sim/disk.h"
#include "src/sim/rpc.h"
#include "src/sim/sync.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/sim/trace.h"

namespace lottery {
namespace chaos {

// ---------------------------------------------------------------------------
// ChaosController

ChaosController::ChaosController(Kernel* kernel, FaultInjector* faults,
                                 Options options)
    : kernel_(kernel), faults_(faults), options_(options) {}

void ChaosController::Start() {
  if (!faults_->active(FaultClass::kSpuriousWakeup) &&
      !faults_->active(FaultClass::kCurrencyRevoke)) {
    return;
  }
  const SimTime first = kernel_->now() + options_.period;
  if (first > options_.stop_after) {
    return;
  }
  kernel_->events().Schedule(first, [this](SimTime at) { Tick(at); });
}

void ChaosController::Tick(SimTime now) {
  TrySpuriousWake(now);
  TryRevoke(now);
  const SimTime next = now + options_.period;
  if (next <= options_.stop_after) {
    kernel_->events().Schedule(next, [this](SimTime at) { Tick(at); });
  }
}

void ChaosController::TrySpuriousWake(SimTime now) {
  if (!faults_->active(FaultClass::kSpuriousWakeup)) {
    return;
  }
  std::vector<ThreadId> eligible;
  for (const ThreadId tid : kernel_->SleepingThreads()) {
    if (!faults_->IsProtected(tid)) {
      eligible.push_back(tid);
    }
  }
  // No sleeper, no opportunity: the injector's counters and stream only
  // advance when the fault could actually manifest.
  if (eligible.empty()) {
    return;
  }
  if (!faults_->Fire(FaultClass::kSpuriousWakeup, now)) {
    return;
  }
  const size_t index =
      faults_->rng().NextBelow(static_cast<uint32_t>(eligible.size()));
  ++spurious_wakes_;
  kernel_->Wake(eligible[index], now);
}

void ChaosController::TryRevoke(SimTime now) {
  if (!faults_->active(FaultClass::kCurrencyRevoke)) {
    return;
  }
  LotteryScheduler* ls = kernel_->lottery();
  if (ls == nullptr) {
    return;  // nothing to revoke under a ticketless baseline
  }
  CurrencyTable& table = ls->table();
  // Eligible: base-denominated tickets funding a live, unprotected thread's
  // currency — the experiment-level funding FundThread creates. Service
  // tickets (mutex inheritance, RPC transfers and server shares) are
  // denominated in service currencies and stay out of reach: revoking those
  // would corrupt the services' own bookkeeping rather than model an
  // administrative funding change.
  std::vector<Ticket*> eligible;
  for (Ticket* ticket : table.Tickets()) {
    Currency* funded = ticket->funds();
    if (funded == nullptr || funded->retired() ||
        !ticket->denomination()->is_base()) {
      continue;
    }
    const std::string& name = funded->name();
    if (name.rfind("thread:", 0) != 0) {
      continue;
    }
    const ThreadId tid =
        static_cast<ThreadId>(std::stoul(name.substr(7)));
    if (!kernel_->Alive(tid) || faults_->IsProtected(tid)) {
      continue;
    }
    eligible.push_back(ticket);
  }
  if (eligible.empty()) {
    return;
  }
  if (!faults_->Fire(FaultClass::kCurrencyRevoke, now)) {
    return;
  }
  Ticket* ticket =
      eligible[faults_->rng().NextBelow(static_cast<uint32_t>(eligible.size()))];
  const uint64_t ticket_id = ticket->id();
  // Not const: a const capture would make the closure copy-only, and event
  // handlers must be nothrow-movable to live inline in the queue's arena.
  std::string currency_name = ticket->funds()->name();
  table.Unfund(ticket);
  ++revocations_;
  // Restore the funding later. By then the thread may have crashed (its
  // currency retired or already reclaimed) or the run may be over, so the
  // re-fund revalidates everything by id/name before touching the table.
  kernel_->events().Schedule(
      now + options_.revoke_duration,
      [this, ticket_id, currency_name](SimTime) {
        LotteryScheduler* lottery = kernel_->lottery();
        if (lottery == nullptr) {
          return;
        }
        CurrencyTable& t = lottery->table();
        Ticket* revoked = t.FindTicket(ticket_id);
        Currency* target = t.FindCurrency(currency_name);
        if (revoked == nullptr || target == nullptr || target->retired() ||
            revoked->funds() != nullptr || revoked->holder() != nullptr) {
          return;
        }
        t.Fund(target, revoked);
      });
}

// ---------------------------------------------------------------------------
// Workload bodies

namespace {

// Consumes up to `want`, truncated at the end of the slice.
SimDuration ConsumeUpTo(RunContext& ctx, SimDuration want) {
  const SimDuration granted = want < ctx.remaining() ? want : ctx.remaining();
  return ctx.Consume(granted);
}

// Pure CPU. `total_work` zero means run forever; otherwise the thread exits
// voluntarily once the work is done, exercising the currency-teardown path
// even in fault-free runs.
class BurnBody : public ThreadBody {
 public:
  explicit BurnBody(SimDuration total_work) : left_(total_work) {}

  void Run(RunContext& ctx) override {
    ctx.AddProgress(1);
    if (left_.nanos() == 0) {
      ctx.Consume(ctx.remaining());
      return;
    }
    left_ -= ConsumeUpTo(ctx, left_);
    if (left_.nanos() <= 0) {
      ctx.ExitThread();
    }
  }

 private:
  SimDuration left_;
};

// Burns a little, then sleeps. Tolerates early (spurious or racing-timer)
// wakeups by construction: every dispatch just restarts the cycle.
class SleeperBody : public ThreadBody {
 public:
  SleeperBody(SimDuration burn, SimDuration sleep)
      : burn_(burn), sleep_(sleep) {}

  void Run(RunContext& ctx) override {
    ConsumeUpTo(ctx, burn_);
    ctx.AddProgress(1);
    ctx.SleepFor(sleep_);
  }

 private:
  SimDuration burn_;
  SimDuration sleep_;
};

// Think, acquire the shared mutex (blocking when contended), hold it for a
// critical section possibly spanning several quanta, release.
class MutexUserBody : public ThreadBody {
 public:
  MutexUserBody(SimMutex* mutex, SimDuration think, SimDuration hold)
      : mutex_(mutex), think_(think), hold_(hold) {}

  // Cross-slice state machine (ownership spans Run calls); checked at
  // runtime via AssertHeld/NoteHeldAcrossSlice instead of statically.
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (waiting_) {
      // Woken from Acquire's block: the release lottery made us owner.
      mutex_->AssertHeld(ctx.self());
      waiting_ = false;
      holding_ = true;
      hold_left_ = hold_;
    }
    if (holding_) {
      mutex_->AssertHeld(ctx.self());
      hold_left_ -= ConsumeUpTo(ctx, hold_left_);
      if (hold_left_.nanos() > 0) {
        // Preempted mid-critical-section, still owner.
        mutex_->NoteHeldAcrossSlice(ctx.self());
        return;
      }
      mutex_->Release(ctx);
      holding_ = false;
      ctx.AddProgress(1);
      return;
    }
    ConsumeUpTo(ctx, think_);
    if (mutex_->Acquire(ctx)) {
      holding_ = true;
      hold_left_ = hold_;
      mutex_->NoteHeldAcrossSlice(ctx.self());
      return;
    }
    waiting_ = true;
    ctx.Block();
  }

 private:
  SimMutex* mutex_;
  SimDuration think_;
  SimDuration hold_;
  SimDuration hold_left_{};
  bool holding_ = false;
  bool waiting_ = false;
};

// RPC server loop: receive, work, reply. Ghost (duplicated) messages are
// served like any other; Reply discards their wake.
class RpcServerBody : public ThreadBody {
 public:
  RpcServerBody(RpcPort* port, SimDuration service)
      : port_(port), service_(service) {}

  void Run(RunContext& ctx) override {
    if (busy_) {
      work_left_ -= ConsumeUpTo(ctx, work_left_);
      if (work_left_.nanos() > 0) {
        return;
      }
      port_->Reply(ctx, std::move(message_));
      busy_ = false;
      ctx.AddProgress(1);
    }
    ConsumeUpTo(ctx, SimDuration::Micros(10));  // dequeue cost
    if (port_->TryReceive(ctx, &message_)) {
      busy_ = true;
      work_left_ = service_;
      return;
    }
    ctx.Block();
  }

  // Called by the harness's exit observer when this server's thread dies
  // mid-service (injected crash): destroys the in-flight message's transfer
  // while the dying thread's currency — which the transfer was retargeted
  // to — still exists. The request dies with its server; the client's
  // funding rolls back via the transfer's RAII destruction.
  void AbandonOnCrash() {
    if (busy_) {
      message_.transfer.reset();
      busy_ = false;
    }
  }

 private:
  RpcPort* port_;
  SimDuration service_;
  SimDuration work_left_{};
  RpcMessage message_;
  bool busy_ = false;
};

// RPC client loop: think, call, block until the reply (or the drop-notice
// wake after an injected message loss) and repeat.
class RpcClientBody : public ThreadBody {
 public:
  RpcClientBody(RpcPort* port, SimDuration think)
      : port_(port), think_(think), think_left_(think) {}

  void Run(RunContext& ctx) override {
    if (awaiting_) {
      awaiting_ = false;
      think_left_ = think_;
      ctx.AddProgress(1);
    }
    if (think_left_.nanos() > 0) {
      think_left_ -= ConsumeUpTo(ctx, think_left_);
      if (think_left_.nanos() > 0) {
        return;
      }
    }
    port_->Call(ctx, static_cast<int64_t>(ctx.self()));
    awaiting_ = true;
    ctx.Block();
  }

 private:
  RpcPort* port_;
  SimDuration think_;
  SimDuration think_left_;
  bool awaiting_ = false;
};

// Think, submit a disk read, block until the completion wakes us.
class DiskUserBody : public ThreadBody {
 public:
  DiskUserBody(DiskScheduler* disk, SimDuration think, int64_t bytes)
      : disk_(disk), think_(think), bytes_(bytes) {}

  void Run(RunContext& ctx) override {
    ConsumeUpTo(ctx, think_);
    ctx.AddProgress(1);
    Kernel* kernel = &ctx.kernel();
    const ThreadId self = ctx.self();
    disk_->Submit(static_cast<DiskScheduler::ClientId>(self), bytes_,
                  ctx.now(), [kernel, self](SimTime when) {
                    if (kernel->Alive(self)) {
                      kernel->Wake(self, when);
                    }
                  });
    ctx.Block();
  }

 private:
  DiskScheduler* disk_;
  SimDuration think_;
  int64_t bytes_;
};

// Routes server-thread deaths to their bodies so in-service transfers are
// rolled back before RetireCurrency destroys the tickets underneath them.
class ServerCrashJanitor : public ThreadExitObserver {
 public:
  explicit ServerCrashJanitor(Kernel* kernel) : kernel_(kernel) {
    kernel_->AddExitObserver(this);
  }
  ~ServerCrashJanitor() override { kernel_->RemoveExitObserver(this); }

  void Track(ThreadId tid, RpcServerBody* body) { servers_[tid] = body; }

  void OnThreadExit(ThreadId tid, SimTime /*when*/) override {
    const auto it = servers_.find(tid);
    if (it != servers_.end()) {
      it->second->AbandonOnCrash();
      servers_.erase(it);
    }
  }

 private:
  Kernel* kernel_;
  std::map<ThreadId, RpcServerBody*> servers_;
};

// ---------------------------------------------------------------------------
// Oracles

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ull;
  }
  return hash;
}

void CheckWorkConservation(const Kernel& kernel, const Scenario& scenario,
                           std::vector<std::string>* violations) {
  int64_t busy_plus_idle = kernel.idle_time().nanos();
  for (int cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    busy_plus_idle += kernel.CpuBusy(cpu).nanos();
  }
  const int64_t elapsed_capacity =
      (kernel.now() - SimTime::Zero()).nanos() * kernel.num_cpus();
  // Single CPU: busy + idle must equal elapsed capacity exactly. SMP: each
  // CPU's charged frontier may run up to one quantum past now() (a slice
  // that crossed the horizon), so the balance is bounded, not exact.
  const int64_t slack =
      kernel.num_cpus() == 1
          ? 0
          : scenario.quantum.nanos() * kernel.num_cpus();
  if (busy_plus_idle < elapsed_capacity ||
      busy_plus_idle > elapsed_capacity + slack) {
    std::ostringstream out;
    out << "work conservation: busy+idle=" << busy_plus_idle
        << "ns vs elapsed capacity=" << elapsed_capacity << "ns (slack "
        << slack << "ns)";
    violations->push_back(out.str());
  }
}

void CheckTicketConservation(CurrencyTable& table,
                             std::vector<std::string>* violations) {
  for (Currency* currency : table.Currencies()) {
    int64_t issued_sum = 0;
    int64_t active_sum = 0;
    for (const Ticket* ticket : currency->issued()) {
      if (ticket->denomination() != currency) {
        violations->push_back("ticket conservation: issued ticket #" +
                              std::to_string(ticket->id()) +
                              " denomination mismatch in " + currency->name());
      }
      issued_sum += ticket->amount();
      if (ticket->active()) {
        active_sum += ticket->amount();
      }
    }
    if (issued_sum != currency->issued_amount()) {
      violations->push_back(
          "ticket conservation: " + currency->name() + " issued sum " +
          std::to_string(issued_sum) + " != recorded " +
          std::to_string(currency->issued_amount()));
    }
    if (active_sum != currency->active_amount()) {
      violations->push_back(
          "ticket conservation: " + currency->name() + " active sum " +
          std::to_string(active_sum) + " != recorded " +
          std::to_string(currency->active_amount()));
    }
    for (const Ticket* ticket : currency->backing()) {
      if (ticket->funds() != currency) {
        violations->push_back("ticket conservation: backing ticket #" +
                              std::to_string(ticket->id()) +
                              " does not fund " + currency->name());
      }
    }
    if (currency->retired() && !currency->backing().empty()) {
      violations->push_back("ticket conservation: retired currency " +
                            currency->name() + " still has backing");
    }
  }
  for (const Ticket* ticket : table.Tickets()) {
    if (ticket->funds() != nullptr && ticket->holder() != nullptr) {
      violations->push_back("ticket conservation: ticket #" +
                            std::to_string(ticket->id()) +
                            " both backs a currency and is held");
    }
    if (ticket->active() && ticket->funds() == nullptr &&
        ticket->holder() == nullptr) {
      violations->push_back("ticket conservation: unattached ticket #" +
                            std::to_string(ticket->id()) + " is active");
    }
  }
}

void CheckAcyclicity(CurrencyTable& table,
                     std::vector<std::string>* violations) {
  // DFS along backing edges (currency -> its backing tickets'
  // denominations). Grey hit = cycle.
  enum class Color { kWhite, kGrey, kBlack };
  std::map<const Currency*, Color> color;
  const std::vector<Currency*> all = table.Currencies();
  for (const Currency* currency : all) {
    color[currency] = Color::kWhite;
  }
  struct Frame {
    const Currency* currency;
    size_t next_edge;
  };
  for (const Currency* root : all) {
    if (color[root] != Color::kWhite) {
      continue;
    }
    std::vector<Frame> stack{{root, 0}};
    color[root] = Color::kGrey;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_edge >= frame.currency->backing().size()) {
        color[frame.currency] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const Currency* next =
          frame.currency->backing()[frame.next_edge++]->denomination();
      if (color[next] == Color::kGrey) {
        violations->push_back("acyclicity: funding cycle through " +
                              next->name());
        return;
      }
      if (color[next] == Color::kWhite) {
        color[next] = Color::kGrey;
        stack.push_back({next, 0});
      }
    }
  }
}

void CheckCompensationBounds(Kernel& kernel, LotteryScheduler* ls,
                             const std::vector<ThreadId>& tids,
                             std::vector<std::string>* violations) {
  if (ls == nullptr) {
    return;
  }
  const int64_t max_factor = ls->compensation().options().max_factor;
  for (const ThreadId tid : tids) {
    if (!kernel.Alive(tid)) {
      continue;
    }
    const Client* client = ls->client(tid);
    const int64_t num = client->compensation_num();
    const int64_t den = client->compensation_den();
    if (den <= 0 || num < den || num > den * max_factor) {
      std::ostringstream out;
      out << "compensation bound: thread " << tid << " factor " << num << "/"
          << den << " outside [1, " << max_factor << "]";
      violations->push_back(out.str());
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario harness

std::string Scenario::ReproCommand() const {
  std::ostringstream out;
  out << "faultctl --seed=" << seed << " --backend=" << backend
      << " --cpus=" << num_cpus << " --threads=" << num_threads
      << " --horizon-us=" << horizon.nanos() / 1000
      << " --quantum-us=" << quantum.nanos() / 1000;
  if (measured_a > 0 && measured_b > 0) {
    out << " --measured=" << measured_a << "," << measured_b;
  }
  out << " --plan='" << plan << "'";
  return out.str();
}

ScenarioResult RunScenario(const Scenario& scenario,
                           etrace::TraceBuffer* trace) {
  if (scenario.backend != "list" && scenario.backend != "tree" &&
      scenario.backend != "stride" && scenario.backend != "smp") {
    throw std::invalid_argument("RunScenario: unknown backend '" +
                                scenario.backend + "'");
  }
  if (scenario.num_threads < 1 || scenario.num_cpus < 1) {
    throw std::invalid_argument("RunScenario: need >= 1 thread and CPU");
  }

  // Everything derives from the one seed: scheduler draws, workload shape,
  // disk lottery, and (inside the injector) fault decisions — on streams
  // decorrelated through SplitMix64.
  SplitMix64 mix(scenario.seed);
  const uint32_t sched_seed = mix.NextFastRandSeed();
  FastRand shape_rng(mix.NextFastRandSeed());  // lotlint: stream(workload)
  FastRand disk_rng(mix.NextFastRandSeed());   // lotlint: stream(device)

  obs::Registry registry;
  FaultInjector injector(FaultPlan::Parse(scenario.plan), scenario.seed);
  if (trace != nullptr) {
    trace->set_seed(scenario.seed);
    injector.SetTrace(trace);
  }

  std::unique_ptr<LotteryScheduler> lottery;
  std::unique_ptr<StrideScheduler> stride;
  Scheduler* scheduler = nullptr;
  if (scenario.backend == "stride") {
    stride = std::make_unique<StrideScheduler>(&registry);
    scheduler = stride.get();
  } else if (scenario.backend == "smp") {
    smp::SmpScheduler::Options opts;
    opts.num_cpus = scenario.num_cpus;
    opts.seed = sched_seed;
    opts.cpu.backend = RunQueueBackend::kTree;
    opts.metrics = &registry;
    opts.trace = trace;
    lottery = std::make_unique<smp::SmpScheduler>(opts);
    scheduler = lottery.get();
  } else {
    LotteryScheduler::Options opts;
    opts.seed = sched_seed;
    opts.backend = scenario.backend == "tree" ? RunQueueBackend::kTree
                                              : RunQueueBackend::kList;
    opts.metrics = &registry;
    opts.trace = trace;
    lottery = std::make_unique<LotteryScheduler>(opts);
    scheduler = lottery.get();
  }

  Tracer tracer(SimDuration::Millis(100));
  tracer.EnableDispatchLog(size_t{1} << 20);

  Kernel::Options kopts;
  kopts.quantum = scenario.quantum;
  kopts.num_cpus = scenario.num_cpus;
  kopts.metrics = &registry;
  kopts.faults = &injector;
  kopts.trace = trace;
  Kernel kernel(scheduler, kopts, &tracer);

  SimMutex mutex(&kernel, "chaos.mutex");
  RpcPort port(&kernel, "chaos.port");
  DiskScheduler::Options dopts;
  dopts.bytes_per_second = 20 * 1000 * 1000;
  dopts.seek_overhead = SimDuration::Micros(200);
  DiskScheduler disk(dopts, &disk_rng);
  disk.SetFaultInjector(&injector);
  disk.SetTrace(trace);
  ServerCrashJanitor janitor(&kernel);

  const auto fund = [&](ThreadId tid, int64_t amount) {
    if (lottery != nullptr) {
      lottery->FundThread(tid, lottery->table().base(), amount);
    } else {
      stride->SetTickets(tid, amount);
    }
  };

  std::vector<ThreadId> tids;
  bool has_disk_user = false;
  for (int i = 0; i < scenario.num_threads; ++i) {
    const int kind = i % 6;
    const std::string name =
        std::string("chaos-") + std::to_string(i);
    std::unique_ptr<ThreadBody> body;
    RpcServerBody* server = nullptr;
    switch (kind) {
      case 0: {
        auto owned = std::make_unique<RpcServerBody>(
            &port, SimDuration::Micros(100 + shape_rng.NextBelow(400)));
        server = owned.get();
        body = std::move(owned);
        break;
      }
      case 1:
        body = std::make_unique<RpcClientBody>(
            &port, SimDuration::Micros(200 + shape_rng.NextBelow(800)));
        break;
      case 2: {
        // Three in four burners run forever; the rest self-exit mid-run.
        const SimDuration work =
            shape_rng.NextBelow(4) == 0
                ? SimDuration::Millis(
                      5 + static_cast<int64_t>(shape_rng.NextBelow(40)))
                : SimDuration{};
        body = std::make_unique<BurnBody>(work);
        break;
      }
      case 3:
        body = std::make_unique<SleeperBody>(
            SimDuration::Micros(100 + shape_rng.NextBelow(300)),
            SimDuration::Millis(
                1 + static_cast<int64_t>(shape_rng.NextBelow(8))));
        break;
      case 4:
        body = std::make_unique<MutexUserBody>(
            &mutex, SimDuration::Micros(100 + shape_rng.NextBelow(400)),
            SimDuration::Micros(100 + shape_rng.NextBelow(400)));
        break;
      default:
        body = std::make_unique<DiskUserBody>(
            &disk, SimDuration::Micros(200 + shape_rng.NextBelow(600)),
            2000 + static_cast<int64_t>(shape_rng.NextBelow(30000)));
        has_disk_user = true;
        break;
    }
    const ThreadId tid = kernel.Spawn(name, std::move(body));
    tids.push_back(tid);
    const int64_t amount = 100 + shape_rng.NextBelow(900);
    fund(tid, amount);
    if (server != nullptr) {
      port.RegisterServer(tid);
      janitor.Track(tid, server);
    }
    if (kind == 5) {
      disk.RegisterClient(static_cast<DiskScheduler::ClientId>(tid),
                          static_cast<uint64_t>(amount));
    }
  }

  ThreadId measured_a_tid = kInvalidThreadId;
  ThreadId measured_b_tid = kInvalidThreadId;
  if (scenario.measured_a > 0 && scenario.measured_b > 0) {
    measured_a_tid =
        kernel.Spawn("measured-a", std::make_unique<BurnBody>(SimDuration{}));
    measured_b_tid =
        kernel.Spawn("measured-b", std::make_unique<BurnBody>(SimDuration{}));
    fund(measured_a_tid, scenario.measured_a);
    fund(measured_b_tid, scenario.measured_b);
    injector.Protect(measured_a_tid);
    injector.Protect(measured_b_tid);
    tids.push_back(measured_a_tid);
    tids.push_back(measured_b_tid);
  }

  const SimTime end = SimTime::Zero() + scenario.horizon;
  ChaosController::Options copts;
  copts.period = SimDuration::Millis(2);
  copts.revoke_duration = SimDuration::Millis(50);
  copts.stop_after = end;
  ChaosController controller(&kernel, &injector, copts);
  controller.Start();

  // Drive the kernel in fixed steps, pumping the disk between them (the
  // established pattern — see examples/multi_resource.cpp). Advancing the
  // disk to the step boundary, not kernel.now(), also unblocks the case
  // where every thread is parked on I/O and the kernel goes quiescent.
  SimTime cursor = SimTime::Zero();
  while (cursor < end) {
    SimTime step = cursor + SimDuration::Millis(1);
    if (step > end) {
      step = end;
    }
    kernel.RunUntil(step);
    if (has_disk_user) {
      disk.AdvanceTo(step);
    }
    cursor = step;
  }

  ScenarioResult result;
  result.end_time = kernel.now();
  result.context_switches = kernel.context_switches();
  result.live_threads = kernel.num_live_threads();
  result.injections = injector.total_injections();
  for (size_t i = 0; i < kNumFaultClasses; ++i) {
    result.injected_by_class[i] =
        injector.injections(static_cast<FaultClass>(i));
  }
  result.spurious_wakes = controller.spurious_wakes();
  result.revocations = controller.revocations();
  result.dispatch_log_dropped = tracer.dropped();
  for (const ThreadId tid : tids) {
    result.dispatches += kernel.Dispatches(tid);
  }
  if (measured_a_tid != kInvalidThreadId) {
    result.wins_a = kernel.Dispatches(measured_a_tid);
    result.wins_b = kernel.Dispatches(measured_b_tid);
    result.cpu_a = kernel.CpuTime(measured_a_tid);
    result.cpu_b = kernel.CpuTime(measured_b_tid);
    for (const Tracer::Dispatch& dispatch : tracer.dispatches()) {
      if (dispatch.tid == measured_a_tid) {
        result.measured_sequence.push_back(1);
      } else if (dispatch.tid == measured_b_tid) {
        result.measured_sequence.push_back(0);
      }
    }
  }

  // --- Oracles ---
  CheckWorkConservation(kernel, scenario, &result.violations);
  if (lottery != nullptr) {
    CheckTicketConservation(lottery->table(), &result.violations);
    CheckAcyclicity(lottery->table(), &result.violations);
    CheckCompensationBounds(kernel, lottery.get(), tids, &result.violations);
  }

  // --- Trace fingerprint ---
  uint64_t hash = 14695981039346656037ull;
  for (const Tracer::Dispatch& dispatch : tracer.dispatches()) {
    hash = Fnv1a(hash, static_cast<uint64_t>(dispatch.tid));
    hash = Fnv1a(hash, static_cast<uint64_t>(dispatch.cpu));
    hash = Fnv1a(hash, std::bit_cast<uint64_t>(dispatch.start_sec));
    hash = Fnv1a(hash, std::bit_cast<uint64_t>(dispatch.duration_sec));
  }
  hash = Fnv1a(hash, static_cast<uint64_t>(kernel.now().nanos()));
  hash = Fnv1a(hash, kernel.context_switches());
  for (const ThreadId tid : tids) {
    hash = Fnv1a(hash, static_cast<uint64_t>(tid));
    hash = Fnv1a(hash, kernel.Dispatches(tid));
    hash = Fnv1a(hash, static_cast<uint64_t>(kernel.CpuTime(tid).nanos()));
  }
  for (size_t i = 0; i < kNumFaultClasses; ++i) {
    hash = Fnv1a(hash, result.injected_by_class[i]);
  }
  hash = Fnv1a(hash, result.spurious_wakes);
  hash = Fnv1a(hash, result.revocations);
  result.trace_hash = hash;
  return result;
}

// ---------------------------------------------------------------------------
// Fuzz generators

FaultPlan RandomFaultPlan(FastRand& rng) {  // lotlint: stream(workload)
  FaultPlan plan;
  for (size_t i = 0; i < kNumFaultClasses; ++i) {
    if (rng.NextBelow(100) >= 45) {
      continue;
    }
    FaultSpec spec;
    spec.fault = static_cast<FaultClass>(i);
    const bool probabilistic = rng.NextBelow(2) == 0;
    if (spec.fault == FaultClass::kThreadCrash) {
      // Crashes fire per dispatch; keep the rate low enough that runs stay
      // populated long enough to be interesting.
      if (probabilistic) {
        spec.probability_ppm = 200 + rng.NextBelow(20000);
      } else {
        spec.every_nth = 20 + rng.NextBelow(100);
      }
    } else if (probabilistic) {
      spec.probability_ppm = 1000 + rng.NextBelow(150000);
    } else {
      spec.every_nth = 2 + rng.NextBelow(12);
    }
    if ((spec.fault == FaultClass::kDelayedUnblock ||
         spec.fault == FaultClass::kRpcDrop ||
         spec.fault == FaultClass::kDiskTimeout) &&
        rng.NextBelow(2) == 0) {
      spec.delay = SimDuration::Micros(
          100 + static_cast<int64_t>(rng.NextBelow(20000)));
    }
    if (spec.fault == FaultClass::kDiskTimeout) {
      spec.max_retries = 1 + rng.NextBelow(5);
    }
    plan.specs.push_back(spec);
  }
  return plan;
}

Scenario RandomScenario(FastRand& rng, uint64_t seed) {  // lotlint: stream(workload)
  Scenario scenario;
  scenario.seed = seed;
  const char* backends[3] = {"list", "tree", "stride"};
  scenario.backend = backends[rng.NextBelow(3)];
  scenario.num_cpus = 1 + static_cast<int>(rng.NextBelow(2));
  scenario.num_threads = 4 + static_cast<int>(rng.NextBelow(9));
  scenario.horizon = SimDuration::Millis(
      150 + static_cast<int64_t>(rng.NextBelow(350)));
  const SimDuration quanta[3] = {SimDuration::Micros(500),
                                 SimDuration::Millis(1),
                                 SimDuration::Millis(2)};
  scenario.quantum = quanta[rng.NextBelow(3)];
  scenario.plan = RandomFaultPlan(rng).ToString();
  return scenario;
}

}  // namespace chaos
}  // namespace lottery
