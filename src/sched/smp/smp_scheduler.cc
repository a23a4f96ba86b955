#include "src/sched/smp/smp_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/weighted_draw.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/util/invariant.h"

namespace lottery {
namespace smp {

namespace {

// Independent child seed: salt the user seed through SplitMix64 so the
// facade's derived streams (balance lottery, crossbar matching, per-CPU
// dispatch for CPUs > 0) never collide with each other or with CPU 0,
// which runs on the user seed verbatim (the 1-CPU identity contract).
uint32_t DeriveSeed(uint32_t seed, uint32_t salt) {
  SplitMix64 mixer((static_cast<uint64_t>(salt) << 32) | seed);
  return mixer.NextFastRandSeed();
}

// Innermost-level imbalance floor, in per-mille of the victim+thief ticket
// sum; doubles per domain level, so long-haul moves need a proportionally
// bigger gap. The steady-state pairwise imbalance stays within max(floor
// at the widest level, smallest migratable thread), which bounds the
// global share error the partition can accumulate.
constexpr uint32_t kImbalanceMinPermille = 10;
// Affinity cost model: cells re-fetched per migration, over a default
// crossbar with one port per CPU.
constexpr uint32_t kFootprintCells = 32;

CrossbarSwitch::Options XbarOptions(int num_cpus) {
  CrossbarSwitch::Options x{};
  x.num_ports = num_cpus;
  return x;
}

LotteryScheduler::Options EconomyOptions(const SmpScheduler::Options& options) {
  LotteryScheduler::Options o = options.cpu;
  o.metrics = options.metrics;
  o.trace = options.trace;
  return o;
}

// CPU 0 dispatches from the user seed verbatim, CPU i > 0 from a derived one.
std::vector<uint32_t> QueueSeeds(const SmpScheduler::Options& options) {
  if (options.num_cpus < 1) {
    throw std::invalid_argument("SmpScheduler: need at least one CPU");
  }
  std::vector<uint32_t> seeds{options.seed};
  for (int i = 1; i < options.num_cpus; ++i) {
    seeds.push_back(
        DeriveSeed(options.seed, 0x09000000u + static_cast<uint32_t>(i)));
  }
  return seeds;
}

}  // namespace

SmpScheduler::SmpScheduler(Options options)
    : LotteryScheduler(EconomyOptions(options), QueueSeeds(options)),
      options_(options),
      domains_(options.num_cpus),
      balance_rng_(DeriveSeed(options.seed, 0xba1a6ceu)),
      xbar_rng_(DeriveSeed(options.seed, 0xc6055bau)),
      xbar_(XbarOptions(options.num_cpus), &xbar_rng_),
      m_steals_(metrics().counter("smp.steals")),
      m_migrations_(metrics().counter("smp.migrations")),
      m_balance_checks_(metrics().counter("smp.balance_checks")),
      m_cost_vetoes_(metrics().counter("smp.cost_vetoes")),
      m_xbar_cells_(metrics().counter("smp.xbar_cells")) {
  if (options_.balance_period < 1) {
    throw std::invalid_argument("SmpScheduler: balance_period must be >= 1");
  }
  for (int i = 0; i < options_.num_cpus; ++i) {
    const std::string prefix = "smp.cpu" + std::to_string(i) + ".";
    m_cpu_dispatches_.push_back(metrics().counter(prefix + "dispatches"));
    m_cpu_steals_in_.push_back(metrics().counter(prefix + "steals_in"));
    m_cpu_steals_out_.push_back(metrics().counter(prefix + "steals_out"));
  }
  running_tid_.assign(static_cast<size_t>(options_.num_cpus),
                      kInvalidThreadId);
  since_balance_.assign(static_cast<size_t>(options_.num_cpus), 0);
}

SmpScheduler::~SmpScheduler() = default;

void SmpScheduler::AddThread(ThreadId id, SimTime /*now*/) {
  // Round-robin spawn placement: deterministic and already value-balanced
  // for homogeneous spawns; the balancer corrects everything else.
  const int home = next_home_;
  next_home_ = (next_home_ + 1) % options_.num_cpus;
  AddThreadOn(id, home);
}

void SmpScheduler::ClearRunning(ThreadId id) {
  // A running thread is never migrated, so it runs on its home CPU.
  ThreadId& running = running_tid_[static_cast<size_t>(QueueOf(id))];
  if (running == id) {
    running = kInvalidThreadId;
  }
}

void SmpScheduler::RemoveThread(ThreadId id, SimTime now) {
  ClearRunning(id);
  LotteryScheduler::RemoveThread(id, now);
}

void SmpScheduler::OnReady(ThreadId id, SimTime now) {
  ClearRunning(id);
  LotteryScheduler::OnReady(id, now);
}

void SmpScheduler::OnBlocked(ThreadId id, SimTime now) {
  ClearRunning(id);
  LotteryScheduler::OnBlocked(id, now);
}

ThreadId SmpScheduler::PickNextOnCpu(int cpu, SimTime now) {
  if (cpu < 0 || cpu >= options_.num_cpus) {
    throw std::out_of_range("SmpScheduler::PickNextOnCpu: bad cpu");
  }
  const size_t c = static_cast<size_t>(cpu);
  if (options_.steal_enabled && options_.num_cpus > 1) {
    if (QueuedCount(cpu) == 0) {
      TryIdleSteal(cpu, now);
    } else if (++since_balance_[c] >= options_.balance_period) {
      since_balance_[c] = 0;
      TryBalanceSteal(cpu, now);
    }
  }
  const ThreadId tid = PickFrom(cpu, now);
  if (tid != kInvalidThreadId) {
    running_tid_[c] = tid;
    m_cpu_dispatches_[c]->Inc();
  }
  return tid;
}

void SmpScheduler::OnQuantumEnd(ThreadId id, SimDuration used,
                                SimDuration quantum, SimTime now) {
  last_quantum_ = quantum;
  // The thread stays "running" (its value assigned to its CPU) until the
  // requeue/block that follows: on a multi-CPU kernel the slice is still in
  // flight when OnQuantumEnd arrives, and the balancer should keep seeing
  // the CPU as loaded for that window.
  LotteryScheduler::OnQuantumEnd(id, used, quantum, now);
}

Ticket* SmpScheduler::FundThread(ThreadId id, int64_t amount) {
  return FundThread(id, table().base(), amount);
}

uint64_t SmpScheduler::AssignedValue(int c) {
  uint64_t total = RunnableTickets(c);
  const ThreadId running = running_tid_[static_cast<size_t>(c)];
  if (running != kInvalidThreadId) {
    total += ThreadValue(running).raw_unsigned();
  }
  return total;
}

void SmpScheduler::TryIdleSteal(int cpu, SimTime now) {
  // Inside-out: the nearest domain with queued work wins, so affinity is
  // encoded in the search order even though an idle CPU never refuses work.
  for (int level = 0; level < domains_.num_levels(); ++level) {
    const Domain d = domains_.At(cpu, level);
    int victim = -1;
    uint64_t best_value = 0;
    size_t best_queued = 0;
    for (int c = d.first; c < d.first + d.count; ++c) {
      if (c == cpu) {
        continue;
      }
      const size_t queued = QueuedCount(c);
      if (queued == 0) {
        continue;
      }
      const uint64_t value = RunnableTickets(c);
      // Busiest by ticket value; more queued threads break ties, then the
      // lowest index (the ascending scan with strict > keeps the first).
      if (victim < 0 || value > best_value ||
          (value == best_value && queued > best_queued)) {
        victim = c;
        best_value = value;
        best_queued = queued;
      }
    }
    if (victim < 0) {
      continue;
    }
    const ThreadId migrant = PickMigrant(QueuedSnapshot(victim), 0);
    if (migrant == kInvalidThreadId) {
      return;
    }
    DoMigrate(migrant, victim, cpu, now,
              static_cast<uint16_t>(etrace::EventType::kSteal), best_value);
    return;
  }
}

void SmpScheduler::TryBalanceSteal(int cpu, SimTime now) {
  m_balance_checks_->Inc();
  const uint64_t mine = AssignedValue(cpu);
  for (int level = 0; level < domains_.num_levels(); ++level) {
    const Domain d = domains_.At(cpu, level);
    int victim = -1;
    uint64_t best = 0;
    for (int c = d.first; c < d.first + d.count; ++c) {
      if (c == cpu || QueuedCount(c) == 0) {
        continue;
      }
      const uint64_t value = AssignedValue(c);
      if (victim < 0 || value > best) {
        victim = c;
        best = value;
      }
    }
    if (victim < 0 || best <= mine) {
      continue;  // balanced (or empty) here; try the wider domain
    }
    const uint64_t imbalance = best - mine;
    const uint64_t sum = best + mine;
    // The imbalance floor doubles per level: crossing the package boundary
    // must be worth more than shuffling within a core pair. Returning
    // before this point never touches the RNG, so a balanced system is a
    // draw-free no-op (smp_identity_test pins that down).
    const uint64_t floor_permille =
        static_cast<uint64_t>(kImbalanceMinPermille) << level;
    if (imbalance * 1000 <= sum * floor_permille) {
      continue;
    }
    // Lottery-weighted stealing: steal with probability imbalance / sum,
    // one draw per level per periodic check, on the dedicated balance
    // stream. A failed draw only forfeits this level — the wider domain
    // may hold a larger imbalance with better odds.
    if (balance_rng_.NextBelow64(sum) >= imbalance) {
      continue;
    }
    // Cap the migrant strictly below the gap: moving value w changes the
    // pairwise difference by 2w, so |diff - 2w| < diff exactly when
    // 0 < w < diff — any qualifying migrant converges, worst case halving
    // the gap's magnitude, and ping-pong is impossible.
    if (imbalance < 2) {
      continue;  // no migrant below a gap of 1 can exist
    }
    const ThreadId migrant =
        PickMigrant(QueuedSnapshot(victim), imbalance - 1);
    if (migrant == kInvalidThreadId) {
      continue;  // granularity floor here; a wider victim may divide finer
    }
    // Affinity veto: predicted transfer time vs the imbalance's worth of
    // CPU time until the next balance check (the window the imbalance
    // would otherwise persist for). Backlog from recent migrations that has
    // not drained by `now` raises the prediction, so storms throttle
    // themselves.
    const int64_t cost_ns = PredictCostNs(victim, cpu, level, now);
    const uint64_t ratio = imbalance * 1024 / sum;  // <= 1024
    const int64_t gain_ns = static_cast<int64_t>(
        ratio * static_cast<uint64_t>(last_quantum_.nanos()) *
        options_.balance_period / 1024);
    if (cost_ns > gain_ns) {
      ++cost_vetoes_;
      m_cost_vetoes_->Inc();
      return;
    }
    DoMigrate(migrant, victim, cpu, now,
              static_cast<uint16_t>(etrace::EventType::kMigrate), imbalance);
    return;
  }
}

ThreadId SmpScheduler::PickMigrant(
    const std::vector<std::pair<ThreadId, uint64_t>>& snap,
    uint64_t max_value) {
  const auto eligible = [max_value](uint64_t value) {
    return max_value == 0 || value <= max_value;
  };
  auto it = DrawWeighted(balance_rng_, snap.begin(), snap.end(),
                         [&](const auto& entry) {
                           return eligible(entry.second) ? entry.second
                                                         : uint64_t{0};
                         });
  if (it == snap.end()) {
    // Every eligible thread is worth zero right now (funding revoked or
    // inactive): fall back to a uniform pick, mirroring the scheduler's
    // own zero-funding round-robin spirit.
    const auto count = std::count_if(
        snap.begin(), snap.end(),
        [&](const auto& entry) { return eligible(entry.second); });
    if (count == 0) {
      return kInvalidThreadId;
    }
    it = ResolveWeighted(
        snap.begin(), snap.end(),
        balance_rng_.NextBelow(static_cast<uint32_t>(count)),
        [&](const auto& entry) { return eligible(entry.second) ? 1u : 0u; });
  }
  return it->first;
}

CrossbarSwitch::CircuitId SmpScheduler::CircuitFor(int src, int dst) {
  const auto key = std::make_pair(src, dst);
  const auto it = circuits_.find(key);
  if (it != circuits_.end()) {
    return it->second;
  }
  const CrossbarSwitch::CircuitId id = xbar_.AddCircuit(src, dst, 1);
  circuits_.emplace(key, id);
  return id;
}

int64_t SmpScheduler::PredictCostNs(int src, int dst, int level,
                                    SimTime now) {
  // Drain what the switch would have sent by now, so the veto reads the
  // backlog a migration at `now` would queue behind. The switch does the
  // same work however it is stepped, so this moves none of its draws.
  xbar_.AdvanceTo(now);
  const CrossbarSwitch::CircuitId circuit = CircuitFor(src, dst);
  const uint64_t cells =
      static_cast<uint64_t>(xbar_.Backlog(circuit)) + kFootprintCells;
  return static_cast<int64_t>(cells) * xbar_.cell_time().nanos() *
         (level + 1);
}

void SmpScheduler::DoMigrate(ThreadId id, int src, int dst, SimTime now,
                             uint16_t type, uint64_t imbalance) {
  LOT_ASSERT(QueueOf(id) == src, "SmpScheduler: migrant not homed on source");
  const uint64_t value = ThreadValue(id).raw_unsigned();
  // The slot moves; the thread's client, currency, funding and
  // compensation stay where they are, in the one economy.
  MoveQueued(id, dst);

  // Price the cache-footprint transfer on the victim->thief circuit. The
  // cells drain as simulated time advances past future migrations.
  xbar_.AdvanceTo(now);
  const CrossbarSwitch::CircuitId circuit = CircuitFor(src, dst);
  xbar_.SetTickets(circuit, imbalance == 0 ? 1 : imbalance);
  for (uint32_t i = 0; i < kFootprintCells; ++i) {
    xbar_.Enqueue(circuit, now);
  }
  m_xbar_cells_->Inc(kFootprintCells);

  if (type == static_cast<uint16_t>(etrace::EventType::kSteal)) {
    ++steals_;
    m_steals_->Inc();
  } else {
    ++migrations_;
    m_migrations_->Inc();
  }
  m_cpu_steals_in_[static_cast<size_t>(dst)]->Inc();
  m_cpu_steals_out_[static_cast<size_t>(src)]->Inc();
  if (etrace::On(trace(), etrace::kCatSched)) {
    etrace::Event e;
    e.t_ns = now.nanos();
    e.a = id;
    e.b = static_cast<uint32_t>(dst);
    e.v1 = static_cast<uint64_t>(src);
    e.v2 = value;
    e.v3 = imbalance;
    e.type = type;
    trace()->Append(e);
  }
}

void SmpScheduler::Migrate(ThreadId id, int dst, SimTime now) {
  if (dst < 0 || dst >= options_.num_cpus) {
    throw std::out_of_range("SmpScheduler::Migrate: bad cpu");
  }
  const int home = QueueOf(id);
  if (home == dst) {
    throw std::invalid_argument("SmpScheduler::Migrate: already on cpu");
  }
  if (running_tid_[static_cast<size_t>(home)] == id) {
    throw std::invalid_argument("SmpScheduler::Migrate: thread is running");
  }
  if (!IsQueued(id)) {
    throw std::invalid_argument("SmpScheduler::Migrate: thread not queued");
  }
  DoMigrate(id, home, dst, now,
            static_cast<uint16_t>(etrace::EventType::kMigrate), 0);
}

void SmpScheduler::CheckIntegrity() const {
  CheckQueues();
  for (int c = 0; c < options_.num_cpus; ++c) {
    const ThreadId tid = running_tid_[static_cast<size_t>(c)];
    if (tid != kInvalidThreadId && (QueueOf(tid) != c || IsQueued(tid))) {
      throw std::logic_error("SmpScheduler: running-thread map out of sync");
    }
  }
}

}  // namespace smp
}  // namespace lottery
