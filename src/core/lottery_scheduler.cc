#include "src/core/lottery_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "src/core/invariants.h"
#include "src/obs/etrace/trace_buffer.h"

namespace lottery {

namespace {

[[noreturn]] void ThrowUnknownThread(ThreadId id) {
  throw std::invalid_argument("LotteryScheduler: unknown thread " +
                              std::to_string(id));
}

}  // namespace

LotteryScheduler::LotteryScheduler(Options options)
    : LotteryScheduler(options, {options.seed}) {}

LotteryScheduler::LotteryScheduler(Options options,
                                   const std::vector<uint32_t>& queue_seeds)
    : options_(options),
      table_(options.metrics, options.trace),
      compensation_(options.compensation),
      queues_(queue_seeds.size()),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::Registry::Default()),
      draws_(metrics_->counter("lottery.draws")),
      zero_fallbacks_(metrics_->counter("lottery.zero_fallbacks")),
      compensation_grants_(metrics_->counter("lottery.compensation_grants")),
      transfers_(metrics_->counter("lottery.transfers")),
      leaf_updates_(metrics_->counter("tree.leaf_updates")),
      full_syncs_(metrics_->counter("tree.full_syncs")),
      batch_formed_(metrics_->counter("lottery.batch_formed")),
      batch_draws_(metrics_->counter("lottery.batch_draws")),
      batch_flushes_(metrics_->counter("lottery.batch_flushes")),
      draw_cost_(metrics_->histogram("lottery.draw_cost")),
      sync_ns_(metrics_->histogram("lottery.sync_ns")),
      tree_draw_ns_(metrics_->histogram("lottery.tree_draw_ns")) {
  for (size_t i = 0; i < queue_seeds.size(); ++i) {
    queues_[i].rng.Seed(queue_seeds[i]);
    queues_[i].use_tree = options_.backend == RunQueueBackend::kTree;
  }
  table_.AddObserver(this);
}

LotteryScheduler::~LotteryScheduler() { table_.RemoveObserver(this); }

void LotteryScheduler::OnClientValueDirty(Client* client) {
  // A client made directly on the table carries no stamp (kNoOwner is past
  // any table index), and a removed thread's client finds no live record.
  ThreadState* state = FindState(client->owner_index());
  if (state == nullptr || &*state->client != client) {
    return;  // a client the scheduler does not own
  }
  RunQueue& q = queues_[state->queue];
  if (!state->dirty) {
    state->dirty = true;
    q.dirty.push_back(state);
  }
  NoteDisturbance(q);
}

// --- Speculative batching ---------------------------------------------------

void LotteryScheduler::FlushBatch(RunQueue& q) {
  if (q.HasLiveBatch()) {
    batch_flushes_->Inc();
  }
  q.batch.clear();
  q.batch_next = 0;
  q.restore_pending = false;
}

void LotteryScheduler::FormBatch(RunQueue& q, uint64_t total) {
  const size_t k = options_.batch_window - 1;
  batch_values_.resize(k);
  batch_slots_.resize(k);
  q.batch.resize(k);
  // Draw the next k randoms from a copy of the generator: q.rng itself
  // stays untouched until each entry is actually served, so a flushed batch
  // leaves no trace in the stream.
  FastRand spec(q.rng.state());  // lotlint: stream(scheduler)
  for (size_t i = 0; i < k; ++i) {
    q.batch[i].pre_state = spec.state();
    batch_values_[i] = spec.NextBelow64(total);
    q.batch[i].post_state = spec.state();
  }
  q.tree.ResolveValues(k, batch_values_.data(), batch_slots_.data());
  for (size_t i = 0; i < k; ++i) {
    q.batch[i].value = batch_values_[i];
    q.batch[i].slot = batch_slots_[i];
  }
  q.batch_next = 0;
  batch_formed_->Inc();
}

const LotteryScheduler::ThreadState* LotteryScheduler::FindState(
    ThreadId id) const {
  if (id >= threads_.size() || threads_[id].id != id) {
    return nullptr;
  }
  return &threads_[id];
}

LotteryScheduler::ThreadState& LotteryScheduler::StateOf(ThreadId id) {
  ThreadState* state = FindState(id);
  if (state == nullptr) {
    ThrowUnknownThread(id);
  }
  return *state;
}

// lotlint: invariant-ok — AddThreadOn checks the table.
void LotteryScheduler::AddThread(ThreadId id, SimTime /*now*/) {
  AddThreadOn(id, 0);
}

void LotteryScheduler::AddThreadOn(ThreadId id, int queue) {
  if (id == kInvalidThreadId || id > kMaxThreadId) {
    throw std::invalid_argument("LotteryScheduler::AddThread: thread id " +
                                std::to_string(id) + " out of range");
  }
  if (FindState(id) != nullptr) {
    throw std::invalid_argument("LotteryScheduler::AddThread: duplicate id");
  }
  RunQueue& q = QueueAt(queue);
  if (!q.use_tree && options_.list_max_threads != 0 &&
      q.homed >= options_.list_max_threads) {
    // The list's O(n) draw is ~280x the tree's at 10k clients
    // (bench_draw_overhead baselines); past the threshold it is a
    // misconfiguration, not a trade-off.
    throw std::length_error(
        "LotteryScheduler: list backend past list_max_threads=" +
        std::to_string(options_.list_max_threads) +
        " clients; use RunQueueBackend::kTree (or set list_max_threads=0)");
  }
  const std::string tag = "thread:" + std::to_string(id);
  Currency* currency = table_.CreateCurrency(tag);
  while (threads_.size() <= id) {
    threads_.EmplaceBack();
  }
  ThreadState& state = threads_[id];
  state.id = id;
  state.queue = static_cast<uint32_t>(queue);
  state.in_queue = false;
  state.dirty = false;
  state.slot = 0;
  state.currency = currency;
  // Live and stamped before the client takes its self ticket, so the
  // dirty mark HoldTicket raises finds the thread.
  state.client.emplace(&table_, tag, id);
  ++q.homed;
  state.self_ticket = table_.CreateTicket(currency, kThreadTicketAmount);
  state.client->HoldTicket(state.self_ticket);
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::RemoveThread(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  RunQueue& q = queues_[state.queue];
  if (state.in_queue) {
    Dequeue(state);
  }
  --q.homed;
  state.client->SetActive(false);
  table_.DestroyTicket(state.self_ticket);
  // The record is dead from here on and the client's marks find no thread,
  // so this drops its last dirty entries (stale ones included) before the
  // client dies.
  state.id = kInvalidThreadId;
  std::erase(q.dirty, &state);
  state.client.reset();
  // Destroys the thread currency and all tickets funding it. A thread that
  // dies with in-flight transfers (a crashed RPC client whose call is still
  // queued) leaves tickets issued in this currency in others' hands; the
  // currency is then retired — worth zero, reclaimed with its last issued
  // ticket — instead of destroyed outright. It gives up its name, so the id
  // can be added again meanwhile.
  table_.RetireCurrency(state.currency);
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::Enqueue(ThreadState& state) {
  RunQueue& q = queues_[state.queue];
  util::SeqGuard guard(q.seq);
  const uint64_t weight = state.client->Value().raw_unsigned();
  state.slot = q.Add(weight);
  if (state.slot >= q.slot_owner.size()) {
    q.slot_owner.resize(state.slot + 1, nullptr);
  }
  q.slot_owner[state.slot] = &state;
  // The slot was seeded with the current value; any pending dirty mark
  // (e.g. from the unblock activation) is already folded in. Its dirty
  // list entry stays behind, stale, until the next sync.
  state.dirty = false;
  if (q.restore_pending && state.slot == q.restore_slot &&
      weight == q.restore_weight) {
    // The previous winner re-entered at its old slot with its old weight:
    // the queue is back to the state any live batch was formed against,
    // and the steady-state cycle stays "clean".
    q.restore_pending = false;
  } else {
    NoteDisturbance(q);
  }
  state.in_queue = true;
}

void LotteryScheduler::Dequeue(ThreadState& state) {
  RunQueue& q = queues_[state.queue];
  util::SeqGuard guard(q.seq);
  q.Remove(state.slot);
  q.slot_owner[state.slot] = nullptr;
  NoteDisturbance(q);
  state.in_queue = false;
}

void LotteryScheduler::OnReady(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  state.client->SetActive(true);
  if (!state.in_queue) {
    Enqueue(state);
  }
  LOT_ASSERT(state.in_queue && state.client->active(),
             "OnReady left thread " + std::to_string(id) + " not competing");
}

void LotteryScheduler::OnBlocked(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    Dequeue(state);
  }
  state.client->SetActive(false);
  LOT_ASSERT(!state.in_queue && !state.client->active(),
             "OnBlocked left thread " + std::to_string(id) + " competing");
}

void LotteryScheduler::MoveQueued(ThreadId id, int queue) {
  ThreadState& state = StateOf(id);
  LOT_ASSERT(state.in_queue, "moving unqueued thread " + std::to_string(id));
  RunQueue& from = queues_[state.queue];
  RunQueue& to = QueueAt(queue);
  Dequeue(state);
  // Keeps "a queue's dirty list holds only its own threads": the move
  // folds the current value in, so pending marks have nothing left to say.
  std::erase(from.dirty, &state);
  --from.homed;
  ++to.homed;
  state.queue = static_cast<uint32_t>(queue);
  // An arrival perturbs the destination like any other queue change.
  NoteDisturbance(to);
  Enqueue(state);
}

void LotteryScheduler::SyncWeights(RunQueue& q) {
  if (q.dirty.empty()) {
    return;
  }
  // Compact to the threads still marked, each once: an entry whose bit is
  // clear was folded in by OnReady or repeats an earlier entry.
  size_t marked = 0;
  for (ThreadState* state : q.dirty) {
    if (state->dirty) {
      state->dirty = false;
      q.dirty[marked++] = state;
    }
  }
  q.dirty.resize(marked);
  if (q.use_tree && marked > q.size()) {
    // More dirty threads than queued slots: one bulk pass over the queue
    // beats filtering and sorting the marks (and covers the first sync
    // after mass arrivals). Tree only: the pass reprices in slot order, so
    // on list queues, where it would fire too (fig7, fig11, fig_db_disk,
    // bench_sensitivity), it would reorder their kReprice events, and the
    // list's O(1) slot updates gain little from it.
    full_syncs_->Inc();
    for (ThreadState* state : q.slot_owner) {
      if (state == nullptr) {
        continue;
      }
      q.SetWeight(state->slot, state->client->Value().raw_unsigned());
    }
  } else {
    // Threads not competing get a fresh weight from OnReady later. The
    // weights are an order-independent fold, but client->Value() emits
    // kReprice trace events on cache fills, so the survivors flush in
    // thread-id order: the trace then does not depend on the order the
    // marks arrived in.
    std::erase_if(q.dirty,
                  [](const ThreadState* state) { return !state->in_queue; });
    std::sort(q.dirty.begin(), q.dirty.end(),
              [](const ThreadState* a, const ThreadState* b) {
                return a->id < b->id;
              });
    for (ThreadState* state : q.dirty) {
      q.SetWeight(state->slot, state->client->Value().raw_unsigned());
    }
    if (q.use_tree) {
      leaf_updates_->Inc(q.dirty.size());
    }
  }
  q.dirty.clear();
}

// lotlint: invariant-ok — PickFrom carries the checks.
ThreadId LotteryScheduler::PickNext(SimTime now) { return PickFrom(0, now); }

ThreadId LotteryScheduler::PickFrom(int queue, SimTime now) {
  // Advance the trace's sim-time cursor: everything recorded from here to
  // the dispatch (decisions, reprices, transfer churn) stamps this instant.
  etrace::SetNow(options_.trace, now.nanos());
  RunQueue& q = QueueAt(queue);
  util::SeqGuard guard(q.seq);
  if (q.size() == 0) {
    return kInvalidThreadId;
  }
  ++num_lotteries_;
  draws_->Inc();
  // Advance the clean-streak gate: a pick with no disturbance since the
  // previous one extends the streak that arms speculative batching.
  if (q.pick_clean) {
    ++q.clean_streak;
  } else {
    q.clean_streak = 0;
    q.pick_clean = true;
  }
  // Sample the tree's wall-clock sync/draw split on the histogram cadence;
  // the clock reads would otherwise dominate a tree dispatch.
  const uint64_t tick = timing_tick_++;
  const bool timed = obs::kObsEnabled && q.use_tree && tick % 16 == 0;
  std::chrono::steady_clock::time_point t0;  // lotlint: wallclock-ok
  if (timed) {
    t0 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
  }
  SyncWeights(q);
#if LOT_INVARIANTS_ENABLED
  // Sampled O(n) sweep: the maintained total must equal the sum of the
  // live slots' weights, or incremental SetWeight updates have drifted.
  if (tick % 64 == 0) {
    uint64_t weight_sum = 0;
    q.ForEachQueued([&weight_sum](const ThreadState&, uint64_t weight) {
      weight_sum += weight;
    });
    LOT_ASSERT(weight_sum == q.total(),
               "run queue: total out of sync with slot weights");
  }
#endif
  std::chrono::steady_clock::time_point t1;  // lotlint: wallclock-ok
  if (timed) {
    t1 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    sync_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  // Candidate snapshot (verbose, opt-in): weights as the draw below sees
  // them, in draw order, so each winner is re-derivable from (snapshot,
  // random value) by a prefix scan.
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    q.ForEachQueued([this, &index](const ThreadState& state, uint64_t weight) {
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = state.id;
      e.b = index++;
      e.v1 = weight;
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    });
  }
  ThreadState* winner = nullptr;
  uint64_t drawn_value = 0;
  std::optional<size_t> drawn;
  bool batched = false;
  if (q.HasLiveBatch()) {
    const BatchEntry& entry = q.batch[q.batch_next];
    if (!q.restore_pending && q.rng.state() == entry.pre_state) {
      // Serve the pre-resolved winner: identical value, winner and RNG
      // stream to the descent this replaces.
      drawn_value = entry.value;
      drawn = entry.slot;
      q.rng.SetState(entry.post_state);
      batched = true;
      ++q.batch_next;
      batch_draws_->Inc();
    } else {
      // The queue never returned to the formation state (winner came
      // back changed) or someone else drew from q.rng in between.
      FlushBatch(q);
    }
  }
  const uint64_t scanned_before = q.list.total_scanned();
  if (!batched) {
    drawn = q.Draw(&drawn_value);
  }
  // Draw cost in the structure's own units: list entries scanned, tree
  // levels descended (1 for a batch hit).
  uint64_t cost = q.list.total_scanned() - scanned_before;
  if (q.use_tree) {
    cost = batched ? 1 : q.tree.draw_depth();
  }
  draw_cost_->RecordSampled(cost);
  if (drawn.has_value()) {
    winner = q.slot_owner[*drawn];
  } else {
    // All ready clients have zero funding; pick without a lottery so no
    // one starves. The list takes its front (the requeue appends, rotating
    // the list round-robin); the tree picks uniformly over its live slots.
    size_t index = q.use_tree ? static_cast<size_t>(q.rng.NextBelow(
                                    static_cast<uint32_t>(q.size())))
                              : 0;
    drawn_value = index;  // decision event: index into the candidates
    q.ForEachQueued([&winner, &index](ThreadState& state, uint64_t) {
      if (winner == nullptr && index-- == 0) {
        winner = &state;
      }
    });
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  LOT_ASSERT(winner != nullptr, "run queue draw returned no winner");
  // A drawn slot is the winner's: its weight and slot need no load through
  // the winner's record.
  const size_t winner_slot = drawn.has_value() ? *drawn : winner->slot;
  const uint64_t winner_weight = q.Weight(winner_slot);
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.a = winner->id;
    e.v1 = drawn_value;
    e.v2 = q.total();
    e.v3 = winner_weight;
    uint16_t flags = q.use_tree ? etrace::kDecisionTree : uint16_t{0};
    if (!drawn.has_value()) {
      flags |= etrace::kDecisionFallback;
    }
    if (batched) {
      flags |= etrace::kDecisionBatched;
    }
    e.flags = flags;
    e.type = static_cast<uint16_t>(etrace::EventType::kDecision);
    options_.trace->Append(e);
  }
  // Speculative batch formation happens before the winner's removal: this
  // exact queue state is what future draws see once the winner re-enters
  // unchanged, and any deviation (tracked via q.restore_pending / dirty
  // marks) flushes the entries unserved.
  if (q.use_tree && options_.batch_window >= 2 && !q.HasLiveBatch() &&
      q.clean_streak >= kBatchStreakMin && drawn.has_value()) {
    FormBatch(q, q.total());
  }
  q.Remove(winner_slot);
  q.slot_owner[winner_slot] = nullptr;
  winner->in_queue = false;
  // Track the winner's expected re-entry whether or not a batch is live:
  // the matching OnReady is the one queue change that keeps the
  // steady-state cycle "clean" (and a live batch valid).
  q.restore_pending = true;
  q.restore_slot = winner_slot;
  q.restore_weight = winner_weight;
  // The thread starts its next quantum: any compensation ticket expires
  // (Section 4.5). Its tickets stay active while it runs.
  Client* const client = &*winner->client;
  compensation_.OnQuantumStart(client);
  LOT_ASSERT(!client->has_compensation(),
             "quantum start left a live compensation factor on " +
                 client->name());
  if (timed) {
    const auto t2 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    tree_draw_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  return winner->id;
}

void LotteryScheduler::OnQuantumEnd(ThreadId id, SimDuration used,
                                    SimDuration quantum, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (compensation_.OnQuantumEnd(&*state.client, used, quantum)) {
    compensation_grants_->Inc();
  }
  LOT_DCHECK_COMPENSATION(*state.client, options_.compensation.max_factor);
}

void LotteryScheduler::SetTrace(etrace::TraceBuffer* trace) {
  options_.trace = trace;
  table_.SetTrace(trace);
}

Currency* LotteryScheduler::thread_currency(ThreadId id) {
  return StateOf(id).currency;
}

Client* LotteryScheduler::client(ThreadId id) {
  return &*StateOf(id).client;
}

Ticket* LotteryScheduler::FundThread(ThreadId id, Currency* denomination,
                                     int64_t amount,
                                     const std::string& principal) {
  ThreadState& state = StateOf(id);
  Ticket* ticket = table_.CreateTicket(denomination, amount, principal);
  table_.Fund(state.currency, ticket);
  LOT_DCHECK_TABLE(table_);
  return ticket;
}

Funding LotteryScheduler::ThreadValue(ThreadId id) {
  return StateOf(id).client->Value();
}

Funding LotteryScheduler::ThreadBaseValue(ThreadId id) {
  const ThreadState* state = FindState(id);
  if (state == nullptr) {
    return Funding::Zero();
  }
  const Client& client = *state->client;
  Funding value = client.Value();
  if (client.has_compensation()) {
    // Value() carries the compensation boost num/den; divide it back out.
    value = value.ScaleBy(client.compensation_den(), client.compensation_num());
  }
  return value;
}

bool LotteryScheduler::IsQueued(ThreadId id) const {
  const ThreadState* state = FindState(id);
  return state != nullptr && state->in_queue;
}

int LotteryScheduler::QueueOf(ThreadId id) const {
  const ThreadState* state = FindState(id);
  if (state == nullptr) {
    ThrowUnknownThread(id);
  }
  return static_cast<int>(state->queue);
}

size_t LotteryScheduler::QueuedCount(int queue) const {
  const RunQueue& q = queues_[static_cast<size_t>(queue)];
  util::SeqGuard guard(q.seq);
  return q.size();
}

uint64_t LotteryScheduler::RunnableTickets(int queue) {
  RunQueue& q = QueueAt(queue);
  util::SeqGuard guard(q.seq);
  SyncWeights(q);
  return q.total();
}

std::vector<std::pair<ThreadId, uint64_t>> LotteryScheduler::QueuedSnapshot(
    int queue) {
  RunQueue& q = QueueAt(queue);
  util::SeqGuard guard(q.seq);
  SyncWeights(q);
  std::vector<std::pair<ThreadId, uint64_t>> out;
  out.reserve(q.size());
  q.ForEachQueued([&out](const ThreadState& state, uint64_t weight) {
    out.emplace_back(state.id, weight);
  });
  return out;
}

void LotteryScheduler::CheckQueues() const {
  size_t members = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    members += QueuedCount(static_cast<int>(i));
  }
  // Each queued thread is a member of its home queue, and there are as
  // many queued threads as members, so no queue holds anyone else.
  size_t queued = 0;
  for (size_t id = 0; id < threads_.size(); ++id) {
    const ThreadState& state = threads_[id];
    if (state.id != id || !state.in_queue) {
      continue;
    }
    ++queued;
    const RunQueue& q = queues_[state.queue];
    util::SeqGuard guard(q.seq);
    if (state.slot >= q.slot_owner.size() ||
        q.slot_owner[state.slot] != &state) {
      throw std::logic_error("LotteryScheduler: queued thread " +
                             std::to_string(id) + " not in its home queue");
    }
  }
  if (queued != members) {
    throw std::logic_error("LotteryScheduler: " + std::to_string(members) +
                           " queue members but " + std::to_string(queued) +
                           " queued threads");
  }
}

}  // namespace lottery
