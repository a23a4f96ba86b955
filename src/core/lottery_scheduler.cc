#include "src/core/lottery_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "src/core/invariants.h"
#include "src/obs/etrace/trace_buffer.h"

namespace lottery {

LotteryScheduler::LotteryScheduler(Options options)
    : options_(options),
      rng_(options.seed),
      table_(options.metrics, options.trace),
      compensation_(options.compensation),
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
  if (options_.backend != RunQueueBackend::kList) {
    // The list backend needs no scheduler-side tracking: run_queue_ itself
    // observes the table for its cached total.
    table_.AddObserver(this);
  }
}

LotteryScheduler::~LotteryScheduler() {
  table_.RemoveObserver(this);  // no-op under the list backend
}

void LotteryScheduler::OnClientValueDirty(Client* client) {
  // Marks raised while RemoveThread tears a client down find no thread: the
  // dying thread's entry is already gone.
  const auto it = by_client_.find(client);
  if (it != by_client_.end() && !it->second->dirty) {
    it->second->dirty = true;
    dirty_threads_.push_back(it->second);
  }
  NoteDisturbance();
}

// --- Speculative batching ---------------------------------------------------

void LotteryScheduler::FlushBatch() {
  if (HasLiveBatch()) {
    batch_flushes_->Inc();
  }
  batch_.clear();
  batch_next_ = 0;
  restore_pending_ = false;
}

void LotteryScheduler::NoteDisturbance() {
  pick_clean_ = false;
  clean_streak_ = 0;
  if (HasLiveBatch()) {
    FlushBatch();
  }
}

void LotteryScheduler::FormBatch(uint64_t total) {
  const size_t k = options_.batch_window - 1;
  batch_values_.resize(k);
  batch_slots_.resize(k);
  batch_.resize(k);
  // Draw the next k randoms from a copy of the generator: rng_ itself stays
  // untouched until each entry is actually served, so a flushed batch
  // leaves no trace in the stream.
  FastRand spec = rng_;  // lotlint: stream(scheduler)
  for (size_t i = 0; i < k; ++i) {
    batch_[i].pre_state = spec.state();
    batch_values_[i] = spec.NextBelow64(total);
    batch_[i].post_state = spec.state();
  }
  tree_queue_.ResolveValues(k, batch_values_.data(), batch_slots_.data());
  for (size_t i = 0; i < k; ++i) {
    batch_[i].value = batch_values_[i];
    batch_[i].slot = batch_slots_[i];
  }
  batch_next_ = 0;
  batch_formed_->Inc();
}

LotteryScheduler::ThreadState& LotteryScheduler::StateOf(ThreadId id) {
  const auto it = threads_.find(id);
  if (it == threads_.end()) {
    throw std::invalid_argument("LotteryScheduler: unknown thread " +
                                std::to_string(id));
  }
  return it->second;
}

void LotteryScheduler::AddThread(ThreadId id, SimTime /*now*/) {
  if (threads_.count(id) > 0) {
    throw std::invalid_argument("LotteryScheduler::AddThread: duplicate id");
  }
  if (options_.backend == RunQueueBackend::kList &&
      options_.list_max_threads != 0 &&
      threads_.size() >= options_.list_max_threads) {
    // The list's O(n) draw is ~280x the tree's at 10k clients
    // (bench_draw_overhead baselines); past the threshold it is a
    // misconfiguration, not a trade-off.
    throw std::length_error(
        "LotteryScheduler: list backend past list_max_threads=" +
        std::to_string(options_.list_max_threads) +
        " clients; use RunQueueBackend::kTree (or set list_max_threads=0)");
  }
  ThreadState state;
  state.id = id;
  const std::string tag = "thread:" + std::to_string(id);
  state.currency = table_.CreateCurrency(tag);
  state.client = std::make_unique<Client>(&table_, tag);
  ThreadState& stored = threads_.emplace(id, std::move(state)).first->second;
  // Registered before the client takes its self ticket, so the dirty mark
  // HoldTicket raises finds the thread.
  by_client_[stored.client.get()] = &stored;
  stored.self_ticket =
      table_.CreateTicket(stored.currency, kThreadTicketAmount);
  stored.client->HoldTicket(stored.self_ticket);
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::RemoveThread(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Remove(state.client.get());
    } else {
      util::SeqGuard guard(queue_seq_);
      tree_queue_.Remove(state.tree_slot);
      tree_slot_owner_[state.tree_slot] = nullptr;
      NoteDisturbance();
    }
  }
  state.client->SetActive(false);
  // From here on the client's marks find no thread, so this drops its last
  // dirty_threads_ entries (stale ones included) before state dies.
  by_client_.erase(state.client.get());
  std::erase(dirty_threads_, &state);
  table_.DestroyTicket(state.self_ticket);
  state.client.reset();
  // Destroys the thread currency and all tickets funding it. A thread that
  // dies with in-flight transfers (a crashed RPC client whose call is still
  // queued) leaves tickets issued in this currency in others' hands; the
  // currency is then retired — worth zero, reclaimed with its last issued
  // ticket — instead of destroyed outright.
  table_.RetireCurrency(state.currency);
  threads_.erase(id);
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::OnReady(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  state.client->SetActive(true);
  if (!state.in_queue) {
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Add(state.client.get());
    } else {
      util::SeqGuard guard(queue_seq_);
      const uint64_t weight = state.client->Value().raw_unsigned();
      state.tree_slot = tree_queue_.Add(weight);
      if (state.tree_slot >= tree_slot_owner_.size()) {
        tree_slot_owner_.resize(state.tree_slot + 1, nullptr);
      }
      tree_slot_owner_[state.tree_slot] = &state;
      // The slot was seeded with the current value; any pending dirty mark
      // (e.g. from the unblock activation above) is already folded in. Its
      // dirty_threads_ entry stays behind, stale, until the next sync.
      state.dirty = false;
      if (restore_pending_ && state.tree_slot == restore_slot_ &&
          weight == restore_weight_) {
        // The previous winner re-entered at its old slot with its old
        // weight: the queue is back to the state any live batch was formed
        // against, and the steady-state cycle stays "clean".
        restore_pending_ = false;
      } else {
        NoteDisturbance();
      }
    }
    state.in_queue = true;
  }
  LOT_ASSERT(state.in_queue && state.client->active(),
             "OnReady left thread " + std::to_string(id) + " not competing");
}

void LotteryScheduler::OnBlocked(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Remove(state.client.get());
    } else {
      util::SeqGuard guard(queue_seq_);
      tree_queue_.Remove(state.tree_slot);
      tree_slot_owner_[state.tree_slot] = nullptr;
      NoteDisturbance();
    }
    state.in_queue = false;
  }
  state.client->SetActive(false);
  LOT_ASSERT(!state.in_queue && !state.client->active(),
             "OnBlocked left thread " + std::to_string(id) + " competing");
}

void LotteryScheduler::SyncTreeWeights() {
  if (dirty_threads_.empty()) {
    return;
  }
  // Compact to the threads still marked, each once: an entry whose bit is
  // clear was folded in by OnReady or repeats an earlier entry.
  size_t marked = 0;
  for (ThreadState* state : dirty_threads_) {
    if (state->dirty) {
      state->dirty = false;
      dirty_threads_[marked++] = state;
    }
  }
  dirty_threads_.resize(marked);
  if (marked > tree_queue_.size()) {
    // More dirty threads than queued slots: one bulk pass is cheaper than
    // per-client updates (and covers the first sync after mass arrivals).
    full_syncs_->Inc();
    for (ThreadState* state : tree_slot_owner_) {
      if (state == nullptr) {
        continue;
      }
      tree_queue_.SetWeight(state->tree_slot,
                            state->client->Value().raw_unsigned());
    }
  } else {
    // Threads not competing get a fresh weight from OnReady later. The
    // weights are an order-independent fold, but client->Value() emits
    // kReprice trace events on cache fills, so the survivors flush in
    // thread-id order: the trace then does not depend on the order the
    // marks arrived in.
    std::erase_if(dirty_threads_,
                  [](const ThreadState* state) { return !state->in_queue; });
    std::sort(dirty_threads_.begin(), dirty_threads_.end(),
              [](const ThreadState* a, const ThreadState* b) {
                return a->id < b->id;
              });
    for (ThreadState* state : dirty_threads_) {
      tree_queue_.SetWeight(state->tree_slot,
                            state->client->Value().raw_unsigned());
      leaf_updates_->Inc();
    }
  }
  dirty_threads_.clear();
}

ThreadId LotteryScheduler::PickNextFromTree() {
  util::SeqGuard guard(queue_seq_);
  if (tree_queue_.empty()) {
    return kInvalidThreadId;
  }
  ++num_lotteries_;
  draws_->Inc();
  // Advance the clean-streak gate: a pick with no disturbance since the
  // previous one extends the streak that arms speculative batching.
  if (pick_clean_) {
    ++clean_streak_;
  } else {
    clean_streak_ = 0;
    pick_clean_ = true;
  }
  // Sample the wall-clock sync/draw split on the histogram cadence; the
  // clock reads would otherwise dominate a tree dispatch.
  const bool timed = obs::kObsEnabled && (timing_tick_++ % 16 == 0);
  std::chrono::steady_clock::time_point t0;  // lotlint: wallclock-ok
  if (timed) {
    t0 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
  }
  SyncTreeWeights();
#if LOT_INVARIANTS_ENABLED
  // Sampled O(n) sweep: the partial-sum total must equal the sum of the
  // live slots' weights, or incremental SetWeight updates have drifted.
  if (timing_tick_ % 64 == 1) {
    uint64_t weight_sum = 0;
    for (ThreadState* s : tree_slot_owner_) {
      if (s != nullptr) {
        weight_sum += tree_queue_.Weight(s->tree_slot);
      }
    }
    LOT_ASSERT(weight_sum == tree_queue_.total(),
               "tree lottery: partial sums out of sync with slot weights");
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
  // them, in slot order — the prefix order SlotForValue resolves against,
  // so each winner is re-derivable from (snapshot, random value).
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    for (size_t slot = 0; slot < tree_slot_owner_.size(); ++slot) {
      ThreadState* state = tree_slot_owner_[slot];
      if (state == nullptr) {
        continue;
      }
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = state->id;
      e.b = index++;
      e.v1 = tree_queue_.Weight(slot);
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    }
  }
  ThreadState* winner = nullptr;
  uint64_t drawn_value = 0;
  std::optional<size_t> drawn;
  bool batched = false;
  if (HasLiveBatch()) {
    const BatchEntry& entry = batch_[batch_next_];
    if (!restore_pending_ && rng_.state() == entry.pre_state) {
      // Serve the pre-resolved winner: identical value, winner and RNG
      // stream to the descent this replaces.
      drawn_value = entry.value;
      drawn = entry.slot;
      rng_.SetState(entry.post_state);
      batched = true;
      ++batch_next_;
      batch_draws_->Inc();
    } else {
      // The queue never returned to the formation state (winner came
      // back changed) or someone else drew from rng_ in between.
      FlushBatch();
    }
  }
  if (!batched) {
    drawn = tree_queue_.Draw(rng_, &drawn_value);
  }
  draw_cost_->RecordSampled(batched ? 1 : tree_queue_.draw_depth());
  if (drawn.has_value()) {
    winner = tree_slot_owner_[*drawn];
  } else {
    // All ready clients have zero funding; pick arbitrarily so no one
    // starves (uniform over the zero-funded set across draws).
    size_t index = static_cast<size_t>(
        rng_.NextBelow(static_cast<uint32_t>(tree_queue_.size())));
    drawn_value = index;  // decision event: index into live slots
    for (ThreadState* state : tree_slot_owner_) {
      if (state == nullptr) {
        continue;
      }
      if (index-- == 0) {
        winner = state;
        break;
      }
    }
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  LOT_ASSERT(winner != nullptr, "tree draw returned no winner");
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.a = winner->id;
    e.v1 = drawn_value;
    e.v2 = tree_queue_.total();
    e.v3 = tree_queue_.Weight(winner->tree_slot);
    uint16_t flags = etrace::kDecisionTree;
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
  // unchanged, and any deviation (tracked via restore_pending_ / dirty
  // marks) flushes the entries unserved.
  if (options_.batch_window >= 2 && !HasLiveBatch() &&
      clean_streak_ >= kBatchStreakMin && drawn.has_value()) {
    FormBatch(tree_queue_.total());
  }
  const uint64_t removed_weight = tree_queue_.Weight(winner->tree_slot);
  tree_queue_.Remove(winner->tree_slot);
  tree_slot_owner_[winner->tree_slot] = nullptr;
  winner->in_queue = false;
  // Track the winner's expected re-entry whether or not a batch is live:
  // the matching OnReady is the one queue change that keeps the
  // steady-state cycle "clean" (and a live batch valid).
  restore_pending_ = true;
  restore_slot_ = winner->tree_slot;
  restore_weight_ = removed_weight;
  compensation_.OnQuantumStart(winner->client.get());
  if (timed) {
    const auto t2 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    tree_draw_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  return winner->id;
}

ThreadId LotteryScheduler::PickNext(SimTime now) {
  // Advance the trace's sim-time cursor: everything recorded from here to
  // the dispatch (decisions, reprices, transfer churn) stamps this instant.
  etrace::SetNow(options_.trace, now.nanos());
  if (options_.backend != RunQueueBackend::kList) {
    return PickNextFromTree();
  }
  if (run_queue_.empty()) {
    return kInvalidThreadId;
  }
  ++num_lotteries_;
  draws_->Inc();
  // Candidate snapshot (verbose, opt-in) in list order, captured before the
  // draw's move-to-front mutates it: the winner is the first candidate
  // whose running value sum exceeds the drawn random value.
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    for (Client* candidate : run_queue_.raw_order()) {
      if (candidate == nullptr) {
        continue;
      }
      const auto cit = by_client_.find(candidate);
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = cit != by_client_.end() ? cit->second->id : kInvalidThreadId;
      e.b = index++;
      e.v1 = candidate->Value().raw_unsigned();
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    }
  }
  const uint64_t scanned_before = run_queue_.total_scanned();
  uint64_t drawn_value = 0;
  Client* winner = run_queue_.Draw(rng_, &drawn_value);
  draw_cost_->RecordSampled(run_queue_.total_scanned() - scanned_before);
  bool fallback = false;
  if (winner == nullptr) {
    // Every ready client currently has zero funding (e.g. all their backing
    // is deactivated). Degrade to round-robin so no one starves: take the
    // front; the requeue path appends, rotating the list.
    winner = run_queue_.Front();
    fallback = true;
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  // Total/value reads below are cache hits (the draw just refreshed them);
  // capture before Remove() deducts the winner from the cached total.
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.v1 = drawn_value;
    e.v2 = run_queue_.Total().raw_unsigned();
    e.v3 = winner->Value().raw_unsigned();
    e.flags = fallback ? etrace::kDecisionFallback : uint16_t{0};
    e.type = static_cast<uint16_t>(etrace::EventType::kDecision);
    const auto wit = by_client_.find(winner);
    e.a = wit != by_client_.end() ? wit->second->id : kInvalidThreadId;
    options_.trace->Append(e);
  }
  run_queue_.Remove(winner);
  const auto it = by_client_.find(winner);
  if (it == by_client_.end()) {
    throw std::logic_error("LotteryScheduler::PickNext: orphan client");
  }
  ThreadState& state = *it->second;
  state.in_queue = false;
  // The thread starts its next quantum: any compensation ticket expires
  // (Section 4.5). Its tickets stay active while it runs.
  compensation_.OnQuantumStart(winner);
  LOT_ASSERT(!winner->has_compensation(),
             "quantum start left a live compensation factor on " +
                 winner->name());
  return state.id;
}

void LotteryScheduler::OnQuantumEnd(ThreadId id, SimDuration used,
                                    SimDuration quantum, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (compensation_.OnQuantumEnd(state.client.get(), used, quantum)) {
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
  return StateOf(id).client.get();
}

Ticket* LotteryScheduler::FundThread(ThreadId id, Currency* denomination,
                                     int64_t amount,
                                     const std::string& principal) {
  ThreadState& state = StateOf(id);
  Ticket* ticket = table_.CreateTicket(denomination, amount, principal);
  table_.Fund(state.currency, ticket);
  LOT_DCHECK_TICKET_CONSERVATION(table_);
  return ticket;
}

Funding LotteryScheduler::ThreadValue(ThreadId id) {
  return StateOf(id).client->Value();
}

Funding LotteryScheduler::ThreadBaseValue(ThreadId id) {
  const auto it = threads_.find(id);
  if (it == threads_.end()) {
    return Funding::Zero();
  }
  const Client& client = *it->second.client;
  Funding value = client.Value();
  if (client.has_compensation()) {
    // Value() carries the compensation boost num/den; divide it back out.
    value = value.ScaleBy(client.compensation_den(), client.compensation_num());
  }
  return value;
}

bool LotteryScheduler::HasThread(ThreadId id) const {
  return threads_.find(id) != threads_.end();
}

bool LotteryScheduler::IsQueued(ThreadId id) const {
  const auto it = threads_.find(id);
  return it != threads_.end() && it->second.in_queue;
}

size_t LotteryScheduler::QueuedCount() const {
  if (options_.backend == RunQueueBackend::kList) {
    return run_queue_.size();
  }
  util::SeqGuard guard(queue_seq_);
  return tree_queue_.size();
}

uint64_t LotteryScheduler::RunnableTickets() {
  if (options_.backend == RunQueueBackend::kList) {
    return run_queue_.Total().raw_unsigned();
  }
  util::SeqGuard guard(queue_seq_);
  SyncTreeWeights();
  return tree_queue_.total();
}

std::vector<std::pair<ThreadId, uint64_t>> LotteryScheduler::QueuedSnapshot() {
  std::vector<std::pair<ThreadId, uint64_t>> out;
  if (options_.backend == RunQueueBackend::kList) {
    for (Client* client : run_queue_.ClientsInOrder()) {
      const auto it = by_client_.find(client);
      if (it == by_client_.end()) {
        continue;
      }
      out.emplace_back(it->second->id, client->Value().raw_unsigned());
    }
    return out;
  }
  util::SeqGuard guard(queue_seq_);
  SyncTreeWeights();
  out.reserve(tree_queue_.size());
  // Slot order: small dense indices, stable between structural changes.
  for (ThreadState* state : tree_slot_owner_) {
    if (state == nullptr) {
      continue;
    }
    out.emplace_back(state->id, tree_queue_.Weight(state->tree_slot));
  }
  return out;
}

}  // namespace lottery
