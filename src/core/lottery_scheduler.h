// LotteryScheduler: the paper's CPU scheduler, behind the generic
// sched::Scheduler interface.
//
// Structure mirrors the Mach prototype (Section 4): every thread gets its
// own currency plus a self ticket issued in it; experiments fund thread
// currencies with tickets denominated in user/task currencies, forming the
// currency graph of Figure 3. The run queue draws through the paper's
// list-based lottery (Figure 1) or its tree of partial ticket sums;
// compensation tickets are granted on under-consumed quanta and cleared
// when the thread next starts a quantum; blocked threads deactivate, which
// is what gives ticket transfers their semantics.
//
// The scheduler is one ticket economy (the currency table, compensation,
// and each thread's client, currency and self ticket) over one or more run
// queues. A plain scheduler has one; smp::SmpScheduler derives from this
// class with one queue per CPU, so transfers and inheritance cross CPUs.
//
// Both draw structures hold flat slot weights. The scheduler observes the
// currency table, keeps one dirty list per queue of the threads whose value
// may have changed, and re-pushes exactly those values before each draw
// (DESIGN.md "Incremental pricing"): one value sync for either backend.

#ifndef SRC_CORE_LOTTERY_SCHEDULER_H_
#define SRC_CORE_LOTTERY_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/client.h"
#include "src/core/compensation.h"
#include "src/core/currency.h"
#include "src/core/list_lottery.h"
#include "src/core/tree_lottery.h"
#include "src/obs/registry.h"
#include "src/sched/scheduler.h"
#include "src/util/arena.h"
#include "src/util/fastrand.h"
#include "src/util/thread_safety.h"

namespace lottery {

// How the run queue picks winners. kList is the prototype's list walk
// (Section 4.2, Figure 1), O(n) per draw; kTree is the same section's "tree
// of partial ticket sums", O(lg n) per draw. Both draw over the same synced
// client values, so only the draw structure differs.
enum class RunQueueBackend { kList, kTree };

class LotteryScheduler : public Scheduler, private ValueObserver {
 public:
  struct Options {
    uint32_t seed = 12345;
    RunQueueBackend backend = RunQueueBackend::kList;
    CompensationPolicy::Options compensation;
    // Tree backend: when >= 2 and the run queue has seen no ticket
    // mutations for a stretch of quanta, the scheduler speculatively draws
    // the next (batch_window - 1) winners in one value-sorted sweep and
    // serves them without a descent, flushing the batch the moment any
    // dirty bit or structural change lands. Winner sequence and RNG stream
    // are bit-identical to unbatched draws (draw_identity_test proves it);
    // 0 or 1 disables batching.
    uint32_t batch_window = 8;
    // List backend cap: the list's O(n) draw is ~280x the tree's at 10k
    // clients, so past this many threads homed on one run queue AddThread
    // throws. 0 disables the limit (benches that measure the list's scaling
    // curve opt out).
    size_t list_max_threads = 1024;
    // Metric sink; nullptr selects obs::Registry::Default(). Tests pass
    // their own registry for isolated counter assertions.
    obs::Registry* metrics = nullptr;
    // Structured-event trace (optional). The scheduler records kCatLottery
    // decision events (drawn random value, total tickets, winner) and — when
    // kCatLotterySnapshot is enabled — a per-candidate ticket snapshot ahead
    // of each decision, enough to re-derive every winner offline (tracectl
    // summarize / tests). The currency table shares the same buffer. The
    // RNG sequence is identical with or without tracing.
    etrace::TraceBuffer* trace = nullptr;
  };

  // Largest thread id AddThread accepts. Thread records sit in a table
  // indexed by id (the kernel hands ids out densely from 1), so an id sizes
  // the table; the cap turns a stray id into an error instead of gigabytes.
  static constexpr ThreadId kMaxThreadId = ThreadId{1} << 24;

  LotteryScheduler() : LotteryScheduler(Options{}) {}
  explicit LotteryScheduler(Options options);
  ~LotteryScheduler() override;

  // --- Scheduler interface -------------------------------------------------
  // Throws std::invalid_argument for kInvalidThreadId, an id above
  // kMaxThreadId, or an id already added (and not removed).
  void AddThread(ThreadId id, SimTime now) override;
  void RemoveThread(ThreadId id, SimTime now) override;
  void OnReady(ThreadId id, SimTime now) override;
  void OnBlocked(ThreadId id, SimTime now) override;
  ThreadId PickNext(SimTime now) override;
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override;
  std::string name() const override { return "lottery"; }
  LotteryScheduler* economy() override { return this; }

  // --- Funding API (the paper's user-level commands) -----------------------

  CurrencyTable& table() { return table_; }
  // The per-thread currency that transfers and funding tickets target.
  Currency* thread_currency(ThreadId id);
  Client* client(ThreadId id);

  // Issues a ticket of `amount` in `denomination` and funds the thread's
  // currency with it (the `fund` command). `principal` is checked against
  // the denomination's ACL. Returned ticket stays owned by the table; use
  // table().SetAmount for dynamic inflation, or table().DestroyTicket to
  // withdraw it.
  Ticket* FundThread(ThreadId id, Currency* denomination, int64_t amount,
                     const std::string& principal = "");

  // Current value of the thread in base units (0 if blocked).
  Funding ThreadValue(ThreadId id);

  // --- Timeseries sampling support (src/obs/timeseries/) -------------------

  // The thread's value with any compensation multiplier divided back out —
  // the base entitlement the fairness-lag auditor accrues against. Defined
  // whether or not the thread is queued (the sampler decides inclusion from
  // the kernel's runnable bit, which also covers the currently-running
  // thread the queue no longer holds). Zero for unknown threads.
  // Read-only: exact integer rescale, never touches the RNG or the queue.
  Funding ThreadBaseValue(ThreadId id);

  // --- Run-queue views (the SmpScheduler's balancer reads these) ----------
  // `queue` indexes the run queues; a plain scheduler has only queue 0.

  // True iff the thread is sitting in a run queue (ready, not dispatched).
  bool IsQueued(ThreadId id) const;
  // Number of queued (ready, undispatched) threads.
  size_t QueuedCount(int queue = 0) const;
  // Total runnable ticket value across the run queue, in raw Funding units.
  // Incremental: flushes only the clients the currency table marked dirty
  // since the last sync (the same pass a dispatch runs first).
  uint64_t RunnableTickets(int queue = 0);
  // (thread, raw value) of every queued thread, in draw order (the list's
  // order, or slot order for the tree): the candidate set for the
  // balancer's steal lottery. Syncs like RunnableTickets.
  std::vector<std::pair<ThreadId, uint64_t>> QueuedSnapshot(int queue = 0);

  // Queue 0's dispatch stream, which the kernel services' draws share.
  FastRand& rng() { return queues_[0].rng; }  // lotlint: stream(scheduler)
  const CompensationPolicy& compensation() const { return compensation_; }

  // Attaches (or detaches, with nullptr) the structured-event trace at
  // runtime — both the scheduler's own decision hooks and the currency
  // table's. Never perturbs the RNG sequence, so toggling between runs of
  // the same seed keeps the schedule identical (bench_obs_overhead A/Bs
  // tracing on one world this way).
  void SetTrace(etrace::TraceBuffer* trace);

  // --- Instrumentation ------------------------------------------------------
  uint64_t num_lotteries() const { return num_lotteries_; }
  // Draws decided by the zero-funding round-robin fallback.
  uint64_t num_zero_fallbacks() const { return num_zero_fallbacks_; }
  // The registry this scheduler's obs hooks write into.
  obs::Registry& metrics() { return *metrics_; }
  // Counts one ticket transfer against this scheduler (lottery.transfers).
  // Called by the kernel services (mutex, RPC) at each TicketTransfer they
  // create on behalf of a blocking thread.
  void NoteTransfer() { transfers_->Inc(); }

 protected:
  // One economy with one run queue per seed: queue i dispatches from its
  // own stream, seeded with queue_seeds[i] (`options.seed` is unused).
  LotteryScheduler(Options options, const std::vector<uint32_t>& queue_seeds);

  // AddThread with the thread homed on `queue` (AddThread homes on 0).
  void AddThreadOn(ThreadId id, int queue);
  // PickNext from one run queue.
  ThreadId PickFrom(int queue, SimTime now);
  // Moves a queued thread's slot to `queue`. The thread keeps its client,
  // currency, funding and compensation: only its run queue changes.
  void MoveQueued(ThreadId id, int queue);
  // The run queue the thread is homed on.
  int QueueOf(ThreadId id) const;
  // Every queue member is a queued thread homed there, and every queued
  // thread is a member of its home queue. Throws std::logic_error.
  void CheckQueues() const;
  etrace::TraceBuffer* trace() const { return options_.trace; }

 private:
  // The record at index i of threads_. It is live (thread i was added and
  // not removed) iff `id` == i; AddThread sets every field.
  struct ThreadState {
    ThreadId id = kInvalidThreadId;
    uint32_t queue = 0;  // home run queue
    bool in_queue = false;
    // Value changed since the last sync and not yet pushed into the draw
    // structure; listed in its queue's dirty list.
    bool dirty = false;
    size_t slot = 0;  // draw-structure slot, valid while in_queue
    Currency* currency = nullptr;
    Ticket* self_ticket = nullptr;
    // Engaged while live, stamped with the thread id: OnClientValueDirty
    // finds the record through Client::owner_index().
    std::optional<Client> client;
  };

  // One speculatively pre-drawn winner. pre_state/post_state bracket the
  // RNG stream the equivalent unbatched draw would have consumed: an entry
  // is served only when the queue's rng sits exactly at pre_state, and
  // serving it advances the rng to post_state — so external rng() consumers
  // (the kernel services draw from queue 0's stream) simply invalidate the
  // batch instead of observing a perturbed generator.
  struct BatchEntry {
    uint64_t value = 0;  // drawn random in [0, total)
    size_t slot = 0;     // pre-resolved winner slot
    uint32_t pre_state = 0;
    uint32_t post_state = 0;
  };

  // The per-CPU half of the scheduler: everything a dispatch touches that
  // is not the economy.
  struct RunQueue {
    FastRand rng;  // lotlint: stream(scheduler)
    // Serialization domain for the draw structure and its slot-to-owner
    // map: the state a real SMP kernel would put behind a per-queue lock.
    // PickFrom holds it for the whole pick; enqueue, dequeue and the queue
    // views enter it around their own accesses.
    mutable util::Seq seq;
    // The draw structure, chosen once from Options::backend; the other one
    // stays empty. Both hold flat slot weights under one contract, so the
    // slot operations below are the one place that tells them apart. The
    // list is built without move-to-front: the winner leaves the queue the
    // moment it is drawn, so rotating it to the front would be dead work.
    bool use_tree = false;
    ListLottery list GUARDED_BY(seq){/*move_to_front=*/false};
    TreeLottery tree GUARDED_BY(seq);
    // Slot -> owning thread state, nullptr for free slots. Slots are small
    // dense indices recycled by the draw structure, and records in the
    // chunked thread table never move, so a flat vector of pointers makes
    // winner resolution a single indexed load (a hash map here shows up at
    // 10k clients in bench_draw_overhead's churn rig).
    std::vector<ThreadState*> slot_owner GUARDED_BY(seq);
    // Threads homed here marked dirty since the last sync: a mark sets
    // ThreadState::dirty and appends, enqueueing clears the bit (the entry
    // stays, stale), and the sync skips unset bits and clear()s the vector
    // — O(marked). A hash set would cost O(largest set ever held) per
    // reset: clear() zeroes every bucket, and the arrival burst of a large
    // population grows the bucket array to the whole population.
    std::vector<ThreadState*> dirty;
    size_t homed = 0;  // threads homed here (the list_max_threads count)
    // Batching state (batches form under the tree only). The steady-state
    // dispatch cycle is pick (winner leaves the queue) -> quantum ->
    // OnReady (winner re-enters at the same recycled slot with the same
    // weight); restore_* tracks whether the queue has returned to the exact
    // state a live batch was formed against, and pick_clean whether
    // anything else moved between picks.
    std::vector<BatchEntry> batch;
    size_t batch_next = 0;
    uint32_t clean_streak = 0;
    bool pick_clean = true;
    bool restore_pending = false;
    size_t restore_slot = 0;
    uint64_t restore_weight = 0;

    bool HasLiveBatch() const { return batch_next < batch.size(); }

    // The draw structure's slot contract.
    size_t Add(uint64_t weight) REQUIRES(seq) {
      return use_tree ? tree.Add(weight) : list.Add(weight);
    }
    void Remove(size_t slot) REQUIRES(seq) {
      if (use_tree) {
        tree.Remove(slot);
      } else {
        list.Remove(slot);
      }
    }
    void SetWeight(size_t slot, uint64_t weight) REQUIRES(seq) {
      if (use_tree) {
        tree.SetWeight(slot, weight);
      } else {
        list.SetWeight(slot, weight);
      }
    }
    uint64_t Weight(size_t slot) const REQUIRES(seq) {
      return use_tree ? tree.Weight(slot) : list.Weight(slot);
    }
    uint64_t total() const REQUIRES(seq) {
      return use_tree ? tree.total() : list.total();
    }
    size_t size() const REQUIRES(seq) {
      return use_tree ? tree.size() : list.size();
    }
    std::optional<size_t> Draw(uint64_t* drawn_value) REQUIRES(seq) {
      return use_tree ? tree.Draw(rng, drawn_value)
                      : list.Draw(rng, drawn_value);
    }
    // Calls fn(state, weight) for each queued thread in draw order: the
    // list's order, or slot order for the tree (the prefix order its
    // descent resolves against).
    template <typename Fn>
    void ForEachQueued(Fn&& fn) const REQUIRES(seq) {
      if (use_tree) {
        for (ThreadState* state : slot_owner) {
          if (state != nullptr) {
            fn(*state, tree.Weight(state->slot));
          }
        }
      } else {
        const std::vector<ThreadState*>& owners = slot_owner;
        list.ForEach([&owners, &fn](size_t slot, uint64_t weight) {
          fn(*owners[slot], weight);
        });
      }
    }
  };

  // Consecutive mutation-free picks required before forming a batch, so
  // churn-heavy phases never pay speculative descents they'd just flush.
  static constexpr uint32_t kBatchStreakMin = 4;
  // Face amount of each thread's self ticket (its claim on its own
  // currency). Any positive value works — shares are relative.
  static constexpr int64_t kThreadTicketAmount = 1000;

  // The live record of thread `id`, or nullptr.
  const ThreadState* FindState(ThreadId id) const;
  ThreadState* FindState(ThreadId id) {
    return const_cast<ThreadState*>(std::as_const(*this).FindState(id));
  }
  // FindState, but throws std::invalid_argument for an unknown thread.
  ThreadState& StateOf(ThreadId id);
  RunQueue& QueueAt(int queue) { return queues_[static_cast<size_t>(queue)]; }
  // Enters / leaves the thread's home queue (in_queue must be clear / set).
  void Enqueue(ThreadState& state);
  void Dequeue(ThreadState& state);
  // Re-pushes into the draw structure the values of exactly the queued
  // threads the currency table reported dirty since the last sync, in
  // thread-id order: O(dirty) slot updates per dispatch instead of
  // repricing the whole queue. The tree falls back to one full resync
  // (tree.full_syncs) when more threads are marked than queued.
  void SyncWeights(RunQueue& q) REQUIRES(q.seq);

  // Speculative batching (tree backend only).
  void FlushBatch(RunQueue& q);
  // Any run-queue perturbation: flush the batch and break the clean streak.
  // Fires reentrantly (via OnClientValueDirty) from inside guarded scopes,
  // so the batch/streak state is deliberately outside the queue's seq.
  void NoteDisturbance(RunQueue& q) {
    q.pick_clean = false;
    q.clean_streak = 0;
    if (q.HasLiveBatch()) {
      FlushBatch(q);
    }
  }
  void FormBatch(RunQueue& q, uint64_t total) REQUIRES(q.seq);

  // ValueObserver: marks the client's thread dirty on its home queue.
  void OnClientValueDirty(Client* client) override;

  Options options_;
  CurrencyTable table_;
  CompensationPolicy compensation_;
  // Sized once at construction (RunQueue is not movable).
  std::vector<RunQueue> queues_;
  // Thread records indexed by thread id; records never move, so the run
  // queues' slot_owner and dirty lists point into it.
  util::ChunkedVector<ThreadState> threads_;
  uint64_t num_lotteries_ = 0;
  uint64_t num_zero_fallbacks_ = 0;
  uint64_t timing_tick_ = 0;
  // Scratch for FormBatch (avoids per-batch allocations).
  std::vector<uint64_t> batch_values_;
  std::vector<size_t> batch_slots_;

  // Obs hooks (resolved once; raw pointers into metrics_).
  obs::Registry* metrics_;
  obs::Counter* draws_;
  obs::Counter* zero_fallbacks_;
  obs::Counter* compensation_grants_;
  obs::Counter* transfers_;
  obs::Counter* leaf_updates_;
  obs::Counter* full_syncs_;
  obs::Counter* batch_formed_;
  obs::Counter* batch_draws_;
  obs::Counter* batch_flushes_;
  obs::LatencyHistogram* draw_cost_;
  // Wall-clock split of a tree dispatch: weight sync vs the draw itself
  // (sampled 1-in-16 dispatches; see bench_smp / bench_draw_overhead).
  obs::LatencyHistogram* sync_ns_;
  obs::LatencyHistogram* tree_draw_ns_;
};

}  // namespace lottery

#endif  // SRC_CORE_LOTTERY_SCHEDULER_H_
