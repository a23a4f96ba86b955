// Clang thread-safety capability annotations + the Seq serialization domain.
//
// The simulator is single-real-threaded today, but the ROADMAP's next open
// item — per-CPU partitioned lotteries with ticket-weighted work stealing —
// turns several of its structures (run queues, per-CPU dispatch state,
// service waiter lists) into genuinely shared state. This header wires the
// lock discipline *before* the SMP refactor lands, in two layers:
//
//  1. The standard clang `-Wthread-safety` attribute macros (CAPABILITY,
//     GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, TRY_ACQUIRE, ...), expanding
//     to nothing on compilers without the attributes. SimMutex is
//     annotated as a capability so clang statically checks every caller's
//     acquire/release balance; lotlint rule L2 checks the annotations
//     themselves stay present.
//
//  2. `util::Seq` — a *serialization domain*: a compiler-checked capability
//     marking state that today is serialized by construction (the single
//     dispatch loop) and tomorrow must be protected by a real per-CPU lock.
//     Entering is free in Release; Debug builds assert non-reentrance, so
//     the "this state is only touched from one domain at a time" claim is
//     executable, not aspirational. When the SMP rebalancer lands, each Seq
//     becomes a real lock and every GUARDED_BY/REQUIRES already names the
//     state it must cover.
//
// Cross-slice ownership protocol (cooperative services): a SimMutex is held
// across scheduling slices — Acquire in one ThreadBody::Run call, Release
// several slices later — which no intraprocedural analysis can follow. The
// protocol makes the handoff explicit and runtime-checked:
//
//   if (!mutex->Acquire(ctx)) { ctx.Block(); return; }   // TRY_ACQUIRE
//   ...critical work this slice...
//   mutex->NoteHeldAcrossSlice(ctx.self());  // ends the static session;
//                                            // runtime-checks ownership
//   --- next slice ---
//   mutex->AssertHeld(ctx.self());           // re-establishes it (checked)
//   ...
//   mutex->Release(ctx);
//
// See DESIGN.md "Determinism contract v2" for the rule table.

#ifndef SRC_UTIL_THREAD_SAFETY_H_
#define SRC_UTIL_THREAD_SAFETY_H_

#include "src/util/invariant.h"

// ---------------------------------------------------------------------------
// Attribute macros (clang Thread Safety Analysis; no-ops elsewhere).
// Names follow the canonical mutex.h from the clang documentation so the
// annotations read the same here as in any other annotated codebase.
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define LOT_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define LOT_TS_ATTRIBUTE(x)  // no-op outside clang
#endif

#define CAPABILITY(x) LOT_TS_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY LOT_TS_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) LOT_TS_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) LOT_TS_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) LOT_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) LOT_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) LOT_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  LOT_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) LOT_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  LOT_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) LOT_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  LOT_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  LOT_TS_ATTRIBUTE(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) LOT_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  LOT_TS_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) LOT_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) LOT_TS_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  LOT_TS_ATTRIBUTE(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) LOT_TS_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS LOT_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace lottery {
namespace util {

// ---------------------------------------------------------------------------
// Seq: a serialization domain (see the file comment). Enter/Exit are the
// capability's acquire/release; SeqGuard is the RAII form every in-tree use
// goes through. Release builds carry no state and compile to nothing;
// Debug builds assert the domain is never entered twice — which is exactly
// the property the SMP refactor will replace with a real lock.
// ---------------------------------------------------------------------------

class CAPABILITY("seq") Seq {
 public:
  Seq() = default;
  Seq(const Seq&) = delete;
  Seq& operator=(const Seq&) = delete;

  void Enter() ACQUIRE() {
#if LOT_INVARIANTS_ENABLED
    LOT_ASSERT(!entered_,
               "Seq: serialization domain entered twice (reentrant path "
               "that the SMP refactor would deadlock or race on)");
    entered_ = true;
#endif
  }

  void Exit() RELEASE() {
#if LOT_INVARIANTS_ENABLED
    entered_ = false;
#endif
  }

 private:
#if LOT_INVARIANTS_ENABLED
  bool entered_ = false;
#endif
};

class SCOPED_CAPABILITY SeqGuard {
 public:
  explicit SeqGuard(Seq& seq) ACQUIRE(seq) : seq_(seq) { seq_.Enter(); }
  ~SeqGuard() RELEASE() { seq_.Exit(); }
  SeqGuard(const SeqGuard&) = delete;
  SeqGuard& operator=(const SeqGuard&) = delete;

 private:
  Seq& seq_;
};

}  // namespace util
}  // namespace lottery

#endif  // SRC_UTIL_THREAD_SAFETY_H_
