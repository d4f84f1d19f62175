// Discrete-event simulation core.
//
// The NoC, runtime and reliability layers are event-driven: components
// schedule callbacks at future simulated times and the EventQueue executes
// them in timestamp order. Ties are broken by insertion order so simulations
// are fully deterministic.
//
// Two scheduling flavours share one (when, sequence) ordering:
//   ScheduleAt/ScheduleAfter   capture arbitrary state in a std::function —
//                              convenient, but each event may heap-allocate.
//                              The dataflow executor and tests (the
//                              reference mesh among them) use it.
//   ScheduleTagAt/TagAfter     allocation-free: the event stores only a
//                              TagHandler* and an opaque 64-bit tag, and the
//                              handler decodes the tag on dispatch. This is
//                              the packet-granular NoC hot path; noc::MeshNoc
//                              and arch::Fabric (its stream hops) schedule
//                              nothing else, and fabric::FabricCoSim
//                              schedules nothing but mesh traffic.
// Because both flavours draw from the same sequence counter, a simulation
// that mixes them (or is ported from one to the other call-for-call) keeps
// the exact same execution order.
//
// Layout: heap entries are 32-byte trivially-copyable records — callbacks
// live in a recycled side pool, referenced by slot — so sift operations are
// straight-line copies with four entries per cache line. Pushes that are
// >= every pending entry (tracked by a conservative monotone bound, reset
// whenever the heap drains) append in O(1) without sifting: a burst of
// same-timestamp injections into a drained queue — the NoC's steady state —
// costs one append per event.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.h"

namespace cim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Allocation-free event target. The handler must outlive every event
  // scheduled against it (and must not move, since the queue stores the raw
  // pointer — the same lifetime rule as `this` captures in ScheduleAt).
  class TagHandler {
   public:
    virtual void OnTagEvent(std::uint64_t tag) = 0;

   protected:
    ~TagHandler() = default;
  };

  // Schedule `fn` to run at absolute simulated time `when`. Events scheduled
  // in the past run at the current time (never before it).
  void ScheduleAt(TimeNs when, Callback fn) {
    Push(when, nullptr, AllocCallback(std::move(fn)));
  }

  void ScheduleAfter(TimeNs delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Tagged scheduling: no closure is built; `handler->OnTagEvent(tag)` runs
  // at `when` under the same (when, sequence) ordering as ScheduleAt.
  void ScheduleTagAt(TimeNs when, TagHandler* handler, std::uint64_t tag) {
    Push(when, handler, tag);
  }

  void ScheduleTagAfter(TimeNs delay, TagHandler* handler, std::uint64_t tag) {
    ScheduleTagAt(now_ + delay, handler, tag);
  }

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  // Run a single event; returns false when the queue is empty.
  bool Step() {
    if (heap_.empty()) return false;
    const Event ev = PopTop();
    now_ = ev.when;
    if (ev.handler != nullptr) {
      ev.handler->OnTagEvent(ev.tag);
    } else {
      const auto slot = static_cast<std::uint32_t>(ev.tag);
      Callback fn = std::move(callbacks_[slot]);
      callbacks_[slot] = Callback{};  // release captured state eagerly
      callback_free_.push_back(slot);
      fn();
    }
    return true;
  }

  // Run until the queue drains or `max_events` have run. Returns the number
  // of events executed. max_events guards against livelock in tests.
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t executed = 0;
    while (executed < max_events && Step()) ++executed;
    return executed;
  }

  // Run events with timestamps <= deadline; the clock lands exactly on the
  // deadline afterwards (so idle periods advance time too).
  std::uint64_t RunUntil(TimeNs deadline) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= deadline) {
      Step();
      ++executed;
    }
    if (now_ < deadline) now_ = deadline;
    return executed;
  }

 private:
  // Trivially copyable so sifts are plain copies. Tagged dispatch when
  // handler != nullptr; otherwise tag is a callbacks_ slot index.
  struct Event {
    TimeNs when{0.0};
    std::uint64_t sequence = 0;
    TagHandler* handler = nullptr;
    std::uint64_t tag = 0;
  };

  [[nodiscard]] static bool Before(const Event& a, const Event& b) {
    if (a.when.ns != b.when.ns) return a.when.ns < b.when.ns;
    return a.sequence < b.sequence;
  }

  std::uint32_t AllocCallback(Callback fn) {
    if (!callback_free_.empty()) {
      const std::uint32_t slot = callback_free_.back();
      callback_free_.pop_back();
      callbacks_[slot] = std::move(fn);
      return slot;
    }
    callbacks_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(callbacks_.size() - 1);
  }

  // Explicit binary min-heap over a vector (std::priority_queue hides the
  // container, which rules out cheap front() peeks and the monotone-append
  // fast path). Sifts use hole insertion: the moving event is copied out
  // once and parents/children shift into the hole.
  void SiftUp(std::size_t i) {
    const Event ev = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Before(ev, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = heap_.size();
    const Event ev = heap_[i];
    for (;;) {
      std::size_t smallest = i;
      const std::size_t left = 2 * i + 1;
      const std::size_t right = 2 * i + 2;
      const Event* best = &ev;
      if (left < n && Before(heap_[left], *best)) {
        smallest = left;
        best = &heap_[left];
      }
      if (right < n && Before(heap_[right], *best)) {
        smallest = right;
      }
      if (smallest == i) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = ev;
  }

  void Push(TimeNs when, TagHandler* handler, std::uint64_t tag) {
    if (when < now_) when = now_;
    const Event ev{when, next_sequence_++, handler, tag};
    if (heap_.empty()) has_bound_ = false;
    if (!has_bound_ || !Before(ev, bound_)) {
      // ev is >= the conservative maximum of every pending entry, so it is
      // >= its parent wherever it lands: append without sifting. The bound
      // only ever grows while entries are pending (pops never lower it),
      // which keeps the comparison safe even after the true max is popped.
      heap_.push_back(ev);
      bound_ = ev;
      has_bound_ = true;
      return;
    }
    heap_.push_back(ev);
    SiftUp(heap_.size() - 1);
  }

  Event PopTop() {
    const Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

  std::vector<Event> heap_;
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> callback_free_;
  TimeNs now_{0.0};
  std::uint64_t next_sequence_ = 0;
  Event bound_{};  // conservative max of pending entries; see Push
  bool has_bound_ = false;
};

}  // namespace cim
