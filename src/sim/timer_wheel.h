// Exact-time timer wheel for the engine's future events.
//
// A monotone priority queue over events keyed by (t, seq): every push must
// carry t >= now(), where now() is the t of the last event popped. Events
// due within the horizon (t - now() < kSlots ns) go to a wheel with one FIFO
// slot per simulated nanosecond; the rest go to a DAryHeap far tier. The
// engine's future events are mostly cost-model delays of tens to hundreds of
// nanoseconds, so almost every push and pop is a slot append or unlink plus
// a few bit operations instead of a heap sift of unpredictable compares.
//
// Extraction order equals a single heap's, by construction:
//  * Every wheel event has t in [now(), now() + kSlots): pushes are routed
//    that way, and a pop only advances now() to the global minimum t. Those
//    kSlots timestamps are distinct mod kSlots, so a slot holds a single
//    timestamp at any moment, and scanning slots from now() mod kSlots with
//    wrap-around visits them in time order.
//  * Within a slot, events are kept in push order. The caller pushes equal-t
//    events in Less order (the engine's seq is globally increasing), so a
//    slot's head is its (t, seq) minimum.
//  * Events are never moved between tiers. A far event whose t has come
//    within the horizon stays in the heap, so one timestamp can be split
//    across both tiers; each pop compares the wheel's first event with the
//    heap's top under Less, which settles it.
//
// The slot array is 4096 x 8 B = 32 KB and is touched at construction; the
// node pool grows to the largest number of events the wheel has held.
#ifndef MAGESIM_SIM_TIMER_WHEEL_H_
#define MAGESIM_SIM_TIMER_WHEEL_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/event_heap.h"
#include "src/sim/hot_path.h"
#include "src/sim/time.h"

namespace magesim {

// T needs a SimTime member `t`; Less(a, b) means a is popped before b and
// must be a strict total order that agrees with push order on equal t.
template <typename T, typename Less>
class TimerWheel {
 public:
  static constexpr uint64_t kSlots = uint64_t{1} << 12;  // horizon, in ns

  TimerWheel() : slots_(kSlots) {}

  void reserve(size_t n) {
    nodes_.reserve(n);
    far_.reserve(n);
  }
  bool empty() const { return summary_ == 0 && far_.empty(); }
  // The t of the last event popped (0 before the first pop).
  SimTime now() const { return now_; }

  MAGESIM_HOT_PATH void push(const T& x) { emplace(x.t, x); }

  // Pushes T{t, rest...}. The fields are stored straight into the wheel
  // node: an event built on the caller's stack and copied in would be
  // written with narrow stores and read back with wide loads, a pattern
  // store-to-load forwarding cannot serve.
  template <typename... Rest>
  MAGESIM_HOT_PATH void emplace(SimTime t, const Rest&... rest) {
    assert(t >= now_);
    if (static_cast<uint64_t>(t - now_) >= kSlots) {
      far_.push(Make(t, rest...));
      return;
    }
    uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n].v = Make(t, rest...);
    } else {
      n = static_cast<uint32_t>(nodes_.size());
      // magesim-lint: allow(hotpath-alloc): reserve()d at engine start; the
      // pool only grows past the wheel's high-water mark, then recycles.
      nodes_.push_back(Node{Make(t, rest...), kNil});
    }
    nodes_[n].next = kNil;
    const uint64_t s = SlotOf(t);
    Slot& slot = slots_[s];
    if (slot.head == kNil) {
      slot.head = n;
      busy_[s >> 6] |= uint64_t{1} << (s & 63);
      summary_ |= uint64_t{1} << (s >> 6);
    } else {
      nodes_[slot.tail].next = n;
    }
    slot.tail = n;
  }

  // True when an event is due at now(). Only such an event can precede one
  // that the caller schedules at now() itself, once now() has been reached.
  bool due_now() const {
    const uint64_t s = SlotOf(now_);
    return ((busy_[s >> 6] >> (s & 63)) & 1) != 0 || (!far_.empty() && far_.top().t == now_);
  }

  // Moves the (t, seq)-smallest event into *out and advances now() to its
  // t; returns false when there is none.
  MAGESIM_HOT_PATH bool pop(T* out) {
    const uint64_t s = FirstBusySlot();
    if (s == kNoSlot || (!far_.empty() && less_(far_.top(), Head(s)))) {
      if (far_.empty()) return false;
      *out = far_.top();
      far_.pop();
    } else {
      Unlink(s, out);
    }
    assert(out->t >= now_);
    now_ = out->t;
    return true;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint64_t kNoSlot = UINT64_MAX;  // no busy slot
  static constexpr uint64_t kWords = kSlots / 64;
  static_assert(kWords <= 64, "one summary word covers every bitmap word");

  struct Node {
    T v;
    uint32_t next;
  };
  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  // push(x) passes x itself; emplace(t, fields...) builds T{t, fields...}.
  static const T& Make(SimTime, const T& x) { return x; }
  template <typename... Rest>
  static T Make(SimTime t, const Rest&... rest) {
    return T{t, rest...};
  }

  static uint64_t SlotOf(SimTime t) { return static_cast<uint64_t>(t) & (kSlots - 1); }

  // The busy slot holding the earliest wheel timestamp, or kNoSlot: the first
  // busy slot at or after now()'s, else the first one before it (wrapped).
  uint64_t FirstBusySlot() const {
    if (summary_ == 0) return kNoSlot;
    const uint64_t c = SlotOf(now_);
    const uint64_t w = c >> 6;
    const uint64_t here = busy_[w] & (~uint64_t{0} << (c & 63));
    if (here != 0) return (w << 6) | std::countr_zero(here);
    const uint64_t later = summary_ & (~uint64_t{1} << w);
    const uint64_t w2 = std::countr_zero(later != 0 ? later : summary_);
    return (w2 << 6) | std::countr_zero(busy_[w2]);
  }

  const T& Head(uint64_t s) const { return nodes_[slots_[s].head].v; }

  void Unlink(uint64_t s, T* out) {
    Slot& slot = slots_[s];
    const uint32_t n = slot.head;
    *out = nodes_[n].v;
    slot.head = nodes_[n].next;
    if (slot.head == kNil) {
      busy_[s >> 6] &= ~(uint64_t{1} << (s & 63));
      if (busy_[s >> 6] == 0) summary_ &= ~(uint64_t{1} << (s >> 6));
    }
    nodes_[n].next = free_;
    free_ = n;
  }

  std::vector<Slot> slots_;  // FIFO of nodes; head == kNil when empty
  std::vector<Node> nodes_;
  uint32_t free_ = kNil;  // LIFO free list threaded through Node::next
  std::array<uint64_t, kWords> busy_{};
  uint64_t summary_ = 0;  // bit w set iff busy_[w] != 0
  SimTime now_ = 0;
  DAryHeap<T, Less> far_;
  Less less_;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_TIMER_WHEEL_H_
