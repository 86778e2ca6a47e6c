//===--- RingQueue.h - Growable power-of-two ring FIFO ----------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A double-ended FIFO over one contiguous power-of-two buffer. It is the
/// queue of the per-machine structures a fleet holds ten thousand of (the
/// ready queue, a serve slot's inbox and its pending timestamps), where
/// std::deque's empty footprint — a 64-byte map plus a 512-byte node,
/// allocated even while it holds nothing — dominated. A RingQueue:
///
///  * allocates nothing until its first push;
///  * grows by doubling, keeping FIFO order across the copy;
///  * keeps its capacity across clear(), so a recycled machine queues
///    without allocating.
///
/// Elements are held by value in a std::vector, so T must be default
/// constructible and copyable; the queues above hold integers and small
/// plain records.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SUPPORT_RINGQUEUE_H
#define ESP_SUPPORT_RINGQUEUE_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace esp {

template <typename T> class RingQueue {
public:
  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }
  size_t capacity() const { return Buf.size(); }

  T &front() {
    assert(Count != 0 && "front() of an empty queue");
    return Buf[Head];
  }
  const T &front() const {
    assert(Count != 0 && "front() of an empty queue");
    return Buf[Head];
  }

  void push_back(const T &V) {
    if (Count == Buf.size())
      grow();
    Buf[(Head + Count) & (Buf.size() - 1)] = V;
    ++Count;
  }

  void push_front(const T &V) {
    if (Count == Buf.size())
      grow();
    Head = (Head - 1) & (Buf.size() - 1);
    Buf[Head] = V;
    ++Count;
  }

  void pop_front() {
    assert(Count != 0 && "pop_front() of an empty queue");
    Head = (Head + 1) & (Buf.size() - 1);
    --Count;
  }

  /// Empties the queue; the buffer stays allocated.
  void clear() {
    Head = 0;
    Count = 0;
  }

private:
  static constexpr size_t kInitialCapacity = 8;

  /// Doubles the buffer (or allocates the first one), unrolling the ring
  /// so the oldest element lands at index 0.
  void grow() {
    const size_t Old = Buf.size();
    std::vector<T> Next(Old == 0 ? kInitialCapacity : 2 * Old);
    for (size_t I = 0; I != Count; ++I)
      Next[I] = Buf[(Head + I) & (Old - 1)];
    Buf.swap(Next);
    Head = 0;
  }

  std::vector<T> Buf; ///< Capacity is Buf.size(): zero or a power of two.
  size_t Head = 0;    ///< Index of the front element.
  size_t Count = 0;
};

} // namespace esp

#endif // ESP_SUPPORT_RINGQUEUE_H
