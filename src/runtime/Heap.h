//===--- Heap.h - ESP runtime values and refcounted heap --------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ESP value model: scalars are immediate; records, unions, and
/// arrays are reference-counted heap objects (§4.4). The heap implements
/// the paper's explicit management scheme:
///
///  * allocation sets the reference count to 1,
///  * `link` increments, `unlink` decrements and frees at zero,
///    recursively unlinking the objects pointed to,
///  * every access checks that the object is live (the assertion the ESP
///    compiler inserts in the SPIN translation, §5.2),
///  * the object table can be bounded (`MaxObjects`), in which case
///    exhaustion signals a leak — the paper's leak-detection mechanism.
///
/// Allocation is a free-list pop: freed slots are recycled in LIFO order
/// and keep their element storage, so steady-state firmware allocation
/// touches no allocator. References carry a generation counter with a
/// parity invariant — a live object's generation is even, a freed one's
/// odd (free and reuse each bump it) — so the execution-mode liveness
/// check is a single generation compare that detects use-after-free even
/// across slot reuse. Verification mode (`setFullChecks`) additionally
/// validates the explicit live flag and the parity invariant on every
/// dereference.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_RUNTIME_HEAP_H
#define ESP_RUNTIME_HEAP_H

#include "frontend/Type.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace esp {

/// One ESP runtime value: an int, a bool, or a reference to a heap
/// object. Default-constructed values are Uninit; evaluating one is a
/// runtime error (ESP requires initialization at declaration).
struct Value {
  enum class Kind : uint8_t { Uninit, Int, Bool, Ref };

  Kind K = Kind::Uninit;
  int64_t Scalar = 0;
  uint32_t Ref = 0;
  uint32_t Gen = 0;

  static Value makeInt(int64_t V) {
    Value Out;
    Out.K = Kind::Int;
    Out.Scalar = V;
    return Out;
  }
  static Value makeBool(bool V) {
    Value Out;
    Out.K = Kind::Bool;
    Out.Scalar = V ? 1 : 0;
    return Out;
  }
  static Value makeRef(uint32_t Index, uint32_t Gen) {
    Value Out;
    Out.K = Kind::Ref;
    Out.Ref = Index;
    Out.Gen = Gen;
    return Out;
  }

  bool isRef() const { return K == Kind::Ref; }
  bool isUninit() const { return K == Kind::Uninit; }
  bool asBool() const { return Scalar != 0; }

  /// Scalar equality; references compare by identity.
  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    if (A.K == Kind::Ref)
      return A.Ref == B.Ref && A.Gen == B.Gen;
    return A.Scalar == B.Scalar;
  }
};

/// One heap object: a record (Elems = fields), array (Elems = elements),
/// or union (Elems has a single entry, Arm names the valid field).
/// Invariant: Live <=> (Gen & 1) == 0 once the slot has been allocated.
struct HeapObject {
  const Type *ObjType = nullptr;
  uint32_t RefCount = 0;
  uint32_t Gen = 0;
  bool Live = false;
  int32_t Arm = -1;
  std::vector<Value> Elems;
};

/// Outcomes of heap operations that can fail.
enum class HeapStatus : uint8_t {
  OK,
  DeadObject,   ///< Access/link/unlink of a freed object.
  OutOfObjects, ///< Bounded table exhausted (leak indicator, §5.2).
};

/// The reference-counted object heap. Copyable so the model checker can
/// snapshot machine states.
class Heap {
public:
  /// \p MaxObjects of 0 means unbounded. When \p ReuseIds is true, freed
  /// slots are recycled (the paper's reclaimed objectIds); generations
  /// keep use-after-free detectable.
  explicit Heap(uint32_t MaxObjects = 0, bool ReuseIds = true)
      : MaxObjects(MaxObjects), ReuseIds(ReuseIds) {}

  /// Verification mode: validate the Live flag and the generation-parity
  /// invariant on every dereference, not just the generation compare.
  void setFullChecks(bool Enable) { FullChecks = Enable; }

  /// Allocates an object with \p NumElems uninitialized elements and
  /// reference count 1. Returns std::nullopt when the bounded table is
  /// exhausted. Pops the free list when a recycled slot is available; the
  /// slot's generation is bumped back to even (live).
  std::optional<Value> allocate(const Type *T, size_t NumElems) {
    uint32_t Index;
    if (ReuseIds && FreeHead != kNoFree) {
      Index = FreeHead;
      FreeHead = NextFree[Index];
      ++Objects[Index].Gen; // Odd (freed) -> even (live again).
    } else {
      if (MaxObjects != 0 && Objects.size() >= MaxObjects)
        return std::nullopt;
      Index = static_cast<uint32_t>(Objects.size());
      Objects.emplace_back();
      NextFree.push_back(kNoFree);
    }
    HeapObject &Obj = Objects[Index];
    Obj.ObjType = T;
    Obj.RefCount = 1;
    Obj.Live = true;
    Obj.Arm = -1;
    Obj.Elems.assign(NumElems, Value()); // Reuses the slot's capacity.
    ++TotalAllocations;
    ++LiveCount;
    if (LiveCount > HighWater)
      HighWater = LiveCount;
    return Value::makeRef(Index, Obj.Gen);
  }

  /// Returns the object behind \p V if it is live; null otherwise. The
  /// generation-parity invariant makes the generation compare alone a
  /// complete use-after-free test: handed-out generations are always
  /// even, and both freeing and reusing a slot change its generation.
  HeapObject *deref(const Value &V) {
    if (!V.isRef() || V.Ref >= Objects.size())
      return nullptr;
    HeapObject &Obj = Objects[V.Ref];
    if (Obj.Gen != V.Gen)
      return nullptr;
    if (FullChecks) {
      assert(Obj.Live == ((Obj.Gen & 1) == 0) && "generation parity broken");
      if (!Obj.Live)
        return nullptr;
    }
    return &Obj;
  }
  const HeapObject *deref(const Value &V) const {
    return const_cast<Heap *>(this)->deref(V);
  }

  bool isLive(const Value &V) const { return deref(V) != nullptr; }

  /// rc++ (the `link` primitive). Fails on dead objects.
  HeapStatus link(const Value &V) {
    HeapObject *Obj = deref(V);
    if (!Obj)
      return HeapStatus::DeadObject;
    ++Obj->RefCount;
    return HeapStatus::OK;
  }

  /// rc-- (the `unlink` primitive); frees at zero and recursively unlinks
  /// the objects pointed to (§4.4). Fails on dead objects.
  HeapStatus unlink(const Value &V);

  /// Returns the heap to its freshly-constructed state while keeping the
  /// arena: the object table and every slot's element buffer keep their
  /// capacity, so the next occupant allocates without touching the
  /// native allocator (the serve runtime recycles a connection's machine
  /// this way). Live slots are freed (generation bumped to odd, so any
  /// stale reference stays detectable) and the free list is rebuilt in
  /// ascending slot order — a reset heap hands out ids 0, 1, 2, ... like
  /// a fresh one. All statistics reset to zero.
  void reset();

  // Statistics for the benchmarks and the verifier report.
  uint64_t getTotalAllocations() const { return TotalAllocations; }
  uint32_t getLiveCount() const { return LiveCount; }
  uint32_t getHighWater() const { return HighWater; }
  uint32_t getMaxObjects() const { return MaxObjects; }

  /// All live object indices (for leak sweeps and serialization).
  const std::vector<HeapObject> &objects() const { return Objects; }

  /// Estimated memory held by a copy of this heap (object table, element
  /// storage, free-list links).
  size_t bytes() const;

private:
  static constexpr uint32_t kNoFree = UINT32_MAX;

  void freeObject(uint32_t Index);

  uint32_t MaxObjects;
  bool ReuseIds;
  bool FullChecks = false;
  std::vector<HeapObject> Objects;
  /// Intrusive free list: NextFree[I] chains freed slots from FreeHead.
  std::vector<uint32_t> NextFree;
  uint32_t FreeHead = kNoFree;
  /// Scratch for the iterative unlink walk (kept to avoid per-unlink
  /// allocation; always empty between calls).
  std::vector<Value> UnlinkScratch;
  uint64_t TotalAllocations = 0;
  uint32_t LiveCount = 0;
  uint32_t HighWater = 0;
};

} // namespace esp

#endif // ESP_RUNTIME_HEAP_H
