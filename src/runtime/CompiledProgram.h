//===--- CompiledProgram.h - Precompiled runtime fast path ------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The precompiled form of a ModuleIR that Machine executes. At Machine
/// construction each process body is flattened into dense arrays the hot
/// loop dispatches over with a single switch per operation:
///
///  * expressions become a postfix bytecode (XOp) with every operand
///    resolved at compile time — slot indices, field indices, union arms,
///    folded constants — so evaluation never chases AST pointers. A
///    peephole fuses the commonest shapes (a slot or a running value
///    against a constant or a slot, an array slot indexed by a slot) into
///    superinstructions, and each range's operand-stack depth is known,
///    so the machine evaluates on a fixed stack;
///  * patterns become a flat node pool (CPat) with match constants folded
///    where they are static, plus a top-level *discriminant* (union arm or
///    scalar constant) used by the channel dispatch tables to reject
///    non-matching readers without walking the pattern at all (§4.2's
///    "channel x pattern = port" dispatch, precomputed);
///  * instructions map 1:1 onto the IR instruction list (same indices, so
///    serialized PCs are unchanged) but carry pre-resolved operands and
///    bytecode ranges (CInst/CCase).
///
/// The compiled form also carries the per-channel static dispatch data the
/// scheduler's blocked-process bitmasks key on: which processes can ever
/// read a channel, and whether the channel's reader patterns are pairwise
/// statically disjoint (in which case the first matching reader is the
/// only possible one and dispatch can stop scanning).
///
/// Everything in here is immutable after build() and references the
/// ModuleIR/AST only for diagnostics (source locations, names) on error
/// paths; the per-step execution path is table lookups only.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_RUNTIME_COMPILEDPROGRAM_H
#define ESP_RUNTIME_COMPILEDPROGRAM_H

#include "ir/IR.h"
#include "support/IntArith.h"

#include <cstdint>
#include <vector>

namespace esp {

/// One postfix bytecode operation. Operands are pre-resolved; `Origin` is
/// consulted only to format diagnostics when the operation faults.
struct XOp {
  enum class K : uint8_t {
    PushInt,        ///< push Imm as int
    PushBool,       ///< push Imm as bool
    LoadSlot,       ///< push Slots[A]; faults on uninitialized
    LoadField,      ///< pop record ref, push field A
    LoadUnionField, ///< pop union ref, push payload if Arm == A
    LoadIndex,      ///< pop index, pop array ref, push element
    Not,
    Neg,
    Bin,          ///< pop r, pop l, push l Bin r; Div/Mod fault on r == 0
    Boolify,      ///< pop v, push bool(v) — RHS of && / ||
    AndJump,      ///< pop v; if !v push false and jump to A
    OrJump,       ///< pop v; if v push true and jump to A
    AllocRecord,  ///< allocate record of A elems, push ref
    SetElem,      ///< pop v, store into elem A of ref at stack top
    AllocUnion,   ///< allocate union, push ref
    SetUnionElem, ///< pop v, set arm A + payload of ref at stack top
    AllocArray,   ///< pop size, allocate array, push ref
    FillArray,    ///< pop init, fill the array ref at stack top
    CastCopy,     ///< pop v, push deep copy

    // Superinstructions. Bin is the operator; Div and Mod fuse
    // only with a nonzero constant divisor. Origin is the fused Binary
    // (Index) expression, whose operand exprs name a faulting slot.
    SlotImm,   ///< push Slots[A] Bin Imm       (LoadSlot; PushInt; op)
    BinImm,    ///< replace top v by v Bin Imm  (PushInt; op)
    BinSlot,   ///< replace top v by v Bin Slots[A], no Div/Mod
               ///< (LoadSlot; op)
    SlotIndex, ///< push Slots[A][Slots[Imm]]   (LoadSlot; LoadSlot;
               ///< LoadIndex)
  };

  K Op = K::PushInt;
  /// SetElem/SetUnionElem: the stored child is *borrowed* (not a fresh
  /// allocation) and needs a link edge. FillArray/CastCopy: the
  /// operand expression was a fresh allocation.
  uint8_t Flag = 0;
  IntOp Bin = IntOp::Add; ///< Bin and the fused ops: the operator.
  uint32_t A = 0;     ///< Slot / field index / arm / elem count / jump target.
  int64_t Imm = 0;    ///< Folded constant; SlotIndex: the index slot.
  const Type *Ty = nullptr;     ///< Allocation type.
  const Expr *Origin = nullptr; ///< Diagnostics only (loc, names).
};

/// A half-open range of bytecode in CompiledProc::Code. Empty = absent.
struct XRange {
  uint32_t Begin = 0;
  uint32_t End = 0;
  bool empty() const { return Begin == End; }
};

/// One flattened pattern node. Children live in CompiledProc::PatChildren
/// [ChildBegin, ChildBegin+NumChildren).
struct CPat {
  PatternKind Kind = PatternKind::Bind;
  uint32_t Slot = 0;      ///< Bind: destination slot.
  bool IsStatic = false;  ///< Match: expression folded at compile time.
  int64_t Const = 0;      ///< Match (static): folded value.
  XRange Code;            ///< Match (dynamic): expression bytecode.
  int32_t Arm = -1;       ///< Union: required arm.
  uint32_t ChildBegin = 0;
  uint32_t NumChildren = 0;
  const Pattern *Src = nullptr; ///< Diagnostics only.
};

constexpr uint32_t kNoPattern = UINT32_MAX;

/// The top-level discriminant of a reader pattern (the dispatch-table
/// entry) or of a concrete message: a union arm or a scalar. Comparing
/// the two rejects a message without a pattern walk.
struct CaseDisc {
  enum class K : uint8_t { None, UnionArm, Scalar } Kind = K::None;
  int32_t Arm = -1;
  int64_t Scalar = 0;
};

/// One compiled alternative of a Block instruction.
struct CCase {
  XRange Guard;             ///< Empty = always enabled.
  XRange Out;               ///< Writer expression (non-elided).
  std::vector<XRange> ElideFields; ///< Per-field bytecode when elided.
  std::vector<uint8_t> ElideFieldIsAlloc; ///< Field expr is an allocation.
  uint32_t Pat = kNoPattern; ///< Reader pattern (compiled node index).
  CaseDisc Disc;             ///< Reader pattern discriminant.
  uint32_t ChanId = 0;
  uint32_t Target = 0;
  bool IsIn = false;
  bool LazyOut = false;
  bool ElideRecordAlloc = false;
  bool MatchFree = false;
  /// Reader pattern that reads no process state: no Match node of it
  /// needs evaluating, so whether it admits a message depends on the
  /// message alone.
  bool StaticPat = false;
  bool OutIsAlloc = false; ///< Out expression is a fresh allocation.
  /// Where this case's out values sit in its process's prepared-value
  /// array (ProcState::Prepared): one value per record field when the
  /// allocation is elided, else one; none for an in case.
  uint32_t PrepBegin = 0;
  uint32_t PrepCount = 0;
  const IRCase *Src = nullptr; ///< ChannelDecl, Loc, Out expr for diags.
};

/// One compiled instruction; indices coincide with ProcIR::Insts.
struct CInst {
  InstKind Kind = InstKind::Halt;

  XRange Code;         ///< DeclInit/Link/Unlink RHS; Branch/Assert Cond;
                       ///< Store: RHS (+ destination addressing).
  uint32_t Slot = 0;   ///< DeclInit destination.
  uint32_t Target = 0; ///< Branch/Jump.

  // Store.
  enum class StoreKind : uint8_t { None, Slot, Field, UnionField, Index,
                                   Destructure };
  StoreKind Store = StoreKind::None;
  uint32_t StoreA = 0;      ///< Slot / field index / arm.
  XRange StoreAddr;         ///< Field/Index: base address bytecode.
  XRange StoreIdx;          ///< Index: index bytecode.
  uint32_t Pat = kNoPattern; ///< Destructure pattern.
  bool RhsIsAlloc = false;   ///< Destructure RHS is a fresh allocation.

  std::vector<CCase> Cases; ///< Block.
  uint32_t PrepSize = 0;    ///< Block: out values of all its cases.
  const Inst *Src = nullptr; ///< Diagnostics only.
};

/// One compiled process.
struct CompiledProc {
  std::vector<CInst> Insts;
  std::vector<XOp> Code;
  std::vector<CPat> Pats;
  std::vector<uint32_t> PatChildren;
};

/// Per-channel static dispatch data.
struct ChannelInfo {
  /// Every reader pattern pair on this channel is statically disjoint: a
  /// message matches at most one reader, so dispatch stops at the first.
  bool Disjoint = false;
  /// Bit I set: process I contains a Block in-case on this channel
  /// somewhere in its body (static reachability, used for the harness's
  /// environment-receive rule).
  std::vector<uint64_t> StaticReaders;
};

/// The whole precompiled module. Built once in the Machine constructor.
struct CompiledProgram {
  std::vector<CompiledProc> Procs;
  std::vector<ChannelInfo> Channels;
  uint32_t MaskWords = 0; ///< ceil(numProcs / 64): words per process mask.
  /// Ids of the channels whose writer / reader is external (an interface
  /// implemented outside ESP), ascending.
  std::vector<uint32_t> ExternalWriterChans;
  std::vector<uint32_t> ExternalReaderChans;
  /// The deepest operand stack any bytecode range of any process needs;
  /// a Machine sizes its evaluation stack to it once.
  uint32_t MaxEvalDepth = 0;

  static CompiledProgram build(const ModuleIR &Module);
};

} // namespace esp

#endif // ESP_RUNTIME_COMPILEDPROGRAM_H
