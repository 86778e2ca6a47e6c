//===--- Machine.cpp - ESP interpreter and scheduler ------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include "frontend/Sema.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <sstream>

using namespace esp;

const char *esp::runtimeErrorKindName(RuntimeErrorKind Kind) {
  switch (Kind) {
  case RuntimeErrorKind::None:
    return "none";
  case RuntimeErrorKind::AssertFailed:
    return "assertion failed";
  case RuntimeErrorKind::UseAfterFree:
    return "use after free";
  case RuntimeErrorKind::MatchFailed:
    return "destructuring match failed";
  case RuntimeErrorKind::NoMatchingPattern:
    return "message matched no receive pattern";
  case RuntimeErrorKind::AmbiguousDispatch:
    return "message matched patterns of multiple readers";
  case RuntimeErrorKind::OutOfObjects:
    return "object table exhausted (possible memory leak)";
  case RuntimeErrorKind::DivideByZero:
    return "division by zero";
  case RuntimeErrorKind::IndexOutOfBounds:
    return "array index out of bounds";
  case RuntimeErrorKind::InvalidUnionField:
    return "access to invalid union field";
  case RuntimeErrorKind::UninitializedRead:
    return "read of uninitialized value";
  case RuntimeErrorKind::StepLimit:
    return "local step limit exceeded";
  }
  return "unknown";
}

std::string Move::str(const ModuleIR &Module) const {
  std::ostringstream OS;
  auto procName = [&](int Index) -> std::string {
    if (Index < 0)
      return "<env>";
    return Module.Procs[Index].Proc->Name;
  };
  // Channel ids are declaration indices.
  const std::string &ChanName = Module.Prog->Channels[Channel]->Name;
  switch (K) {
  case Kind::Rendezvous:
    OS << procName(Writer) << " -> " << procName(Reader) << " on "
       << ChanName;
    break;
  case Kind::EnvSend:
    OS << "env[" << EnvVariant << "] -> " << procName(Reader) << " on "
       << ChanName;
    break;
  case Kind::EnvRecv:
    OS << procName(Writer) << " -> env on " << ChanName;
    break;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Construction and setup
//===----------------------------------------------------------------------===//

std::shared_ptr<const CompiledProgram>
Machine::compileProgram(const ModuleIR &Module) {
  return std::make_shared<const CompiledProgram>(
      CompiledProgram::build(Module));
}

Machine::Machine(const ModuleIR &Module, MachineOptions Options)
    : Machine(Module, Options, compileProgram(Module)) {}

Machine::Machine(const ModuleIR &Module, MachineOptions Options,
                 std::shared_ptr<const CompiledProgram> Compiled)
    : Module(Module), Options(Options), CPShared(std::move(Compiled)),
      CP(*CPShared), H(Options.MaxObjects, Options.ReuseObjectIds) {
  H.setFullChecks(Options.DeepCopyTransfers);
  Procs.resize(Module.Procs.size());
  InWait.assign(Module.Prog->Channels.size() * CP.MaskWords, 0);
  OutWait.assign(Module.Prog->Channels.size() * CP.MaskWords, 0);
  Writers.resize(Module.Prog->Channels.size());
  Readers.resize(Module.Prog->Channels.size());
  EnvSends.assign(Module.Prog->Channels.size(), 0);
  EvalStack =
      std::make_unique<Value[]>(std::max<uint32_t>(CP.MaxEvalDepth, 1));
}

void Machine::reset() {
  H.reset();
  for (ProcState &P : Procs) {
    P.PC = 0;
    P.St = ProcState::Status::Ready;
    // clear() keeps each vector's capacity; start() reassigns the slots
    // and prepareBlock() regrows the case caches without reallocating.
    P.Slots.clear();
    P.CaseEnabled.clear();
    P.Prepared.clear();
    P.PreparedValid.clear();
  }
  Error = RuntimeError();
  Stats = ExecStats();
  Started = false;
  std::fill(EnvSends.begin(), EnvSends.end(), 0);
  std::fill(InWait.begin(), InWait.end(), 0);
  std::fill(OutWait.begin(), OutWait.end(), 0);
  ReadyQueue.clear();
  Current = -1;
  PollRotor = 0;
}

void Machine::setEnvModel(const EnvModel *Model) {
  Env = Model;
  EnvTab.reset();
  if (!Env)
    return;
  EnvTab = std::make_unique<EnvTables>();
  EnvTab->Channels.resize(Module.Prog->Channels.size());
  uint32_t Pats = 0;
  for (const CompiledProc &P : CP.Procs) {
    EnvTab->PatBase.push_back(Pats);
    Pats += static_cast<uint32_t>(P.Pats.size());
  }
  EnvTab->AdmitAt.assign(Pats, 0);
  for (const std::unique_ptr<ChannelDecl> &Chan : Module.Prog->Channels) {
    EnvChannel &EC = EnvTab->Channels[Chan->Id];
    EC.Decl = Chan.get();
    EC.NumVariants = Env->numVariants(Chan.get());
    if (EC.NumVariants != 0)
      EnvTab->SendChannels.push_back(Chan->Id);
  }
}

Machine::EnvChannel &Machine::envChannel(uint32_t Chan) {
  EnvChannel &EC = EnvTab->Channels[Chan];
  if (EC.Templates.size() == EC.NumVariants)
    return EC;
  Heap &TH = EnvTab->TemplateHeap;
  EC.Templates.reserve(EC.NumVariants);
  EC.Discs.reserve(EC.NumVariants);
  for (unsigned Variant = 0; Variant != EC.NumVariants; ++Variant) {
    EC.Templates.push_back(Env->makeVariant(EC.Decl, Variant, TH));
    EC.Discs.push_back(discOfValue(TH, EC.Templates.back()));
  }
  return EC;
}

void Machine::bindWriter(const std::string &InterfaceName,
                         std::unique_ptr<ExternalWriter> Writer) {
  InterfaceDecl *Iface = Module.Prog->findInterface(InterfaceName);
  assert(Iface && Iface->ExternalWrites && "not an external-writer interface");
  Writers[Iface->Channel->Id] = std::move(Writer);
}

void Machine::bindReader(const std::string &InterfaceName,
                         std::unique_ptr<ExternalReader> Reader) {
  InterfaceDecl *Iface = Module.Prog->findInterface(InterfaceName);
  assert(Iface && !Iface->ExternalWrites &&
         "not an external-reader interface");
  Readers[Iface->Channel->Id] = std::move(Reader);
}

void Machine::start() {
  assert(!Started && "machine already started");
  Started = true;
  ScanPairs = true;
  for (unsigned I = 0, E = Procs.size(); I != E; ++I) {
    ProcState &P = Procs[I];
    P.PC = 0;
    P.St = ProcState::Status::Ready;
    P.Slots.assign(Module.Procs[I].Proc->NumSlots, Value());
    runToBlock(I);
    if (Error)
      return;
  }
}

void Machine::fail(RuntimeErrorKind Kind, SourceLoc Loc, int ProcIndex,
                   std::string Message) {
  if (Error)
    return; // Keep the first error.
  Error.Kind = Kind;
  Error.Loc = Loc;
  Error.ProcessIndex = ProcIndex;
  Error.Message = std::move(Message);
  if (ProcIndex >= 0) {
    if (Procs[ProcIndex].St == ProcState::Status::Blocked)
      clearWaitBits(static_cast<unsigned>(ProcIndex));
    Procs[ProcIndex].St = ProcState::Status::Failed;
  }
}

//===----------------------------------------------------------------------===//
// Wait bitmasks
//===----------------------------------------------------------------------===//

// The masks are an accelerator over the truth (Blocked + CaseEnabled +
// channel): every consumer re-checks those, so the invariant that matters
// is masks >= truth. Bits are added when a process publishes its block
// point (end of prepareBlock) and cleared when it leaves it (resume,
// fail) or wholesale on restore().

void Machine::addWaitBits(unsigned ProcIndex) {
  const ProcState &P = Procs[ProcIndex];
  const CInst &I = CP.Procs[ProcIndex].Insts[P.PC];
  const uint64_t Bit = uint64_t(1) << (ProcIndex % 64);
  const unsigned Word = ProcIndex / 64;
  size_t N = std::min(I.Cases.size(), P.CaseEnabled.size());
  for (size_t C = 0; C != N; ++C) {
    if (!P.CaseEnabled[C])
      continue;
    const CCase &Case = I.Cases[C];
    (Case.IsIn ? inWait(Case.ChanId) : outWait(Case.ChanId))[Word] |= Bit;
  }
}

void Machine::clearWaitBits(unsigned ProcIndex) {
  const CInst &I = CP.Procs[ProcIndex].Insts[Procs[ProcIndex].PC];
  const uint64_t Bit = uint64_t(1) << (ProcIndex % 64);
  const unsigned Word = ProcIndex / 64;
  for (const CCase &Case : I.Cases)
    (Case.IsIn ? inWait(Case.ChanId) : outWait(Case.ChanId))[Word] &= ~Bit;
}

void Machine::rebuildWaitBits() {
  std::fill(InWait.begin(), InWait.end(), 0);
  std::fill(OutWait.begin(), OutWait.end(), 0);
  for (unsigned P = 0, NP = static_cast<unsigned>(Procs.size()); P != NP; ++P)
    if (Procs[P].St == ProcState::Status::Blocked)
      addWaitBits(P);
}

//===----------------------------------------------------------------------===//
// Expression evaluation (compiled bytecode)
//===----------------------------------------------------------------------===//

namespace {

SourceLoc plainStoreTargetLoc(const CInst &I) {
  return ast_cast<MatchPattern>(I.Src->LHS)->getValue()->getLoc();
}

} // namespace

bool Machine::evalStack(unsigned ProcIndex, XRange R, Value &Result) {
  assert(!InEval && "expression evaluation re-entered");
  InEval = true;
  const CompiledProc &CProc = CP.Procs[ProcIndex];
  const std::vector<Value> &Slots = Procs[ProcIndex].Slots;
  Value *const Bottom = EvalStack.get();
  Value *Sp = Bottom; // One past the top entry.
  auto failEval = [&](RuntimeErrorKind Kind, SourceLoc Loc, std::string Msg) {
    InEval = false;
    fail(Kind, Loc, static_cast<int>(ProcIndex), std::move(Msg));
    return false;
  };
  // A read of uninitialized slot variable \p Var; a fused op names the
  // operand expression the plain LoadSlot would have had as its origin.
  auto failUninit = [&](const Expr *Var) {
    return failEval(RuntimeErrorKind::UninitializedRead, Var->getLoc(),
                    "read of uninitialized variable '" +
                        ast_cast<VarRefExpr>(Var)->getName() + "'");
  };
  // Element \p Index of array \p Arr into \p Out, for LoadIndex and
  // SlotIndex (whose origin is the Index expression).
  auto element = [&](const Value &Arr, const Value &Index, const XOp &Op,
                     Value &Out) {
    HeapObject *Obj = H.deref(Arr);
    if (!Obj)
      return failEval(RuntimeErrorKind::UseAfterFree, Op.Origin->getLoc(),
                      "index access on freed object");
    if (Index.Scalar < 0 ||
        Index.Scalar >= static_cast<int64_t>(Obj->Elems.size()))
      return failEval(RuntimeErrorKind::IndexOutOfBounds, Op.Origin->getLoc(),
                      "index " + std::to_string(Index.Scalar) +
                          " out of bounds for array of " +
                          std::to_string(Obj->Elems.size()));
    Out = Obj->Elems[Index.Scalar];
    return true;
  };
  for (uint32_t IP = R.Begin; IP != R.End;) {
    const XOp &Op = CProc.Code[IP];
    switch (Op.Op) {
    case XOp::K::PushInt:
      *Sp++ = Value::makeInt(Op.Imm);
      break;
    case XOp::K::PushBool:
      *Sp++ = Value::makeBool(Op.Imm != 0);
      break;
    case XOp::K::LoadSlot:
      if (Slots[Op.A].isUninit())
        return failUninit(Op.Origin);
      *Sp++ = Slots[Op.A];
      break;
    case XOp::K::SlotImm: {
      const Value &Slot = Slots[Op.A];
      if (Slot.isUninit())
        return failUninit(ast_cast<BinaryExpr>(Op.Origin)->getLHS());
      *Sp++ = binaryValue(Op.Bin, Slot.Scalar, Op.Imm);
      break;
    }
    case XOp::K::BinImm:
      Sp[-1] = binaryValue(Op.Bin, Sp[-1].Scalar, Op.Imm);
      break;
    case XOp::K::BinSlot: {
      const Value &Slot = Slots[Op.A];
      if (Slot.isUninit())
        return failUninit(ast_cast<BinaryExpr>(Op.Origin)->getRHS());
      Sp[-1] = binaryValue(Op.Bin, Sp[-1].Scalar, Slot.Scalar);
      break;
    }
    case XOp::K::SlotIndex: {
      const IndexExpr *Ix = ast_cast<IndexExpr>(Op.Origin);
      const Value &Arr = Slots[Op.A];
      if (Arr.isUninit())
        return failUninit(Ix->getBase());
      const Value &Index = Slots[static_cast<size_t>(Op.Imm)];
      if (Index.isUninit())
        return failUninit(Ix->getIndex());
      if (!element(Arr, Index, Op, *Sp))
        return false;
      ++Sp;
      break;
    }
    case XOp::K::LoadField: {
      HeapObject *Obj = H.deref(Sp[-1]);
      if (!Obj)
        return failEval(RuntimeErrorKind::UseAfterFree, Op.Origin->getLoc(),
                        "field access on freed object");
      Sp[-1] = Obj->Elems[Op.A];
      break;
    }
    case XOp::K::LoadUnionField: {
      HeapObject *Obj = H.deref(Sp[-1]);
      if (!Obj)
        return failEval(RuntimeErrorKind::UseAfterFree, Op.Origin->getLoc(),
                        "field access on freed object");
      if (Obj->Arm != static_cast<int32_t>(Op.A))
        return failEval(
            RuntimeErrorKind::InvalidUnionField, Op.Origin->getLoc(),
            "union field '" +
                ast_cast<FieldExpr>(Op.Origin)->getFieldName() +
                "' is not the valid field");
      Sp[-1] = Obj->Elems[0];
      break;
    }
    case XOp::K::LoadIndex: {
      const Value Index = *--Sp;
      if (!element(Sp[-1], Index, Op, Sp[-1]))
        return false;
      break;
    }
    case XOp::K::Not:
      Sp[-1] = Value::makeBool(!Sp[-1].asBool());
      break;
    case XOp::K::Neg:
      Sp[-1] = Value::makeInt(wrapNeg(Sp[-1].Scalar));
      break;
    case XOp::K::Bin:
      if ((Op.Bin == IntOp::Div || Op.Bin == IntOp::Mod) && Sp[-1].Scalar == 0)
        return failEval(RuntimeErrorKind::DivideByZero, Op.Origin->getLoc(),
                        "division by zero");
      --Sp;
      Sp[-1] = binaryValue(Op.Bin, Sp[-1].Scalar, Sp->Scalar);
      break;
    case XOp::K::Boolify:
      Sp[-1] = Value::makeBool(Sp[-1].asBool());
      break;
    case XOp::K::AndJump:
      if (!Sp[-1].asBool()) {
        Sp[-1] = Value::makeBool(false);
        IP = Op.A;
        continue;
      }
      --Sp;
      break;
    case XOp::K::OrJump:
      if (Sp[-1].asBool()) {
        Sp[-1] = Value::makeBool(true);
        IP = Op.A;
        continue;
      }
      --Sp;
      break;
    case XOp::K::AllocRecord: {
      std::optional<Value> Obj = H.allocate(Op.Ty, Op.A);
      if (!Obj)
        return failEval(RuntimeErrorKind::OutOfObjects, Op.Origin->getLoc(),
                        "object table exhausted while allocating record");
      notifyAlloc(*Obj);
      *Sp++ = *Obj;
      break;
    }
    case XOp::K::SetElem: {
      const Value V = *--Sp;
      // Ownership of the construction edge: a freshly allocated child
      // donates its creation reference; a borrowed child is linked.
      if (V.isRef() && Op.Flag) {
        if (H.link(V) != HeapStatus::OK)
          return failEval(RuntimeErrorKind::UseAfterFree, Op.Origin->getLoc(),
                          "storing freed object into record");
      }
      H.deref(Sp[-1])->Elems[Op.A] = V;
      break;
    }
    case XOp::K::AllocUnion: {
      std::optional<Value> Obj = H.allocate(Op.Ty, 1);
      if (!Obj)
        return failEval(RuntimeErrorKind::OutOfObjects, Op.Origin->getLoc(),
                        "object table exhausted while allocating union");
      notifyAlloc(*Obj);
      *Sp++ = *Obj;
      break;
    }
    case XOp::K::SetUnionElem: {
      const Value V = *--Sp;
      if (V.isRef() && Op.Flag) {
        if (H.link(V) != HeapStatus::OK)
          return failEval(RuntimeErrorKind::UseAfterFree, Op.Origin->getLoc(),
                          "storing freed object into union");
      }
      HeapObject *ObjPtr = H.deref(Sp[-1]);
      ObjPtr->Arm = static_cast<int32_t>(Op.A);
      ObjPtr->Elems[0] = V;
      break;
    }
    case XOp::K::AllocArray: {
      const Value Size = Sp[-1];
      if (Size.Scalar < 0)
        return failEval(RuntimeErrorKind::IndexOutOfBounds,
                        Op.Origin->getLoc(), "negative array size");
      std::optional<Value> Obj =
          H.allocate(Op.Ty, static_cast<size_t>(Size.Scalar));
      if (!Obj)
        return failEval(RuntimeErrorKind::OutOfObjects, Op.Origin->getLoc(),
                        "object table exhausted while allocating array");
      notifyAlloc(*Obj);
      Sp[-1] = *Obj;
      break;
    }
    case XOp::K::FillArray: {
      const Value Init = *--Sp;
      const Value Obj = Sp[-1];
      size_t N = H.deref(Obj)->Elems.size();
      if (Init.isRef()) {
        // N construction edges: the creation reference covers the first
        // (when fresh); the rest are links.
        size_t LinksNeeded = Op.Flag ? N - 1 : N;
        if (N == 0 && Op.Flag) {
          // Zero-length array of a fresh object: drop the orphan temp.
          dropValueTemp(Init, Op.Origin->getLoc(),
                        static_cast<int>(ProcIndex));
          LinksNeeded = 0;
        }
        for (size_t I = 0; I != LinksNeeded; ++I) {
          if (H.link(Init) != HeapStatus::OK)
            return failEval(RuntimeErrorKind::UseAfterFree,
                            Op.Origin->getLoc(),
                            "storing freed object into array");
        }
      }
      HeapObject *ObjPtr = H.deref(Obj);
      for (size_t I = 0; I != N; ++I)
        ObjPtr->Elems[I] = Init;
      break;
    }
    case XOp::K::CastCopy: {
      const Value Sub = Sp[-1];
      std::optional<Value> Copy = deepCopy(H, Sub);
      if (!Copy)
        return failEval(RuntimeErrorKind::OutOfObjects, Op.Origin->getLoc(),
                        "object table exhausted during cast");
      if (Op.Flag)
        dropValueTemp(Sub, Op.Origin->getLoc(), static_cast<int>(ProcIndex));
      Sp[-1] = *Copy;
      break;
    }
    }
    ++IP;
  }
  assert(Sp == Bottom + 1 && "expression bytecode left a bad stack");
  Result = *Bottom;
  InEval = false;
  return true;
}

std::optional<Value> Machine::deepCopy(const Heap &From, const Value &V) {
  if (!V.isRef())
    return V;
  const HeapObject *Src = From.deref(V);
  if (!Src) {
    fail(RuntimeErrorKind::UseAfterFree, SourceLoc(), -1,
         "deep copy of freed object");
    return std::nullopt;
  }
  const Type *T = Src->ObjType;
  const int32_t Arm = Src->Arm;
  const size_t N = Src->Elems.size();
  std::optional<Value> Obj = H.allocate(T, N);
  if (!Obj)
    return std::nullopt;
  notifyAlloc(*Obj);
  for (size_t I = 0; I != N; ++I) {
    // Re-dereference per element: when From is the state heap, allocate()
    // may have reallocated the object table under Src.
    std::optional<Value> Elem = deepCopy(From, From.deref(V)->Elems[I]);
    if (!Elem)
      return std::nullopt;
    H.deref(*Obj)->Elems[I] = *Elem;
  }
  H.deref(*Obj)->Arm = Arm;
  return Obj;
}

void Machine::dropValueTemp(const Value &V, SourceLoc Loc, int ProcIndex) {
  if (!V.isRef())
    return;
  if (H.unlink(V) != HeapStatus::OK)
    fail(RuntimeErrorKind::UseAfterFree, Loc, ProcIndex,
         "releasing freed temporary");
}

void Machine::dropSenderTemp(const Expr *OutExpr, const Value &V) {
  if (OutExpr && exprIsAllocation(OutExpr))
    dropValueTemp(V, OutExpr->getLoc(), -1);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool Machine::execStore(unsigned ProcIndex, const CInst &I) {
  Value RHS;
  if (!evalCode(ProcIndex, I.Code, RHS))
    return false;
  switch (I.Store) {
  case CInst::StoreKind::Slot:
    Procs[ProcIndex].Slots[I.StoreA] = RHS;
    return true;
  case CInst::StoreKind::Field:
  case CInst::StoreKind::UnionField: {
    Value Base;
    if (!evalCode(ProcIndex, I.StoreAddr, Base))
      return false;
    HeapObject *Obj = H.deref(Base);
    if (!Obj) {
      fail(RuntimeErrorKind::UseAfterFree, plainStoreTargetLoc(I),
           static_cast<int>(ProcIndex), "store into freed object");
      return false;
    }
    if (I.Store == CInst::StoreKind::UnionField) {
      Obj->Arm = static_cast<int32_t>(I.StoreA);
      Obj->Elems[0] = RHS;
    } else {
      Obj->Elems[I.StoreA] = RHS;
    }
    return true;
  }
  case CInst::StoreKind::Index: {
    Value Base, Index;
    if (!evalCode(ProcIndex, I.StoreAddr, Base))
      return false;
    if (!evalCode(ProcIndex, I.StoreIdx, Index))
      return false;
    HeapObject *Obj = H.deref(Base);
    if (!Obj) {
      fail(RuntimeErrorKind::UseAfterFree, plainStoreTargetLoc(I),
           static_cast<int>(ProcIndex), "store into freed object");
      return false;
    }
    if (Index.Scalar < 0 ||
        Index.Scalar >= static_cast<int64_t>(Obj->Elems.size())) {
      fail(RuntimeErrorKind::IndexOutOfBounds, plainStoreTargetLoc(I),
           static_cast<int>(ProcIndex), "store index out of bounds");
      return false;
    }
    Obj->Elems[Index.Scalar] = RHS;
    return true;
  }
  case CInst::StoreKind::Destructure: {
    // Destructuring match. Local matches bind without acquiring references
    // (assignment never manages reference counts, §4.4); a failed match is
    // a runtime error.
    std::span<const Value> Values(&RHS, 1);
    if (!matchValues(ProcIndex, I.Pat, Values, MatchMode::Try, H)) {
      if (!Error)
        fail(RuntimeErrorKind::MatchFailed, I.Src->Loc,
             static_cast<int>(ProcIndex),
             "value does not match the left-hand-side pattern");
      return false;
    }
    if (!matchValues(ProcIndex, I.Pat, Values, MatchMode::CommitLocal, H)) {
      if (!Error)
        fail(RuntimeErrorKind::UseAfterFree, I.Src->Loc,
             static_cast<int>(ProcIndex), "destructuring a freed object");
      return false;
    }
    // If the right-hand side was a fresh allocation, the match consumed
    // it: release the creation reference (bound components survive only
    // if they hold other references).
    if (I.RhsIsAlloc)
      dropValueTemp(RHS, I.Src->Loc, static_cast<int>(ProcIndex));
    return true;
  }
  case CInst::StoreKind::None:
    break;
  }
  return false;
}

void Machine::runToBlock(unsigned ProcIndex) {
  ProcState &P = Procs[ProcIndex];
  assert(P.St == ProcState::Status::Ready && "process not runnable");
  const CompiledProc &CProc = CP.Procs[ProcIndex];
  uint64_t Steps = 0;
  while (true) {
    if (Error) {
      if (P.St == ProcState::Status::Ready)
        P.St = ProcState::Status::Failed;
      return;
    }
    if (++Steps > Options.LocalStepLimit) {
      fail(RuntimeErrorKind::StepLimit, CProc.Insts[P.PC].Src->Loc,
           static_cast<int>(ProcIndex),
           "process '" + Module.Procs[ProcIndex].Proc->Name +
               "' exceeded the local step limit (infinite local loop?)");
      return;
    }
    const CInst &I = CProc.Insts[P.PC];
    ++Stats.Instructions;
    if (Obs)
      Obs->onInstr(*this, ProcIndex, P.PC);
    switch (I.Kind) {
    case InstKind::DeclInit: {
      Value V;
      if (!evalCode(ProcIndex, I.Code, V))
        return;
      P.Slots[I.Slot] = V;
      ++P.PC;
      break;
    }
    case InstKind::Store:
      if (!execStore(ProcIndex, I))
        return;
      ++P.PC;
      break;
    case InstKind::Branch: {
      Value Cond;
      if (!evalCode(ProcIndex, I.Code, Cond))
        return;
      P.PC = Cond.asBool() ? P.PC + 1 : I.Target;
      break;
    }
    case InstKind::Jump:
      P.PC = I.Target;
      break;
    case InstKind::Link: {
      Value V;
      if (!evalCode(ProcIndex, I.Code, V))
        return;
      if (H.link(V) != HeapStatus::OK) {
        fail(RuntimeErrorKind::UseAfterFree, I.Src->Loc,
             static_cast<int>(ProcIndex), "link of freed object");
        return;
      }
      ++P.PC;
      break;
    }
    case InstKind::Unlink: {
      Value V;
      if (!evalCode(ProcIndex, I.Code, V))
        return;
      if (H.unlink(V) != HeapStatus::OK) {
        fail(RuntimeErrorKind::UseAfterFree, I.Src->Loc,
             static_cast<int>(ProcIndex), "unlink of freed object");
        return;
      }
      ++P.PC;
      break;
    }
    case InstKind::Assert: {
      Value Cond;
      if (!evalCode(ProcIndex, I.Code, Cond))
        return;
      if (!Cond.asBool()) {
        fail(RuntimeErrorKind::AssertFailed, I.Src->Loc,
             static_cast<int>(ProcIndex),
             "assertion failed in process '" +
                 Module.Procs[ProcIndex].Proc->Name + "'");
        return;
      }
      ++P.PC;
      break;
    }
    case InstKind::Block:
      P.St = ProcState::Status::Blocked;
      prepareBlock(ProcIndex);
      if (Obs && !Error)
        Obs->onBlock(*this, ProcIndex,
                     I.Cases.empty() ? 0 : I.Cases[0].ChanId);
      return;
    case InstKind::Halt:
      P.St = ProcState::Status::Done;
      return;
    }
  }
}

void Machine::prepareBlock(unsigned ProcIndex) {
  ProcState &P = Procs[ProcIndex];
  const CInst &I = CP.Procs[ProcIndex].Insts[P.PC];
  size_t N = I.Cases.size();
  P.CaseEnabled.assign(N, 0);
  P.Prepared.assign(I.PrepSize, Value());
  P.PreparedValid.assign(N, 0);
  for (size_t C = 0; C != N; ++C) {
    const CCase &Case = I.Cases[C];
    if (!Case.Guard.empty()) {
      Value G;
      if (!evalCode(ProcIndex, Case.Guard, G))
        return;
      P.CaseEnabled[C] = G.asBool();
    } else {
      P.CaseEnabled[C] = true;
    }
    if (!P.CaseEnabled[C] || Case.IsIn || Case.LazyOut)
      continue;
    // Eagerly prepare the out value(s).
    std::span<const Value> Values;
    if (!outValues(ProcIndex, static_cast<unsigned>(C), Values))
      return;
  }
  addWaitBits(ProcIndex);
}

bool Machine::outValues(unsigned ProcIndex, unsigned CaseIndex,
                        std::span<const Value> &Values) {
  ProcState &P = Procs[ProcIndex];
  const CCase &Case = caseOf(ProcIndex, CaseIndex);
  if (!P.PreparedValid[CaseIndex]) {
    Value *Out = P.Prepared.data() + Case.PrepBegin;
    if (Case.ElideRecordAlloc) {
      for (size_t F = 0, NF = Case.ElideFields.size(); F != NF; ++F)
        if (!evalCode(ProcIndex, Case.ElideFields[F], Out[F]))
          return false;
    } else if (!evalCode(ProcIndex, Case.Out, Out[0])) {
      return false;
    }
    P.PreparedValid[CaseIndex] = 1;
  }
  Values = prepared(P, Case);
  return true;
}

void Machine::dropOutValues(const CCase &Case,
                            std::span<const Value> Values) {
  if (!Case.ElideRecordAlloc) {
    dropSenderTemp(Case.Src->Out, Values[0]);
    return;
  }
  const RecordLitExpr *R = ast_cast<RecordLitExpr>(Case.Src->Out);
  for (size_t F = 0, NF = R->getElems().size(); F != NF; ++F)
    dropSenderTemp(R->getElems()[F], Values[F]);
}

void Machine::resume(unsigned ProcIndex, unsigned CaseIndex) {
  clearWaitBits(ProcIndex);
  ProcState &P = Procs[ProcIndex];
  const CInst &I = CP.Procs[ProcIndex].Insts[P.PC];
  // Called exactly once per commit, at every Blocked -> Ready site, with
  // P.PC still at the Block instruction: the one place the winning case
  // is known.
  if (Obs) {
    Obs->onUnblock(*this, ProcIndex, I.Cases[CaseIndex].ChanId);
    if (I.Cases.size() > 1)
      Obs->onAltChoice(*this, ProcIndex, CaseIndex);
  }
  for (size_t C = 0, N = I.Cases.size(); C != N; ++C)
    if (C != CaseIndex && P.PreparedValid[C])
      dropOutValues(I.Cases[C], prepared(P, I.Cases[C]));
  P.Prepared.clear();
  P.PreparedValid.clear();
  P.CaseEnabled.clear();
  P.PC = I.Cases[CaseIndex].Target;
  P.St = ProcState::Status::Ready;
}

//===----------------------------------------------------------------------===//
// Pattern matching over channel values
//===----------------------------------------------------------------------===//

std::optional<Value> Machine::receiverAcquire(const Heap &From,
                                             const Value &V) {
  if (!V.isRef())
    return V;
  if (Options.DeepCopyTransfers || &From != &H)
    return deepCopy(From, V);
  if (H.link(V) != HeapStatus::OK) {
    fail(RuntimeErrorKind::UseAfterFree, SourceLoc(), -1,
         "receiving a freed object");
    return std::nullopt;
  }
  return V;
}

bool Machine::matchC(unsigned ReaderIndex, uint32_t PatIndex, const Value &V,
                     MatchMode Mode, const Heap &From) {
  const CompiledProc &CProc = CP.Procs[ReaderIndex];
  const CPat &Pat = CProc.Pats[PatIndex];
  if (Mode != MatchMode::CommitLocal)
    ++Stats.PatternMatchesTried;
  switch (Pat.Kind) {
  case PatternKind::Bind:
    switch (Mode) {
    case MatchMode::Try:
      return true;
    case MatchMode::CommitAcquire: {
      std::optional<Value> Acquired = receiverAcquire(From, V);
      if (!Acquired) {
        if (!Error)
          fail(RuntimeErrorKind::OutOfObjects, Pat.Src->getLoc(),
               static_cast<int>(ReaderIndex),
               "object table exhausted receiving a message");
        return false;
      }
      Procs[ReaderIndex].Slots[Pat.Slot] = *Acquired;
      return true;
    }
    case MatchMode::CommitLocal:
      Procs[ReaderIndex].Slots[Pat.Slot] = V;
      return true;
    }
    return false;
  case PatternKind::Match: {
    if (Mode != MatchMode::Try)
      return true; // Verified during the dry run.
    if (Pat.IsStatic)
      return Pat.Const == V.Scalar;
    Value Expected;
    if (!evalCode(ReaderIndex, Pat.Code, Expected))
      return false;
    return Expected.Scalar == V.Scalar;
  }
  case PatternKind::Record: {
    const HeapObject *Obj = From.deref(V);
    if (!Obj) {
      if (Mode != MatchMode::CommitLocal)
        fail(RuntimeErrorKind::UseAfterFree, Pat.Src->getLoc(),
             static_cast<int>(ReaderIndex), "matching a freed object");
      return false;
    }
    for (uint32_t I = 0; I != Pat.NumChildren; ++I) {
      // Re-dereference per child, and copy the element out: a commit's
      // deep copy may reallocate the object table.
      const Value Elem = From.deref(V)->Elems[I];
      if (!matchChild(ReaderIndex, CProc.PatChildren[Pat.ChildBegin + I],
                      Elem, Mode, From))
        return false;
    }
    return true;
  }
  case PatternKind::Union: {
    const HeapObject *Obj = From.deref(V);
    if (!Obj) {
      if (Mode != MatchMode::CommitLocal)
        fail(RuntimeErrorKind::UseAfterFree, Pat.Src->getLoc(),
             static_cast<int>(ReaderIndex), "matching a freed object");
      return false;
    }
    if (Obj->Arm != Pat.Arm)
      return false;
    Value Sub = Obj->Elems[0];
    return matchC(ReaderIndex, CProc.PatChildren[Pat.ChildBegin], Sub, Mode,
                  From);
  }
  }
  return false;
}

bool Machine::matchValues(unsigned ReaderIndex, uint32_t PatIndex,
                          std::span<const Value> Values, MatchMode Mode,
                          const Heap &From) {
  if (Values.size() == 1)
    return matchC(ReaderIndex, PatIndex, Values[0], Mode, From);
  // Elided record: the pattern is guaranteed to be a record pattern.
  const CompiledProc &CProc = CP.Procs[ReaderIndex];
  const CPat &Pat = CProc.Pats[PatIndex];
  assert(Pat.Kind == PatternKind::Record &&
         Pat.NumChildren == Values.size() && "elided field count mismatch");
  for (size_t I = 0, N = Values.size(); I != N; ++I)
    if (!matchChild(ReaderIndex, CProc.PatChildren[Pat.ChildBegin + I],
                    Values[I], Mode, From))
      return false;
  return true;
}

bool Machine::matchChild(unsigned ReaderIndex, uint32_t PatIndex,
                         const Value &V, MatchMode Mode, const Heap &From) {
  const CPat &Pat = CP.Procs[ReaderIndex].Pats[PatIndex];
  // A binder's dry run always matches, and a scalar needs no acquiring:
  // both are the recursive call's outcome and count, without the call.
  if (Pat.Kind == PatternKind::Bind &&
      (Mode == MatchMode::Try || !V.isRef())) {
    if (Mode != MatchMode::CommitLocal)
      ++Stats.PatternMatchesTried;
    if (Mode != MatchMode::Try)
      Procs[ReaderIndex].Slots[Pat.Slot] = V;
    return true;
  }
  return matchC(ReaderIndex, PatIndex, V, Mode, From);
}

CaseDisc Machine::discOfValues(std::span<const Value> Values) const {
  if (Values.size() != 1)
    return CaseDisc();
  return discOfValue(H, Values[0]);
}

CaseDisc Machine::discOfValue(const Heap &H, const Value &V) {
  CaseDisc D;
  if (V.isRef()) {
    const HeapObject *Obj = H.deref(V);
    if (Obj && Obj->ObjType->isUnion()) {
      D.Kind = CaseDisc::K::UnionArm;
      D.Arm = Obj->Arm;
    }
    return D;
  }
  if (V.K == Value::Kind::Int || V.K == Value::Kind::Bool) {
    D.Kind = CaseDisc::K::Scalar;
    D.Scalar = V.Scalar;
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Partner search
//===----------------------------------------------------------------------===//

template <typename Fn>
void Machine::forEachWaiter(uint32_t Chan, bool WantIn, int Self, Fn &&F) {
  const uint64_t *Mask = WantIn ? inWait(Chan) : outWait(Chan);
  for (unsigned Word = 0; Word != CP.MaskWords; ++Word) {
    for (uint64_t Bits = Mask[Word]; Bits; Bits &= Bits - 1) {
      unsigned P = Word * 64 + static_cast<unsigned>(std::countr_zero(Bits));
      if (static_cast<int>(P) == Self ||
          Procs[P].St != ProcState::Status::Blocked)
        continue;
      const std::vector<CCase> &Cases = CP.Procs[P].Insts[Procs[P].PC].Cases;
      for (unsigned C = 0, N = static_cast<unsigned>(Cases.size()); C != N;
           ++C)
        if (Cases[C].IsIn == WantIn && Cases[C].ChanId == Chan &&
            Procs[P].CaseEnabled[C] && !F(P, C))
          return;
    }
  }
}

template <typename Fn>
void Machine::forEachMatchingReader(uint32_t Chan, int Writer,
                                    const CCase *WCase,
                                    const std::span<const Value> *Values,
                                    Fn &&F) {
  const CaseDisc D = Values ? discOfValues(*Values) : CaseDisc();
  // Statically disjoint reader patterns: the first match is provably the
  // only one.
  const bool FirstOnly = WCase && CP.Channels[Chan].Disjoint;
  int Owner = -1;
  forEachWaiter(Chan, /*WantIn=*/true, Writer, [&](unsigned R, unsigned RC) {
    if (Values && !readerAdmits(R, RC, D, *Values, H))
      return !Error;
    if (WCase) {
      if (Owner >= 0 && Owner != static_cast<int>(R)) {
        fail(RuntimeErrorKind::AmbiguousDispatch, WCase->Src->Loc, Writer,
             "message on channel '" + WCase->Src->Channel->Name +
                 "' matches patterns in two processes");
        return false;
      }
      Owner = static_cast<int>(R);
    }
    return F(R, RC) && !FirstOnly;
  });
}

bool Machine::readerAdmits(unsigned Reader, unsigned Case, const CaseDisc &D,
                           std::span<const Value> Values, const Heap &From) {
  const CCase &RCase = caseOf(Reader, Case);
  return !discRejects(RCase.Disc, D) &&
         matchValues(Reader, RCase.Pat, Values, MatchMode::Try, From);
}

//===----------------------------------------------------------------------===//
// Transfer
//===----------------------------------------------------------------------===//

bool Machine::transfer(int WriterIndex, unsigned WriterCase, int ReaderIndex,
                       unsigned ReaderCase, std::span<const Value> EnvValues) {
  // 1. Obtain the value(s) from the writer side.
  std::span<const Value> Values = EnvValues;
  const Heap &From = WriterIndex >= 0 ? H : EnvTab->TemplateHeap;
  const CCase *WCase = nullptr;
  if (WriterIndex >= 0) {
    WCase = &caseOf(static_cast<unsigned>(WriterIndex), WriterCase);
    if (!outValues(static_cast<unsigned>(WriterIndex), WriterCase, Values))
      return false;
  } else {
    assert(!EnvValues.empty() && "environment send without values");
  }

  // 2. Deliver to the reader side.
  const CCase *RCase = nullptr;
  if (ReaderIndex >= 0) {
    RCase = &caseOf(static_cast<unsigned>(ReaderIndex), ReaderCase);
    if (!matchValues(static_cast<unsigned>(ReaderIndex), RCase->Pat, Values,
                     MatchMode::Try, From)) {
      if (!Error)
        fail(RuntimeErrorKind::NoMatchingPattern, RCase->Src->Loc,
             ReaderIndex,
             "committed transfer does not match the reader pattern");
      return false;
    }
    if (!matchValues(static_cast<unsigned>(ReaderIndex), RCase->Pat, Values,
                     MatchMode::CommitAcquire, From))
      return false;
  }
  ++Stats.Rendezvous;
  if (Obs) {
    uint32_t Chan = WCase ? WCase->ChanId : RCase->ChanId;
    Obs->onSend(*this, Chan, WriterIndex);
    Obs->onRecv(*this, Chan, ReaderIndex);
  }

  // 3. Writer-side cleanup and advance. An environment template stays
  // as it is: the receiver acquired copies of what it binds.
  if (WriterIndex >= 0) {
    dropOutValues(*WCase, Values);
    resume(static_cast<unsigned>(WriterIndex), WriterCase);
  }

  // 4. Reader-side advance.
  if (ReaderIndex >= 0)
    resume(static_cast<unsigned>(ReaderIndex), ReaderCase);
  return !Error;
}

//===----------------------------------------------------------------------===//
// Execution-mode scheduling
//===----------------------------------------------------------------------===//

int Machine::popReady() {
  while (!ReadyQueue.empty()) {
    // FIFO drain prevents starvation; the rendezvous initiator is pushed
    // to the front, which realizes the stack-based continue-the-current-
    // process policy (§6.1) without starving parked peers.
    unsigned P = ReadyQueue.front();
    ReadyQueue.pop_front();
    if (Procs[P].St == ProcState::Status::Ready)
      return static_cast<int>(P);
  }
  return -1;
}

namespace {

/// The binder values of one external message, in a buffer borrowed from
/// the calling thread and given back, capacity and all: the machines on a
/// thread share it, so external traffic neither allocates nor costs
/// memory per machine. A nested borrow (a binding that drives another
/// machine) finds the spare empty and allocates.
struct BinderBuffer {
  static thread_local std::vector<Value> Spare;
  std::vector<Value> Values = std::move(Spare);

  BinderBuffer() = default;
  ~BinderBuffer() {
    Values.clear();
    Spare = std::move(Values);
  }
  BinderBuffer(const BinderBuffer &) = delete;
  BinderBuffer &operator=(const BinderBuffer &) = delete;
};

thread_local std::vector<Value> BinderBuffer::Spare;

} // namespace

bool Machine::tryExternalOut(unsigned ProcIndex, unsigned CaseIndex) {
  const CCase &Case = caseOf(ProcIndex, CaseIndex);
  ExternalReader *Reader = Readers[Case.ChanId].get();
  if (!Reader || !Reader->isReady())
    return false;
  std::span<const Value> Values;
  if (!outValues(ProcIndex, CaseIndex, Values))
    return false;
  // Dispatch over the interface cases to find the matching one and
  // extract its binder-leaf values.
  const InterfaceDecl *Iface = Case.Src->Channel->Interface;
  assert(Iface && "external-reader channel without interface");
  assert(!Case.ElideRecordAlloc &&
         "record elision is disabled on external channels");
  const Value &V = Values[0];
  BinderBuffer Buffer;
  std::vector<Value> &Binders = Buffer.Values;
  for (size_t C = 0, N = Iface->Cases.size(); C != N; ++C) {
    Binders.clear();
    if (!extractInterfaceBinders(Iface->Cases[C].Pat, V, Binders)) {
      if (Error)
        return false;
      continue;
    }
    Reader->consume(static_cast<int>(C) + 1, H, Binders);
    ++Stats.ExternalConsumes;
    if (Obs) {
      Obs->onSend(*this, Case.ChanId, static_cast<int>(ProcIndex));
      Obs->onRecv(*this, Case.ChanId, -1);
    }
    dropOutValues(Case, Values);
    resume(ProcIndex, CaseIndex);
    return true;
  }
  fail(RuntimeErrorKind::NoMatchingPattern, Case.Src->Loc,
       static_cast<int>(ProcIndex),
       "message on external channel '" + Case.Src->Channel->Name +
           "' matches no interface case");
  return false;
}

bool Machine::tryPair(unsigned ProcIndex) {
  ProcState &P = Procs[ProcIndex];
  if (P.St != ProcState::Status::Blocked)
    return false;
  const int Self = static_cast<int>(ProcIndex);
  const CInst &I = CP.Procs[ProcIndex].Insts[P.PC];
  size_t N = I.Cases.size();
  std::span<const Value> Values;
  for (size_t CO = 0; CO != N; ++CO) {
    // Rotate the starting case to avoid starving later alternatives.
    unsigned C = static_cast<unsigned>((CO + PollRotor) % N);
    if (!P.CaseEnabled[C])
      continue;
    const CCase &Case = I.Cases[C];
    int Peer = -1;
    unsigned PeerCase = 0;
    // A MatchFree lazy writer pairs without materializing its value:
    // allocation is postponed to the commit (§6.1).
    bool Lazy = !Case.IsIn && Case.LazyOut && Case.MatchFree;
    if (Case.IsIn) {
      // The first blocked writer whose message our pattern admits.
      auto TakeWriter = [&](unsigned W, unsigned WC) {
        const CCase &WCase = caseOf(W, WC);
        Lazy = WCase.LazyOut && WCase.MatchFree;
        if (!Lazy) {
          if (!outValues(W, WC, Values))
            return false;
          if (discRejects(Case.Disc, discOfValues(Values)) ||
              !matchValues(ProcIndex, Case.Pat, Values, MatchMode::Try, H))
            return !Error;
        }
        Peer = static_cast<int>(W);
        PeerCase = WC;
        return false;
      };
      forEachWaiter(Case.ChanId, /*WantIn=*/false, Self, TakeWriter);
      // The message may match readers in other processes too: check
      // ambiguity from the writer's side, as when the writer starts.
      if (Peer >= 0 && !CP.Channels[Case.ChanId].Disjoint)
        forEachMatchingReader(Case.ChanId, Peer, &caseOf(Peer, PeerCase),
                              Lazy ? nullptr : &Values,
                              [](unsigned, unsigned) { return true; });
    } else {
      if (!Lazy && !outValues(ProcIndex, C, Values))
        return false;
      auto KeepFirst = [&](unsigned R, unsigned RC) {
        if (Peer < 0) {
          Peer = static_cast<int>(R);
          PeerCase = RC;
        }
        return true;
      };
      forEachMatchingReader(Case.ChanId, Self, &Case,
                            Lazy ? nullptr : &Values, KeepFirst);
    }
    if (Error)
      return false;
    if (Peer >= 0) {
      if (!(Case.IsIn ? transfer(Peer, PeerCase, Self, C)
                      : transfer(Self, C, Peer, PeerCase)))
        return false;
      // Stack-based policy: the peer joins the ready queue; the initiator
      // goes to the front so the next pop continues it.
      ReadyQueue.push_back(static_cast<unsigned>(Peer));
      ReadyQueue.push_front(ProcIndex);
      return true;
    }
    // Or hand it to an external reader.
    if (!Case.IsIn && Readers[Case.ChanId] && tryExternalOut(ProcIndex, C)) {
      ReadyQueue.push_back(ProcIndex);
      return true;
    }
    if (Error)
      return false;
  }
  return false;
}

std::optional<Value>
Machine::buildFromInterfacePattern(const Pattern *Pat,
                                   const std::vector<Value> &Binders,
                                   size_t &Next) {
  switch (Pat->getKind()) {
  case PatternKind::Bind: {
    assert(Next < Binders.size() && "interface binding produced too few "
                                    "values");
    return Binders[Next++];
  }
  case PatternKind::Match: {
    std::optional<int64_t> V =
        tryEvalStatic(ast_cast<MatchPattern>(Pat)->getValue(), nullptr);
    assert(V && "interface constants are checked by Sema");
    return Pat->getType()->isBool() ? Value::makeBool(*V != 0)
                                    : Value::makeInt(*V);
  }
  case PatternKind::Record: {
    const RecordPattern *R = ast_cast<RecordPattern>(Pat);
    std::optional<Value> Obj =
        H.allocate(Pat->getType(), R->getElems().size());
    if (!Obj) {
      fail(RuntimeErrorKind::OutOfObjects, Pat->getLoc(), -1,
           "object table exhausted building external message");
      return std::nullopt;
    }
    notifyAlloc(*Obj);
    for (size_t I = 0, N = R->getElems().size(); I != N; ++I) {
      std::optional<Value> Elem =
          buildFromInterfacePattern(R->getElems()[I], Binders, Next);
      if (!Elem)
        return std::nullopt;
      // Binder-provided aggregates arrive as owned temps from the
      // binding; the construction edge takes that ownership.
      H.deref(*Obj)->Elems[I] = *Elem;
    }
    return Obj;
  }
  case PatternKind::Union: {
    const UnionPattern *U = ast_cast<UnionPattern>(Pat);
    std::optional<Value> Obj = H.allocate(Pat->getType(), 1);
    if (!Obj) {
      fail(RuntimeErrorKind::OutOfObjects, Pat->getLoc(), -1,
           "object table exhausted building external message");
      return std::nullopt;
    }
    notifyAlloc(*Obj);
    std::optional<Value> Sub =
        buildFromInterfacePattern(U->getSub(), Binders, Next);
    if (!Sub)
      return std::nullopt;
    HeapObject *ObjPtr = H.deref(*Obj);
    ObjPtr->Arm = U->getFieldIndex();
    ObjPtr->Elems[0] = *Sub;
    return Obj;
  }
  }
  return std::nullopt;
}

bool Machine::extractInterfaceBinders(const Pattern *Pat, const Value &V,
                                      std::vector<Value> &Out) {
  switch (Pat->getKind()) {
  case PatternKind::Bind:
    Out.push_back(V);
    return true;
  case PatternKind::Match: {
    std::optional<int64_t> Expected =
        tryEvalStatic(ast_cast<MatchPattern>(Pat)->getValue(), nullptr);
    return Expected && *Expected == V.Scalar;
  }
  case PatternKind::Record: {
    const RecordPattern *R = ast_cast<RecordPattern>(Pat);
    const HeapObject *Obj = H.deref(V);
    if (!Obj) {
      fail(RuntimeErrorKind::UseAfterFree, Pat->getLoc(), -1,
           "external dispatch on freed object");
      return false;
    }
    // The walk allocates no heap object, so Obj stays valid throughout.
    for (size_t I = 0, N = R->getElems().size(); I != N; ++I)
      if (!extractInterfaceBinders(R->getElems()[I], Obj->Elems[I], Out))
        return false;
    return true;
  }
  case PatternKind::Union: {
    const UnionPattern *U = ast_cast<UnionPattern>(Pat);
    const HeapObject *Obj = H.deref(V);
    if (!Obj) {
      fail(RuntimeErrorKind::UseAfterFree, Pat->getLoc(), -1,
           "external dispatch on freed object");
      return false;
    }
    if (Obj->Arm != U->getFieldIndex())
      return false;
    Value Sub = Obj->Elems[0];
    return extractInterfaceBinders(U->getSub(), Sub, Out);
  }
  }
  return false;
}

bool Machine::deliverExternalIn(unsigned ChannelId) {
  ExternalWriter *Writer = Writers[ChannelId].get();
  if (!Writer)
    return false;
  int CaseIndex = Writer->isReady();
  if (CaseIndex <= 0)
    return false;
  // Channel ids are declaration indices.
  const ChannelDecl *Chan = Module.Prog->Channels[ChannelId].get();
  assert(Chan->Id == ChannelId && Chan->Interface && "bad external channel");
  const InterfaceCase &ICase =
      Chan->Interface->Cases[static_cast<size_t>(CaseIndex) - 1];

  BinderBuffer Buffer;
  std::vector<Value> &Binders = Buffer.Values;
  Writer->produce(CaseIndex, H, Binders);
  size_t Next = 0;
  std::optional<Value> V =
      buildFromInterfacePattern(ICase.Pat, Binders, Next);
  if (!V)
    return false;

  // The first blocked reader whose pattern matches takes the message.
  std::span<const Value> Values(&*V, 1);
  int R = -1;
  unsigned RC = 0;
  auto TakeFirst = [&](unsigned Reader, unsigned ReaderCase) {
    R = static_cast<int>(Reader);
    RC = ReaderCase;
    return false;
  };
  forEachMatchingReader(ChannelId, /*Writer=*/-1, nullptr, &Values,
                        TakeFirst);
  if (Error)
    return false;
  if (R < 0) {
    // No process is waiting for this message right now; drop it back. A
    // real firmware would leave it in the device queue; our bindings are
    // required to re-offer it on the next poll, so releasing the built
    // value is safe.
    dropValueTemp(*V, ICase.Loc, -1);
    return false;
  }
  unsigned Reader = static_cast<unsigned>(R);
  if (!matchValues(Reader, caseOf(Reader, RC).Pat, Values,
                   MatchMode::CommitAcquire, H))
    return false;
  Writer->accepted(CaseIndex);
  if (Obs) {
    Obs->onSend(*this, ChannelId, -1);
    Obs->onRecv(*this, ChannelId, R);
  }
  dropValueTemp(*V, ICase.Loc, -1);
  resume(Reader, RC);
  ReadyQueue.push_back(Reader);
  ++Stats.ExternalDeliveries;
  ++Stats.Rendezvous;
  return true;
}

bool Machine::tryExternalOuts(unsigned CaseRotor) {
  for (unsigned Word = 0; Word != CP.MaskWords; ++Word) {
    // The processes of this word with a writer bit on an external-reader
    // channel.
    uint64_t Waiting = 0;
    for (uint32_t Chan : CP.ExternalReaderChans)
      Waiting |= outWait(Chan)[Word];
    for (uint64_t Bits = Waiting; Bits; Bits &= Bits - 1) {
      unsigned P = Word * 64 + static_cast<unsigned>(std::countr_zero(Bits));
      if (Procs[P].St != ProcState::Status::Blocked)
        continue;
      const CInst &I = CP.Procs[P].Insts[Procs[P].PC];
      for (size_t CO = 0, N = I.Cases.size(); CO != N; ++CO) {
        unsigned C = static_cast<unsigned>((CO + CaseRotor) % N);
        const CCase &Case = I.Cases[C];
        if (Case.IsIn || !Procs[P].CaseEnabled[C] || !Readers[Case.ChanId])
          continue;
        if (tryExternalOut(P, C)) {
          ReadyQueue.push_back(P);
          return true;
        }
        if (Error)
          return false;
      }
    }
  }
  return false;
}

bool Machine::pollExternals() {
  ++Stats.PollRounds;
  // Poll the external writers (message arrival) in the rotated
  // channel-id order that starts at PollRotor; skipping the channels no
  // external code writes leaves that order as it is.
  const std::vector<uint32_t> &Chans = CP.ExternalWriterChans;
  if (const size_t NW = Chans.size()) {
    const uint32_t First = PollRotor % static_cast<uint32_t>(Writers.size());
    const size_t Start =
        std::lower_bound(Chans.begin(), Chans.end(), First) - Chans.begin();
    for (size_t Off = 0; Off != NW; ++Off) {
      if (deliverExternalIn(Chans[(Start + Off) % NW]))
        return true;
      if (Error)
        return false;
    }
  }
  // Poll external readers (blocked processes wanting to emit).
  return tryExternalOuts(/*CaseRotor=*/0);
}

StepResult Machine::step() {
  StepResult Result = stepImpl();
  if (Obs)
    Obs->onStep(*this, Result);
  return Result;
}

StepResult Machine::stepImpl() {
  assert(Started && "call start() first");
  if (Error)
    return StepResult::Errored;
  ++PollRotor;

  int Next = popReady();
  if (Next < 0) {
    if (allDone())
      return StepResult::Halted;
    // Resolve any internal rendezvous between parked processes: the block
    // points reached outside step(), while a scan still pairs. Past that,
    // the scan can only find an external reader that became ready.
    bool Paired = false;
    if (ScanPairs) {
      for (unsigned I = 0, E = Procs.size(); I != E && !Paired; ++I) {
        if (Procs[I].St != ProcState::Status::Blocked)
          continue;
        Paired = tryPair(I);
        if (Error)
          return StepResult::Errored;
      }
      ScanPairs = Paired;
    } else {
      Paired = tryExternalOuts(PollRotor);
      if (Error)
        return StepResult::Errored;
    }
    // Idle loop: poll external channels (§6.1).
    if (!Paired && !pollExternals())
      return Error ? StepResult::Errored : StepResult::Quiescent;
    Next = popReady();
    if (Next < 0)
      return StepResult::Progress;
  }
  if (Current != Next) {
    ++Stats.ContextSwitches;
    Current = Next;
  }

  runToBlock(static_cast<unsigned>(Next));
  if (Error)
    return StepResult::Errored;
  ProcState &P = Procs[Next];
  if (P.St == ProcState::Status::Done)
    return allDone() ? StepResult::Halted : StepResult::Progress;
  assert(P.St == ProcState::Status::Blocked);
  tryPair(static_cast<unsigned>(Next));
  return Error ? StepResult::Errored : StepResult::Progress;
}

StepResult Machine::run(uint64_t MaxSteps) {
  StepResult Result = StepResult::Progress;
  for (uint64_t I = 0; I != MaxSteps; ++I) {
    Result = step();
    if (Result != StepResult::Progress)
      return Result;
  }
  return Result;
}

bool Machine::allDone() const {
  for (const ProcState &P : Procs)
    if (P.St != ProcState::Status::Done)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Verification mode
//===----------------------------------------------------------------------===//

std::vector<Move> Machine::enumerateMoves() {
  std::vector<Move> Moves = enumerateMovesImpl();
  // Undo the lazy-out preparation done while probing: enumeration must
  // not perturb the serializable state. The model checker's snapshot-free
  // DFS re-derives frame states by replaying moves from sparse
  // checkpoints and relies on enumeration being canonically pure.
  for (unsigned I = 0, E = static_cast<unsigned>(Procs.size()); I != E; ++I) {
    ProcState &P = Procs[I];
    if (P.St != ProcState::Status::Blocked)
      continue;
    const CInst &Ins = CP.Procs[I].Insts[P.PC];
    size_t N = std::min(Ins.Cases.size(), P.PreparedValid.size());
    for (size_t C = 0; C != N; ++C) {
      const CCase &Case = Ins.Cases[C];
      if (!P.PreparedValid[C] || Case.IsIn || !Case.LazyOut)
        continue;
      dropOutValues(Case, prepared(P, Case));
      P.PreparedValid[C] = 0;
    }
  }
  return Moves;
}

std::vector<Move> Machine::enumerateMovesImpl() {
  std::vector<Move> Moves;
  if (Error)
    return Moves;
  unsigned NP = static_cast<unsigned>(Procs.size());
  for (unsigned W = 0; W != NP; ++W) {
    if (Procs[W].St != ProcState::Status::Blocked)
      continue;
    const CInst &WI = CP.Procs[W].Insts[Procs[W].PC];
    for (unsigned WC = 0, NW = static_cast<unsigned>(WI.Cases.size());
         WC != NW; ++WC) {
      const CCase &WCase = WI.Cases[WC];
      if (WCase.IsIn || !Procs[W].CaseEnabled[WC])
        continue;
      std::span<const Value> Values;
      if (!outValues(W, WC, Values))
        return Moves;
      const uint32_t Chan = WCase.ChanId;
      const size_t NumRendezvous = Moves.size();
      auto AddRendezvous = [&](unsigned R, unsigned RC) {
        Moves.push_back({.K = Move::Kind::Rendezvous, .Channel = Chan,
                         .Writer = static_cast<int>(W), .WriterCase = WC,
                         .Reader = static_cast<int>(R), .ReaderCase = RC});
        return true;
      };
      forEachMatchingReader(Chan, static_cast<int>(W), &WCase, &Values,
                            AddRendezvous);
      if (Error)
        return Moves;
      // Environment receive, on a channel the environment does not drive:
      // an external-reader channel, or (per-process harness mode) one no
      // reader matched and no other process can ever read (the
      // precomputed static-reader masks answer that in O(words)).
      auto OtherStaticReader = [&] {
        const std::vector<uint64_t> &Bits = CP.Channels[Chan].StaticReaders;
        for (unsigned Word = 0; Word != CP.MaskWords; ++Word) {
          uint64_t Others = Bits[Word];
          if (Word == W / 64)
            Others &= ~(uint64_t(1) << (W % 64));
          if (Others)
            return true;
        }
        return false;
      };
      if (Env && EnvTab->Channels[Chan].NumVariants == 0 &&
          (WCase.Src->Channel->Role == ChannelRole::ExternalReader ||
           (Moves.size() == NumRendezvous && !OtherStaticReader())))
        Moves.push_back({.K = Move::Kind::EnvRecv,
                         .Channel = Chan,
                         .Writer = static_cast<int>(W),
                         .WriterCase = WC});
    }
  }

  // Environment sends (per channel, skipped once that channel's finite
  // workload budget is spent). Only channels with a blocked reader cost
  // anything. The variants come from the readers' admission tables, in
  // variant order and each variant's readers in waiter order; only a
  // pattern that reads process state is dry-run, and only on the
  // variants its dispatch entry admits. Nothing is allocated.
  if (!Env)
    return Moves;
  std::vector<EnvTables::BlockedReader> &EnvReaders = EnvTab->Readers;
  const std::vector<uint64_t> &Admit = EnvTab->AdmitWords;
  for (uint32_t ChanId : EnvTab->SendChannels) {
    if (Options.EnvSendBudget != 0 &&
        EnvSends[ChanId] >= Options.EnvSendBudget)
      continue;
    EnvReaders.clear();
    forEachWaiter(ChanId, /*WantIn=*/true, /*Self=*/-1,
                  [&](unsigned R, unsigned RC) {
                    EnvReaders.push_back({R, RC, admission(R, RC)});
                    return true;
                  });
    if (EnvReaders.empty())
      continue;
    const EnvChannel &EC = EnvTab->Channels[ChanId];
#ifndef NDEBUG
    // A static pattern's bits stand for a dry run at every state: redo
    // the dry runs here, where the reader's slots differ from the state
    // the table was built in, and compare.
    const uint64_t Tried = Stats.PatternMatchesTried;
    for (const auto &[R, RC, At] : EnvReaders) {
      if (!caseOf(R, RC).StaticPat)
        continue;
      for (unsigned V = 0; V != EC.NumVariants; ++V)
        assert(readerAdmits(R, RC, EC.Discs[V], {&EC.Templates[V], 1},
                            EnvTab->TemplateHeap) ==
                   bool(Admit[At + V / 64] >> (V % 64) & 1) &&
               "an admission bit disagrees with the dry run");
    }
    Stats.PatternMatchesTried = Tried;
#endif
    for (uint32_t Word = 0, Words = (EC.NumVariants + 63) / 64; Word != Words;
         ++Word) {
      uint64_t Any = 0;
      for (const EnvTables::BlockedReader &Rd : EnvReaders)
        Any |= Admit[Rd.Admit + Word];
      for (; Any; Any &= Any - 1) {
        const unsigned Bit = static_cast<unsigned>(std::countr_zero(Any));
        const unsigned Variant = Word * 64 + Bit;
        for (const auto &[R, RC, At] : EnvReaders) {
          if (!(Admit[At + Word] >> Bit & 1))
            continue;
          if (!caseOf(R, RC).StaticPat &&
              !matchValues(R, caseOf(R, RC).Pat, {&EC.Templates[Variant], 1},
                           MatchMode::Try, EnvTab->TemplateHeap)) {
            if (Error)
              return Moves;
            continue;
          }
          Moves.push_back({.K = Move::Kind::EnvSend, .Channel = ChanId,
                           .Reader = static_cast<int>(R), .ReaderCase = RC,
                           .EnvVariant = Variant});
        }
      }
    }
  }
  return Moves;
}

uint32_t Machine::admission(unsigned Reader, unsigned Case) {
  const CCase &RCase = caseOf(Reader, Case);
  uint32_t &At = EnvTab->AdmitAt[EnvTab->PatBase[Reader] + RCase.Pat];
  if (At != 0)
    return At - 1;
  const EnvChannel &EC = envChannel(RCase.ChanId);
  std::vector<uint64_t> &Words = EnvTab->AdmitWords;
  const uint32_t Begin = static_cast<uint32_t>(Words.size());
  Words.resize(Begin + (EC.NumVariants + 63) / 64, 0);
  // Building the table is not a match the search performs: the counter
  // keeps counting the dry runs enumeration does.
  const uint64_t Tried = Stats.PatternMatchesTried;
  for (unsigned Variant = 0; Variant != EC.NumVariants; ++Variant) {
    const CaseDisc &D = EC.Discs[Variant];
    std::span<const Value> Values(&EC.Templates[Variant], 1);
    const bool Admits =
        RCase.StaticPat
            ? readerAdmits(Reader, Case, D, Values, EnvTab->TemplateHeap)
            : !discRejects(RCase.Disc, D);
    Words[Begin + Variant / 64] |= uint64_t(Admits) << (Variant % 64);
  }
  Stats.PatternMatchesTried = Tried;
  At = Begin + 1;
  return Begin;
}

StepResult Machine::applyMove(const Move &M) {
  assert(!Error && "applying a move to a failed machine");
  ScanPairs = true; // Its block points get no tryPair.
  switch (M.K) {
  case Move::Kind::Rendezvous: {
    if (transfer(M.Writer, M.WriterCase, M.Reader, M.ReaderCase)) {
      runToBlock(static_cast<unsigned>(M.Writer));
      if (!Error)
        runToBlock(static_cast<unsigned>(M.Reader));
    }
    break;
  }
  case Move::Kind::EnvSend: {
    // The receiver's pattern acquires a copy of the template, straight
    // into the state heap.
    const Value &V = envChannel(M.Channel).Templates[M.EnvVariant];
    ++EnvSends[M.Channel];
    if (transfer(-1, 0, M.Reader, M.ReaderCase, {&V, 1}))
      runToBlock(static_cast<unsigned>(M.Reader));
    break;
  }
  case Move::Kind::EnvRecv: {
    if (transfer(M.Writer, M.WriterCase, -1, 0))
      runToBlock(static_cast<unsigned>(M.Writer));
    break;
  }
  }
  if (Error)
    return StepResult::Errored;
  return allDone() ? StepResult::Halted : StepResult::Progress;
}

bool Machine::stuckOnEnvBudget() {
  if (Options.EnvSendBudget == 0 || Error)
    return false;
  bool AnySpent = false;
  for (uint32_t N : EnvSends)
    AnySpent |= N >= Options.EnvSendBudget;
  if (!AnySpent)
    return false;
  std::vector<uint32_t> Saved = EnvSends;
  std::fill(EnvSends.begin(), EnvSends.end(), 0u);
  bool Any = !enumerateMoves().empty();
  EnvSends = std::move(Saved);
  return Any && !Error;
}

//===----------------------------------------------------------------------===//
// Snapshot, serialization, leak sweep
//===----------------------------------------------------------------------===//

Machine::Snapshot Machine::snapshot() const {
  Snapshot S;
  snapshot(S);
  return S;
}

void Machine::snapshot(Snapshot &Out) const {
  Out.H = H;
  Out.Procs = Procs;
  Out.Error = Error;
  Out.Started = Started;
  Out.EnvSends = EnvSends;
}

void Machine::restore(const Snapshot &S) {
  H = S.H;
  Procs = S.Procs;
  Error = S.Error;
  Started = S.Started;
  EnvSends = S.EnvSends;
  ReadyQueue.clear();
  Current = -1;
  ScanPairs = true;
  rebuildWaitBits();
}

size_t Machine::snapshotBytes() const {
  size_t Bytes = sizeof(Snapshot) + H.bytes() +
                 EnvSends.size() * sizeof(uint32_t) + Error.Message.size();
  for (const ProcState &P : Procs)
    Bytes += sizeof(ProcState) +
             (P.Slots.size() + P.Prepared.size()) * sizeof(Value) +
             P.CaseEnabled.size() + P.PreparedValid.size();
  return Bytes;
}

namespace {

/// Per-thread serializer scratch. Canonical ids of the objects one
/// serialization has visited live in a flat table indexed by Value::Ref;
/// an entry counts only when its epoch is the current serialization's, so
/// each serialization starts from an empty table by bumping the epoch
/// instead of clearing anything. Thread-local: concurrent serializations
/// (one per search worker) never share it.
struct SerializerScratch {
  struct Entry {
    uint32_t Epoch = 0;
    uint32_t Id = 0;
  };
  std::vector<Entry> Entries;
  uint32_t Epoch = 0;

  /// Starts a serialization over a heap of \p NumObjects slots.
  void begin(size_t NumObjects) {
    if (Entries.size() < NumObjects)
      Entries.resize(NumObjects);
    if (++Epoch == 0) { // Wrapped: stale stamps could alias the new epoch.
      std::fill(Entries.begin(), Entries.end(), Entry());
      Epoch = 1;
    }
  }
};

thread_local SerializerScratch Scratch;

/// Canonical state serializer into one flat vector. Heap references
/// serialize as canonical ids assigned in first-visit order, never as raw
/// objectIds, so states differing only in allocation order (ids,
/// generations, free-list order) coincide; an object's contents follow
/// its first-visit marker, and its type is written as the type's dense
/// id, so the vector does not depend on where anything sits in memory.
/// Ids count from the start of the current segment (segment());
/// a reference back into an earlier segment writes the object's id in
/// the whole vector instead.
///
/// The bytes go through a raw cursor into \p Out. Space is reserved once
/// per run of values (a slot array, a prepared span, an object's
/// elements): two bytes per value, enough for every value but a wide Int
/// or a reference, whose out-of-line paths reserve for themselves. Each run
/// writes through a local copy of the cursor, which no char store can
/// alias. The string only grows when a vector outgrows the previous one;
/// finish() trims it to the bytes written.
class StateSerializer {
public:
  StateSerializer(const Heap &H, std::string &Out)
      : H(H), Out(Out), S(Scratch), Cur(Out.data()),
        End(Out.data() + Out.size()) {
    S.begin(H.objects().size());
  }

  /// Trims the output to the bytes written. Returns the number of
  /// distinct heap objects reached.
  size_t finish() {
    Out.resize(static_cast<size_t>(Cur - Out.data()));
    return NumObjects;
  }

  /// Process \p P's segment: its status byte and PC, its slots, then a
  /// valid byte per case of the block it waits at, each valid one
  /// followed by the case's prepared values. Canonical ids restart here.
  void segment(const ProcState &P, const CompiledProc &CProc) {
    SegBase = NumObjects;
    reserve(1 + kMaxVarint32);
    char *Pos = Cur;
    *Pos++ = static_cast<char>(P.St);
    Cur = varint(Pos, P.PC);
    values(P.Slots);
    if (P.PreparedValid.empty())
      return;
    const std::vector<CCase> &Cases = CProc.Insts[P.PC].Cases;
    for (size_t C = 0; C != P.PreparedValid.size(); ++C) {
      byte(P.PreparedValid[C] ? 1 : 0);
      if (P.PreparedValid[C])
        values({P.Prepared.data() + Cases[C].PrepBegin, Cases[C].PrepCount});
    }
  }

  /// A run of values.
  void values(std::span<const Value> Vs) {
    reserve(kValueBytes * Vs.size());
    char *P = Cur;
    for (size_t I = 0, N = Vs.size(); I != N; ++I) {
      if (narrow(P, Vs[I]))
        continue;
      Cur = P;
      if (Vs[I].isRef())
        ref(Vs[I]);
      else
        wideInt(Vs[I].Scalar);
      reserve(kValueBytes * (N - I - 1));
      P = Cur;
    }
    Cur = P;
  }

private:
  /// Bytes reserved per value of a run: a kind byte plus a one-byte
  /// payload.
  static constexpr size_t kValueBytes = 2;
  static constexpr size_t kMaxVarint32 = 5;
  static constexpr size_t kMaxVarint64 = 10;

  /// Writes \p V at \p P if it fits in kValueBytes: Uninit, Bool, or an
  /// Int whose zigzag encoding fits one byte. False leaves P unchanged.
  void byte(uint8_t B) {
    reserve(1);
    *Cur++ = static_cast<char>(B);
  }

  static bool narrow(char *&P, const Value &V) {
    switch (V.K) {
    case Value::Kind::Int: {
      uint64_t Z = zigzagEncode(V.Scalar);
      if (Z >= 0x80)
        return false;
      P[0] = 1;
      P[1] = static_cast<char>(Z);
      P += 2;
      return true;
    }
    case Value::Kind::Uninit:
      *P++ = 0;
      return true;
    case Value::Kind::Bool:
      P[0] = 2;
      P[1] = V.Scalar ? 1 : 0;
      P += 2;
      return true;
    case Value::Kind::Ref:
      return false;
    }
    return false;
  }

  void reserve(size_t N) {
    if (static_cast<size_t>(End - Cur) < N) [[unlikely]]
      grow(N);
  }

  /// Makes room for \p Need more bytes, growing the string to at least
  /// its capacity so that later calls rarely grow again.
  [[gnu::noinline]] void grow(size_t Need) {
    size_t Len = static_cast<size_t>(Cur - Out.data());
    Out.resize(std::max({Len + Need, 2 * Out.size() + 64, Out.capacity()}));
    Cur = Out.data() + Len;
    End = Out.data() + Out.size();
  }

  /// Unsigned LEB128 of \p V into reserved space at \p P; returns the
  /// end.
  static char *varint(char *P, uint64_t V) {
    while (V >= 0x80) {
      *P++ = static_cast<char>(V | 0x80);
      V >>= 7;
    }
    *P++ = static_cast<char>(V);
    return P;
  }

  /// An Int that narrow() declined.
  [[gnu::noinline]] void wideInt(int64_t V) {
    reserve(1 + kMaxVarint64);
    *Cur = 1;
    Cur = varint(Cur + 1, zigzagEncode(V));
  }

  /// Kept out of line, like wideInt(), so that narrow() stays small
  /// enough to inline into every run.
  [[gnu::noinline]] void ref(const Value &V) {
    const HeapObject *Obj = H.deref(V);
    if (!Obj) {
      byte(3); // Dangling reference: canonical "dead".
      return;
    }
    // deref() matched the slot's generation, so the slot index alone
    // identifies the object while the heap is not mutated. Entries hold
    // ids in the whole vector; the current segment's start at SegBase.
    SerializerScratch::Entry &Seen = S.Entries[V.Ref];
    if (Seen.Epoch == S.Epoch) {
      reserve(1 + kMaxVarint32);
      if (Seen.Id >= SegBase) {
        *Cur = 4; // Back reference within the segment.
        Cur = varint(Cur + 1, Seen.Id - SegBase);
      } else {
        *Cur = 6; // Cross reference into an earlier segment.
        Cur = varint(Cur + 1, Seen.Id);
      }
      return;
    }
    uint32_t Id = static_cast<uint32_t>(NumObjects++);
    Seen = {S.Epoch, Id};
    reserve(1 + 4 * kMaxVarint32 + kMaxVarint64);
    char *P = Cur;
    *P++ = 5; // First visit.
    P = varint(P, Id - SegBase);
    P = varint(P, Obj->ObjType->id());
    P = varint(P, zigzagEncode(Obj->Arm));
    P = varint(P, Obj->RefCount);
    Cur = varint(P, Obj->Elems.size());
    values(Obj->Elems);
  }

  const Heap &H;
  std::string &Out;
  SerializerScratch &S;
  char *Cur;
  char *End;
  size_t NumObjects = 0;
  /// Id of the current segment's first object.
  size_t SegBase = 0;
};

} // namespace

std::string Machine::serializeState() const {
  std::string Out;
  serializeState(Out);
  return Out;
}

size_t Machine::serializeState(std::string &Out) const {
  StateSerializer S(H, Out);
  for (unsigned I = 0, E = static_cast<unsigned>(Procs.size()); I != E; ++I)
    S.segment(Procs[I], CP.Procs[I]);
  size_t Reached = S.finish();
  appendStateTail(Out, Error.Kind, envSends());
  return Reached;
}

size_t Machine::serializeProcess(unsigned Proc, std::string &Out) const {
  StateSerializer S(H, Out);
  S.segment(Procs[Proc], CP.Procs[Proc]);
  return S.finish();
}

void Machine::appendStateTail(std::string &Out, RuntimeErrorKind Error,
                              std::span<const uint32_t> EnvSends) {
  // The spent per-channel env-send budget distinguishes states under a
  // finite workload; with an unbounded environment it is omitted.
  size_t At = Out.size();
  Out.resize(At + 1 + 4 * EnvSends.size());
  char *P = Out.data() + At;
  *P++ = static_cast<char>(Error);
  if constexpr (std::endian::native == std::endian::little) {
    if (!EnvSends.empty())
      std::memcpy(P, EnvSends.data(), 4 * EnvSends.size());
    return;
  }
  for (uint32_t W : EnvSends)
    for (int Shift = 0; Shift != 32; Shift += 8)
      *P++ = static_cast<char>((W >> Shift) & 0xff);
}

unsigned Machine::countLeakedObjects(size_t Reached) const {
  for (const ProcState &P : Procs)
    if (P.St == ProcState::Status::Done)
      return countLeakedObjects();
  assert(Reached <= H.getLiveCount() && "serialization reached a dead object");
  return H.getLiveCount() - static_cast<unsigned>(Reached);
}

unsigned Machine::countLeakedObjects() const {
  // Mark phase: everything reachable from the roots of live processes.
  std::vector<uint8_t> Reachable(H.objects().size(), 0);
  std::vector<uint32_t> Worklist;
  auto root = [&](const Value &V) {
    const HeapObject *Obj = H.deref(V);
    if (Obj && !Reachable[V.Ref]) {
      Reachable[V.Ref] = 1;
      Worklist.push_back(V.Ref);
    }
  };
  for (unsigned I = 0, E = static_cast<unsigned>(Procs.size()); I != E; ++I) {
    const ProcState &P = Procs[I];
    if (P.St == ProcState::Status::Done)
      continue; // A finished process can never unlink: its refs leak.
    for (const Value &Slot : P.Slots)
      root(Slot);
    for (size_t C = 0; C != P.PreparedValid.size(); ++C)
      if (P.PreparedValid[C])
        for (const Value &V : prepared(P, CP.Procs[I].Insts[P.PC].Cases[C]))
          root(V);
  }
  while (!Worklist.empty()) {
    uint32_t Index = Worklist.back();
    Worklist.pop_back();
    for (const Value &Elem : H.objects()[Index].Elems) {
      const HeapObject *Obj = H.deref(Elem);
      if (Obj && !Reachable[Elem.Ref]) {
        Reachable[Elem.Ref] = 1;
        Worklist.push_back(Elem.Ref);
      }
    }
  }
  unsigned Leaked = 0;
  for (size_t I = 0, E = H.objects().size(); I != E; ++I)
    if (H.objects()[I].Live && !Reachable[I])
      ++Leaked;
  return Leaked;
}
