//===--- Machine.h - ESP interpreter and scheduler --------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ESP execution machine: interprets the state-machine IR with the
/// runtime structure the generated C uses (§6.1):
///
///  * processes are stackless; a context switch saves only the program
///    counter,
///  * channels are synchronous rendezvous; blocked processes are tracked
///    in per-channel bitmasks (one bit per process, exactly the generated
///    C's scheme), and reader dispatch consults a precomputed
///    channel × discriminant table before walking any pattern,
///  * scheduling is non-preemptive and stack-based: when a rendezvous
///    completes, one process continues and the other is pushed on the
///    ready queue; an idle loop polls external channels,
///  * message transfer is by reference-count increment in execution mode
///    (the paper's deep-copy elision) and by actual deep copy in
///    verification mode (the semantic model the SPIN translation uses,
///    which makes memory safety a per-process property, §4.4).
///
/// Process bodies are precompiled at construction (CompiledProgram) into
/// flat op arrays: one step is a dense switch over compact ops with
/// operands already resolved to slot/field indices — the IR and AST are
/// consulted only to format diagnostics.
///
/// The same Machine exposes a model-checking interface: enumerate the
/// enabled moves of the current state, apply one, snapshot/serialize the
/// whole state. The model checker (src/mc) drives it.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_RUNTIME_MACHINE_H
#define ESP_RUNTIME_MACHINE_H

#include "ir/IR.h"
#include "runtime/CompiledProgram.h"
#include "runtime/Heap.h"
#include "support/RingQueue.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace esp {

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

enum class RuntimeErrorKind : uint8_t {
  None,
  AssertFailed,
  UseAfterFree,
  MatchFailed,        ///< Destructuring assignment did not match.
  NoMatchingPattern,  ///< A sent message matched no reader pattern.
  AmbiguousDispatch,  ///< A sent message matched patterns of two readers.
  OutOfObjects,       ///< Bounded object table exhausted (leak indicator).
  DivideByZero,
  IndexOutOfBounds,
  InvalidUnionField,  ///< Read of a union field that is not the valid arm.
  UninitializedRead,
  StepLimit,
};

const char *runtimeErrorKindName(RuntimeErrorKind Kind);

struct RuntimeError {
  RuntimeErrorKind Kind = RuntimeErrorKind::None;
  std::string Message;
  SourceLoc Loc;
  int ProcessIndex = -1;

  explicit operator bool() const { return Kind != RuntimeErrorKind::None; }
};

//===----------------------------------------------------------------------===//
// External bindings (§4.5)
//===----------------------------------------------------------------------===//

/// Implementation of an external *writer* interface: the C side of a
/// channel that external code writes. Mirrors the paper's pair of C
/// functions: `<Iface>IsReady` returning which pattern is ready (0 = not
/// ready, 1-based case index otherwise) and one function per case that
/// produces the pattern's parameters.
class ExternalWriter {
public:
  virtual ~ExternalWriter() = default;

  /// Which interface case has a message to deliver; 0 when none.
  virtual int isReady() = 0;

  /// Produces the values for the binder leaves of case \p CaseIndex
  /// (1-based), in left-to-right pattern order. Aggregate parameters are
  /// allocated by the binding in \p H. produce() must *peek*: the message
  /// is consumed only when accepted() is called; if no process was ready
  /// to receive it, the binding must re-offer it on the next poll.
  virtual void produce(int CaseIndex, Heap &H,
                       std::vector<Value> &BinderValues) = 0;

  /// The message produced for \p CaseIndex was delivered; dequeue it.
  virtual void accepted(int CaseIndex) { (void)CaseIndex; }
};

/// Implementation of an external *reader* interface. `isReady` says
/// whether the external side is willing to accept data; `consume`
/// receives the binder-leaf values of the matched case.
class ExternalReader {
public:
  virtual ~ExternalReader() = default;

  virtual bool isReady() = 0;
  virtual void consume(int CaseIndex, Heap &H,
                       const std::vector<Value> &BinderValues) = 0;
};

/// Environment model for verification: generates every value the
/// environment might send on external-writer channels (bounded domains),
/// and accepts everything on external-reader channels. Used by the
/// per-process memory-safety harness (§5.3).
///
/// Both methods are const: one model instance is shared read-only by
/// every worker Machine of a parallel search, so implementations must
/// not mutate state (allocation goes into the caller's Heap). A Machine
/// calls makeVariant once per (channel, variant), to build the frozen
/// message template it matches and copies from.
class EnvModel {
public:
  virtual ~EnvModel() = default;

  /// Number of distinct values the environment may send on \p Chan; 0
  /// disables environment sends on that channel.
  virtual unsigned numVariants(const ChannelDecl *Chan) const = 0;

  /// Materializes variant \p Index in \p H, which is unbounded.
  virtual Value makeVariant(const ChannelDecl *Chan, unsigned Index,
                            Heap &H) const = 0;
};

//===----------------------------------------------------------------------===//
// Machine
//===----------------------------------------------------------------------===//

/// Outcome of one scheduler action (or one applied model-checker move).
enum class StepResult : uint8_t { Progress, Quiescent, Halted, Errored };

class Machine;

/// Observation hook for the execution machine: benchmark counters, trace
/// collectors, and simulators subscribe here instead of polling ExecStats
/// deltas. All callbacks default to no-ops; the machine pays one branch
/// per event when no observer is installed.
class MachineObserver {
public:
  virtual ~MachineObserver() = default;

  /// After every scheduler step (execution mode).
  virtual void onStep(const Machine &M, StepResult Result) {
    (void)M;
    (void)Result;
  }
  /// A rendezvous committed; the writer side (-1 = environment/external).
  virtual void onSend(const Machine &M, uint32_t ChannelId, int Writer) {
    (void)M;
    (void)ChannelId;
    (void)Writer;
  }
  /// A rendezvous committed; the reader side (-1 = environment/external).
  virtual void onRecv(const Machine &M, uint32_t ChannelId, int Reader) {
    (void)M;
    (void)ChannelId;
    (void)Reader;
  }
  /// A heap object was allocated (evaluation, deep copy, or external
  /// message construction).
  virtual void onAlloc(const Machine &M, const Value &Obj) {
    (void)M;
    (void)Obj;
  }
  /// One IR instruction is about to execute (the interpreter's inner
  /// loop; PC indexes both CompiledProc::Insts and ProcIR::Insts).
  virtual void onInstr(const Machine &M, unsigned Proc, unsigned PC) {
    (void)M;
    (void)Proc;
    (void)PC;
  }
  /// The process reached a Block instruction and parked. \p ChannelId is
  /// the first alternative's channel; alts report the channel they
  /// actually committed on in onUnblock.
  virtual void onBlock(const Machine &M, unsigned Proc, uint32_t ChannelId) {
    (void)M;
    (void)Proc;
    (void)ChannelId;
  }
  /// A blocked process committed a case and became Ready; \p ChannelId
  /// is the winning case's channel.
  virtual void onUnblock(const Machine &M, unsigned Proc,
                         uint32_t ChannelId) {
    (void)M;
    (void)Proc;
    (void)ChannelId;
  }
  /// A Block instruction with more than one alternative committed case
  /// \p CaseIndex (fires together with onUnblock).
  virtual void onAltChoice(const Machine &M, unsigned Proc,
                           unsigned CaseIndex) {
    (void)M;
    (void)Proc;
    (void)CaseIndex;
  }
};

/// One enabled transition of the machine, for the model checker.
struct Move {
  enum class Kind : uint8_t { Rendezvous, EnvSend, EnvRecv } K =
      Kind::Rendezvous;
  uint32_t Channel = 0;
  int Writer = -1; ///< Process index, or -1 for the environment.
  unsigned WriterCase = 0;
  int Reader = -1; ///< Process index, or -1 for the environment.
  unsigned ReaderCase = 0;
  unsigned EnvVariant = 0; ///< For EnvSend.

  std::string str(const ModuleIR &Module) const;

  /// Structural equality; used to validate counterexample replays.
  friend bool operator==(const Move &A, const Move &B) {
    return A.K == B.K && A.Channel == B.Channel && A.Writer == B.Writer &&
           A.WriterCase == B.WriterCase && A.Reader == B.Reader &&
           A.ReaderCase == B.ReaderCase && A.EnvVariant == B.EnvVariant;
  }
};

/// Per-process interpreter state.
struct ProcState {
  enum class Status : uint8_t { Ready, Blocked, Done, Failed };

  unsigned PC = 0;
  Status St = Status::Ready;
  std::vector<Value> Slots;
  /// Cached guard results for the Block instruction at PC (valid while
  /// Blocked); guards cannot change while the process is blocked because
  /// no other process can touch its state.
  std::vector<uint8_t> CaseEnabled;
  /// Prepared out values of every case of the Block at PC, in one array:
  /// case C's are its CCase's [PrepBegin, PrepBegin + PrepCount), and
  /// they count only while PreparedValid[C] is set. Elided cases prepare
  /// one value per record field. The array keeps its capacity from one
  /// block point to the next, so a steady-state block/resume cycle does
  /// not allocate.
  std::vector<Value> Prepared;
  std::vector<uint8_t> PreparedValid;
};

/// Execution statistics; the NIC simulator derives its cycle costs from
/// these (every event here corresponds to work the firmware CPU does).
struct ExecStats {
  uint64_t Instructions = 0;
  uint64_t ContextSwitches = 0;
  uint64_t Rendezvous = 0;
  uint64_t ExternalDeliveries = 0;
  uint64_t ExternalConsumes = 0;
  uint64_t PollRounds = 0;
  uint64_t PatternMatchesTried = 0;
};

struct MachineOptions {
  /// Bound on the object table (0 = unbounded). The verifier uses a small
  /// bound so leaks exhaust it (§5.2).
  uint32_t MaxObjects = 0;
  /// Recycle freed object ids (the generated firmware does; generations
  /// keep UAF detectable either way).
  bool ReuseObjectIds = true;
  /// Deep-copy channel transfers (semantic model; used for verification)
  /// instead of refcount-increment sharing (the optimized execution).
  /// Also turns on the heap's full liveness checks (execution mode keeps
  /// only the generation compare).
  bool DeepCopyTransfers = false;
  /// Stop execution after this many interpreted instructions in one
  /// runToBlock (guards against non-terminating local loops).
  uint64_t LocalStepLimit = 10'000'000;
  /// Bound on the number of environment sends the machine will
  /// enumerate *per channel* (0 = unbounded). A finite budget turns the
  /// open, infinitely re-driven environment into a bounded workload —
  /// "verify K requests end to end" — whose state space is finite and
  /// largely acyclic even for processes with monotone counters. The
  /// budget is per channel, not global, so sends on unrelated channels
  /// stay independent (a global pool would couple every environment
  /// input through the shared counter, which both shrinks the verified
  /// workload set and defeats partial-order reduction). The per-channel
  /// counters are part of the state identity (serialized with the state
  /// vector whenever the budget is enabled).
  uint32_t EnvSendBudget = 0;
};

/// The ESP virtual machine. Copyable (for model-checker snapshots) except
/// for the external bindings, which only the execution mode uses.
class Machine {
public:
  Machine(const ModuleIR &Module, MachineOptions Options);

  /// Shares a prebuilt \p Compiled program (from compileProgram() on the
  /// same Module) instead of compiling privately. The serve runtime
  /// constructs thousands of machine instances over one immutable
  /// CompiledProgram this way; the per-instance footprint is then just
  /// the dynamic state (heap, process slots, wait masks).
  Machine(const ModuleIR &Module, MachineOptions Options,
          std::shared_ptr<const CompiledProgram> Compiled);

  /// Builds the shareable compiled form of \p Module for the sharing
  /// constructor.
  static std::shared_ptr<const CompiledProgram>
  compileProgram(const ModuleIR &Module);

  // Non-copyable because of bindings; use snapshot()/restore() for MC.
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  //===--- Setup ----------------------------------------------------------===//

  /// Binds the execution-mode implementation of an external-writer
  /// interface (by interface name).
  void bindWriter(const std::string &InterfaceName,
                  std::unique_ptr<ExternalWriter> Writer);
  /// Binds an external-reader interface.
  void bindReader(const std::string &InterfaceName,
                  std::unique_ptr<ExternalReader> Reader);
  /// Sets the verification environment model (not owned) and tabulates
  /// it by channel id: variant counts, plus each variant's message, built
  /// on the channel's first use as a frozen template outside the state
  /// heap, and its top-level discriminant. Enumeration matches blocked
  /// readers against the templates; an applied environment send copies
  /// its template into the state heap.
  void setEnvModel(const EnvModel *Model);

  /// Ids of the channels the environment model sends on, ascending (none
  /// without a model). Only these channels' envSends() can be nonzero.
  std::span<const uint32_t> envSendChannels() const {
    if (!EnvTab)
      return {};
    return EnvTab->SendChannels;
  }

  /// Installs (or clears, with nullptr) the observation hook. Not owned.
  void setObserver(MachineObserver *O) { Obs = O; }

  /// Runs every process from its entry to its first communication point.
  /// Must be called once before step()/enumerateMoves().
  void start();

  /// Returns the machine to its pre-start() state so a serve slot can
  /// recycle it for a new connection without reallocating program state:
  /// the heap keeps its arena (Heap::reset), process slot vectors keep
  /// their capacity, statistics and the scheduler state go back to zero.
  /// External bindings and the observer survive the reset. After
  /// reset() + start() the machine replays an identical input sequence
  /// bit-identically to a freshly constructed one (pinned by
  /// tests/test_serve.cpp).
  void reset();

  //===--- Execution mode (firmware scheduler) ----------------------------===//

  /// One scheduler action: run the current process to its next block
  /// point and try to pair it, or poll external channels when idle.
  StepResult step();

  /// Steps until quiescent/halted/errored or \p MaxSteps scheduler
  /// actions.
  StepResult run(uint64_t MaxSteps = UINT64_MAX);

  //===--- Verification mode ----------------------------------------------===//

  /// Enumerates every enabled move in the current state. All processes
  /// must be Blocked/Done/Failed (i.e. after start()/applyMove()).
  /// Enumeration is canonically pure: probe allocations and lazily
  /// prepared out values are undone before returning, so serializeState
  /// is identical before and after (the snapshot-free DFS relies on it).
  std::vector<Move> enumerateMoves();

  /// Applies \p M: performs the transfer and runs both participants to
  /// their next block points. Returns Errored when the move faulted,
  /// Halted when every process has run to completion, Progress otherwise
  /// (callers that predate the StepResult protocol may ignore it and
  /// keep polling error()).
  StepResult applyMove(const Move &M);

  /// True when the machine is stuck only because the finite environment
  /// workload (MachineOptions::EnvSendBudget) is spent: lifting the
  /// budget would enable at least one move. Such a state is quiescent
  /// termination of the bounded harness, not a deadlock.
  bool stuckOnEnvBudget();

  /// True when every process ran to completion.
  bool allDone() const;

  /// Canonically serializes the entire machine state (PCs, slots,
  /// reachable object graphs, prepared values). Two states with the same
  /// serialization behave identically. Heap references are replaced by
  /// canonical ids in first-visit order, so states that differ only in
  /// object allocation order (objectIds, generations, free-list order)
  /// serialize identically.
  ///
  /// The vector is one segment per process, in process order, then the
  /// tail (appendStateTail). Canonical ids restart at 0 in each segment,
  /// so a segment's bytes do not depend on the processes before it; a
  /// reference to an object first visited in an earlier segment (only
  /// sharing mode can make one) is written as a cross reference carrying
  /// the object's id in the whole vector.
  std::string serializeState() const;

  /// Same, writing into \p Out (cleared first). The model checker reuses
  /// one scratch buffer across millions of states instead of allocating
  /// a fresh string per state. Returns the number of distinct heap
  /// objects the walk reached (see countLeakedObjects(size_t)).
  size_t serializeState(std::string &Out) const;

  /// Writes process \p Proc's segment alone into \p Out (cleared first)
  /// and returns the number of heap objects it reaches. When no object is
  /// shared between processes (always so under DeepCopyTransfers), these
  /// are exactly the bytes serializeState writes for the process, and the
  /// segments' counts add up to its reached count.
  size_t serializeProcess(unsigned Proc, std::string &Out) const;

  /// The per-channel environment sends that the state vector records:
  /// every channel's count under an EnvSendBudget, none without one.
  std::span<const uint32_t> envSends() const {
    if (Options.EnvSendBudget == 0)
      return {};
    return EnvSends;
  }

  /// Appends the tail of a state vector to \p Out: the runtime error
  /// kind, then each of \p EnvSends (envSends()) as 4 little-endian
  /// bytes.
  static void appendStateTail(std::string &Out, RuntimeErrorKind Error,
                              std::span<const uint32_t> EnvSends);

  /// Live objects unreachable from any root: leaked memory. A full
  /// mark-sweep over the heap.
  unsigned countLeakedObjects() const;

  /// The same count, given the number of objects \p Reached that a
  /// serialization of the current state returned: the serialization walk
  /// already visits every object reachable from a process, so leaked =
  /// live - reached, with no sweep. The one exception is a Done process,
  /// whose slots are serialized but are not roots (it can never unlink
  /// them); then this falls back to the sweep.
  unsigned countLeakedObjects(size_t Reached) const;

  //===--- Introspection ---------------------------------------------------===//

  const RuntimeError &error() const { return Error; }
  const ExecStats &stats() const { return Stats; }
  Heap &heap() { return H; }
  const Heap &heap() const { return H; }
  const ModuleIR &module() const { return Module; }
  const CompiledProgram &compiled() const { return CP; }
  unsigned numProcesses() const { return Procs.size(); }
  const ProcState &proc(unsigned I) const { return Procs[I]; }

  /// Snapshot/restore of the dynamic state (for the model checker).
  struct Snapshot {
    Heap H;
    std::vector<ProcState> Procs;
    RuntimeError Error;
    bool Started = false;
    std::vector<uint32_t> EnvSends;
  };
  Snapshot snapshot() const;
  /// Same, copying into \p Out: reuses Out's buffers, so a checkpoint
  /// slot refilled level after level stops allocating.
  void snapshot(Snapshot &Out) const;
  void restore(const Snapshot &S);
  /// Estimated memory a snapshot() of the current state would hold.
  size_t snapshotBytes() const;

private:
  //===--- Interpreter core ------------------------------------------------===//

  /// Evaluates the bytecode range \p R of process \p ProcIndex's compiled
  /// code into \p Result. False on runtime fault (machine error set).
  /// A one-op range that cannot fault here (a constant, an initialized
  /// slot, a slot against a constant) is evaluated inline without the
  /// operand stack; everything else, faults included, goes to evalStack.
  [[gnu::always_inline]] bool evalCode(unsigned ProcIndex, XRange R,
                                       Value &Result) {
    if (R.End - R.Begin == 1) {
      const XOp &Op = CP.Procs[ProcIndex].Code[R.Begin];
      switch (Op.Op) {
      case XOp::K::PushInt:
        Result = Value::makeInt(Op.Imm);
        return true;
      case XOp::K::PushBool:
        Result = Value::makeBool(Op.Imm != 0);
        return true;
      case XOp::K::LoadSlot: {
        const Value &Slot = Procs[ProcIndex].Slots[Op.A];
        if (Slot.isUninit())
          break;
        Result = Slot;
        return true;
      }
      case XOp::K::SlotImm: {
        const Value &Slot = Procs[ProcIndex].Slots[Op.A];
        if (Slot.isUninit())
          break;
        Result = binaryValue(Op.Bin, Slot.Scalar, Op.Imm);
        return true;
      }
      default:
        break;
      }
    }
    return evalStack(ProcIndex, R, Result);
  }
  /// The general evaluator: runs \p R on the fixed operand stack.
  bool evalStack(unsigned ProcIndex, XRange R, Value &Result);
  /// The value of \p L \p Op \p R: a bool for a comparison, else an int.
  /// Div and Mod require \p R != 0.
  static Value binaryValue(IntOp Op, int64_t L, int64_t R) {
    Value V;
    V.K = isCompare(Op) ? Value::Kind::Bool : Value::Kind::Int;
    V.Scalar = intOp(Op, L, R);
    return V;
  }
  bool execStore(unsigned ProcIndex, const CInst &I);
  /// Runs process \p ProcIndex until it blocks, halts, or fails.
  void runToBlock(unsigned ProcIndex);
  /// Evaluates guards and (for non-lazy out cases) prepared values at a
  /// block point, then publishes the process's per-channel wait bits.
  void prepareBlock(unsigned ProcIndex);

  void fail(RuntimeErrorKind Kind, SourceLoc Loc, int ProcIndex,
            std::string Message);

  void notifyAlloc(const Value &V) {
    if (Obs)
      Obs->onAlloc(*this, V);
  }

  //===--- Matching and transfer -------------------------------------------===//

  /// How a pattern walk applies its bindings.
  enum class MatchMode : uint8_t {
    Try,           ///< Dry run: no binding, no acquisition.
    CommitAcquire, ///< Channel receive: bind with receiverAcquire.
    CommitLocal,   ///< Destructuring assignment: bind without acquiring.
  };

  /// Matches compiled pattern node \p PatIndex of \p ReaderIndex against
  /// \p V. Returns false on mismatch; sets the machine error on runtime
  /// faults (except CommitLocal, whose caller reports the error).
  bool matchC(unsigned ReaderIndex, uint32_t PatIndex, const Value &V,
              MatchMode Mode, const Heap &From);
  /// matchC on a child of a record pattern, with a binder that needs no
  /// heap work (a dry run, or a scalar value) committed inline.
  bool matchChild(unsigned ReaderIndex, uint32_t PatIndex, const Value &V,
                  MatchMode Mode, const Heap &From);
  /// Same over the 1-or-N values of a (possibly elided) transfer.
  /// \p From is the heap the values live in: the state heap, or the
  /// environment template heap for an environment send.
  bool matchValues(unsigned ReaderIndex, uint32_t PatIndex,
                   std::span<const Value> Values, MatchMode Mode,
                   const Heap &From);

  /// Produces the out value(s) for case \p CaseIndex of blocked process
  /// \p ProcIndex, using the prepared cache or evaluating lazily into it.
  /// \p Values views the process's prepared array: valid until the
  /// process resumes.
  bool outValues(unsigned ProcIndex, unsigned CaseIndex,
                 std::span<const Value> &Values);

  /// The prepared values of case \p Case of blocked process \p P.
  static std::span<const Value> prepared(const ProcState &P,
                                         const CCase &Case) {
    return {P.Prepared.data() + Case.PrepBegin, Case.PrepCount};
  }

  /// Blocked process \p ProcIndex's case \p CaseIndex.
  const CCase &caseOf(unsigned ProcIndex, unsigned CaseIndex) const {
    return CP.Procs[ProcIndex].Insts[Procs[ProcIndex].PC].Cases[CaseIndex];
  }

  /// Drops the sender-side temp references of out case \p Case's values
  /// (one per field when the record allocation is elided).
  void dropOutValues(const CCase &Case, std::span<const Value> Values);

  /// Commits case \p CaseIndex of blocked process \p ProcIndex: releases
  /// the prepared values of the losing cases, moves the PC to the case's
  /// target and marks the process Ready.
  void resume(unsigned ProcIndex, unsigned CaseIndex);

  /// Grants the receiver its reference for each aggregate bound by the
  /// pattern: rc++ in sharing mode, deep copy in verification mode, and
  /// always a deep copy out of the environment template heap.
  std::optional<Value> receiverAcquire(const Heap &From, const Value &V);
  /// Copies \p V, which lives in \p From, into the state heap. Returns
  /// std::nullopt when the object table fills (without setting the
  /// machine error) or, with the error set, on a dead object.
  std::optional<Value> deepCopy(const Heap &From, const Value &V);

  /// Drops the sender-side temp reference when the out expression was an
  /// allocation.
  void dropSenderTemp(const Expr *OutExpr, const Value &V);
  void dropValueTemp(const Value &V, SourceLoc Loc, int ProcIndex);

  /// The one partner search of both modes. Walks the blocked readers
  /// (\p WantIn) or writers of channel \p Chan in ascending process id
  /// (LSB-first over the wait mask), skipping process \p Self, and calls
  /// F(Proc, Case) for every enabled case of matching direction on
  /// \p Chan, in case order. Stops when F returns false.
  template <typename Fn>
  void forEachWaiter(uint32_t Chan, bool WantIn, int Self, Fn &&F);

  /// Calls F(Reader, Case) for every blocked reader case on \p Chan that
  /// admits the message \p Values (dispatch-table prefilter, then a dry
  /// run of the pattern); a null \p Values is a MatchFree lazy writer,
  /// which every reader admits. For a process writer (\p WCase set),
  /// matches in two processes are an AmbiguousDispatch error, and on a
  /// statically disjoint channel the walk stops at the first match. Stops
  /// when F returns false or on a machine error.
  template <typename Fn>
  void forEachMatchingReader(uint32_t Chan, int Writer, const CCase *WCase,
                             const std::span<const Value> *Values, Fn &&F);

  /// Performs a committed rendezvous between a writer and a reader case.
  /// Either side may be the environment/externals; an environment writer
  /// supplies \p EnvValues, which live in the template heap.
  bool transfer(int WriterIndex, unsigned WriterCase, int ReaderIndex,
                unsigned ReaderCase, std::span<const Value> EnvValues = {});

  /// enumerateMoves without the purity cleanup (the raw probe walk).
  std::vector<Move> enumerateMovesImpl();

  /// The admission bitset of blocked reader case (\p Reader, \p Case) on
  /// its environment-driven channel, as an offset into
  /// EnvTables::AdmitWords; built on first use.
  uint32_t admission(unsigned Reader, unsigned Case);

  //===--- Dispatch tables and wait bitmasks --------------------------------===//

  /// The top-level discriminant of a concrete message, if it has one.
  static CaseDisc discOfValue(const Heap &H, const Value &V);
  CaseDisc discOfValues(std::span<const Value> Values) const;
  /// True when the dispatch table proves \p Case cannot match a message
  /// with discriminant \p D (so the pattern walk is skipped entirely).
  static bool discRejects(const CaseDisc &Case, const CaseDisc &D) {
    if (Case.Kind == CaseDisc::K::UnionArm && D.Kind == CaseDisc::K::UnionArm)
      return Case.Arm != D.Arm;
    if (Case.Kind == CaseDisc::K::Scalar && D.Kind == CaseDisc::K::Scalar)
      return Case.Scalar != D.Scalar;
    return false;
  }

  /// Whether blocked reader case (\p Reader, \p Case) accepts the message
  /// \p Values, whose discriminant is \p D: the dispatch-table prefilter,
  /// then a dry run of the pattern. False with the machine error set when
  /// the dry run faults.
  bool readerAdmits(unsigned Reader, unsigned Case, const CaseDisc &D,
                    std::span<const Value> Values, const Heap &From);

  /// Sets/clears process \p ProcIndex's bit in the wait mask of every
  /// channel one of its enabled cases blocks on. The masks are an
  /// accelerator: consumers still re-check Blocked + CaseEnabled, so a
  /// stale set bit is harmless (a missing one is not).
  void addWaitBits(unsigned ProcIndex);
  void clearWaitBits(unsigned ProcIndex);
  void rebuildWaitBits();

  uint64_t *inWait(uint32_t ChannelId) {
    return &InWait[ChannelId * CP.MaskWords];
  }
  uint64_t *outWait(uint32_t ChannelId) {
    return &OutWait[ChannelId * CP.MaskWords];
  }

  //===--- Execution-mode scheduling ----------------------------------------===//

  StepResult stepImpl();
  int popReady();
  bool tryPair(unsigned ProcIndex);
  bool pollExternals();
  bool deliverExternalIn(unsigned ChannelId);
  bool tryExternalOut(unsigned ProcIndex, unsigned CaseIndex);
  /// Offers the enabled out cases of the processes blocked on an
  /// external-reader channel to their bound readers: processes in
  /// ascending id, each one's cases from \p CaseRotor modulo its case
  /// count. The first case a reader takes puts its process on the ready
  /// queue.
  bool tryExternalOuts(unsigned CaseRotor);

  /// Builds the full channel value for an external-writer interface case
  /// from the binder values the binding produced.
  std::optional<Value> buildFromInterfacePattern(const Pattern *Pat,
                                                 const std::vector<Value> &Binders,
                                                 size_t &Next);
  /// Extracts binder-leaf values of an interface pattern from a value.
  bool extractInterfaceBinders(const Pattern *Pat, const Value &V,
                               std::vector<Value> &Out);

  const ModuleIR &Module;
  MachineOptions Options;
  /// Owns (or co-owns) the compiled program; CP is the alias the hot
  /// paths dereference. Fleet serving shares one compiled program across
  /// every machine instance.
  std::shared_ptr<const CompiledProgram> CPShared;
  const CompiledProgram &CP;
  Heap H;
  std::vector<ProcState> Procs;
  RuntimeError Error;
  ExecStats Stats;
  bool Started = false;
  /// Environment sends applied so far, per channel id; only meaningful
  /// (and only part of the serialized state) when Options.EnvSendBudget
  /// is nonzero.
  std::vector<uint32_t> EnvSends;

  /// The operand stack of evalStack, CP.MaxEvalDepth deep, sized once at
  /// construction: a push is a store through a pointer, with no capacity
  /// check. Evaluation never re-enters itself (InEval pins it), so every
  /// evaluation starts at the bottom.
  std::unique_ptr<Value[]> EvalStack;
  bool InEval = false;

  /// Per-channel wait bitmasks, CP.MaskWords words per channel: bit P of
  /// InWait[chan] = process P blocks with an enabled in-case on chan.
  std::vector<uint64_t> InWait;
  std::vector<uint64_t> OutWait;

  // Execution-mode scheduler state.
  RingQueue<unsigned> ReadyQueue;
  int Current = -1;
  unsigned PollRotor = 0;
  /// Whether the idle loop scans every blocked process for an internal
  /// rendezvous. A process that blocks inside step() gets its own tryPair
  /// at once, so only block points reached outside it (start(),
  /// restore(), applyMove()) can still pair at idle: the scan runs from
  /// those until it pairs nothing.
  bool ScanPairs = true;

  // External bindings, indexed by channel id.
  std::vector<std::unique_ptr<ExternalWriter>> Writers;
  std::vector<std::unique_ptr<ExternalReader>> Readers;
  const EnvModel *Env = nullptr;
  MachineObserver *Obs = nullptr;

  /// The environment model as setEnvModel tabulates it. Held out of
  /// line (null without a model) so that execution-mode machines, ten
  /// thousand to a fleet, pay one pointer for it.
  struct EnvChannel {
    const ChannelDecl *Decl = nullptr;
    unsigned NumVariants = 0;
    /// Each variant's message in EnvTables::TemplateHeap, and its
    /// top-level discriminant. Empty until the channel's first use
    /// (envChannel).
    std::vector<Value> Templates;
    std::vector<CaseDisc> Discs;
  };
  struct EnvTables {
    std::vector<EnvChannel> Channels; ///< Indexed by channel id.
    /// The frozen environment messages. Never part of a state: nothing
    /// links, unlinks or serializes its objects.
    Heap TemplateHeap;
    /// Ids of the channels the environment sends on, in declaration
    /// order.
    std::vector<uint32_t> SendChannels;
    /// Admission tables: one bitset over its channel's variants per
    /// reader pattern on a driven channel. Bit V is set when the case's
    /// dispatch entry admits variant V and, for a static pattern
    /// (CCase::StaticPat), its dry run against the template matches too;
    /// a pattern that reads process state is still dry-run per variant.
    /// AdmitAt[PatBase[P] + Pat] is 0 until reader pattern Pat of
    /// process P is first enumerated, then one plus its bitset's offset
    /// in AdmitWords.
    std::vector<uint32_t> PatBase;
    std::vector<uint32_t> AdmitAt;
    std::vector<uint64_t> AdmitWords;
    /// Enumeration scratch: the reader cases blocked on one channel, with
    /// their admission bitsets.
    struct BlockedReader {
      unsigned Proc;
      unsigned Case;
      uint32_t Admit;
    };
    std::vector<BlockedReader> Readers;
  };
  std::unique_ptr<EnvTables> EnvTab;

  /// The environment channel \p Chan with its templates built on first
  /// use.
  EnvChannel &envChannel(uint32_t Chan);
};

} // namespace esp

#endif // ESP_RUNTIME_MACHINE_H
