// The executor: runs a precompiled ExecutionPlan over dependency countdown,
// sequentially or fanned out to a thread pool. All scheduling data (dense
// indices, incoming-edge counts, out-edges, resolved kernels) comes from the
// plan; the only per-run state is the countdown/liveness/output array. A
// node's countdown starts at its incoming-edge count, and each of its
// producers' out-edges and control edges counts it down by one.
//
// Whether a run offered a pool actually uses it is the plan's PoolDecision
// (runtime/plan.h): calibration runs and cheap plans take the sequential
// loop, coarse plans fan out. The fan-out loop is iterative: a thread keeps
// one node it readies and hands only the extras to the pool. Pending
// counts are atomics; no lock is taken per node.
//
// Switch/Merge conditionals run by TF 1.x dead-value propagation (§4.2.1).
// Each node records which of its outputs are live: all, none, or the one
// slot a Switch took. A Switch forwards its data to output `pred ? 1 : 0`;
// a Merge waits for all its inputs and forwards the lowest-index live one
// with that index, and is dead only if every data input is. Any other node
// is dead if a data input or a control producer's output 0 is, and then
// skips its kernel. Nodes without inputs are never dead.
//
// Buffer liveness follows the plan's MemoryPlan: every data read of a
// producer's outputs counts its `reads_remaining` down (a dead consumer
// counts off too), and the read that reaches zero clears the producer's
// output slots (unless fetch-protected). That both returns dead
// intermediate buffers to the BufferPool mid-run and makes the consuming
// kernel's `inputs` vector the sole holder of a dying buffer, enabling
// in-place output reuse for plan-marked elementwise nodes.
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "obs/profile.h"
#include "runtime/executor.h"
#include "runtime/fusion.h"

namespace janus {
namespace internal {
namespace {

using OpKind = ExecutionPlan::OpKind;
using PlanNode = ExecutionPlan::PlanNode;

// NodeState::live values besides a Switch's taken output slot.
constexpr int kAllLive = -1;
constexpr int kNoneLive = -2;

struct NodeState {
  std::atomic<int> pending{0};
  std::atomic<int> reads_remaining{0};
  // Which outputs are live: kAllLive, kNoneLive, or the one slot a Switch
  // took. Set before the node's out-edges count down, so the acq_rel
  // countdown publishes it to consumers; never cleared with the outputs.
  int live = kAllLive;
  std::vector<Tensor> outputs;

  bool IsLive(int slot) const { return live == kAllLive || live == slot; }
};

// Shared state of one fanned-out run, on the caller's stack. A pool thread
// touches it (and the DagRun) only while it holds a node not yet counted
// off `remaining`, so once the count reaches zero no other thread can.
struct FanOutState {
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // written once, by the thread setting
                                   // `failed`
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
};

// RAII sampled-time recorder for one plan-node execution, so every exit
// path of a node body (source kinds, kernel dispatch) is covered.
// Construct with armed = ShouldSampleProfileNode(): the runtime's one
// sampler (obs/profile.h), which also emits the node's "kernel" trace event
// while tracing.
struct ProfRecord {
  obs::PlanProfile* profile;
  int index;
  std::int64_t start_ns;
  bool armed;
  ~ProfRecord() {
    if (armed && profile != nullptr) {
      obs::RecordSample(*profile, index, "kernel", start_ns);
    }
  }
};

// One execution of a plan.
class DagRun {
 public:
  DagRun(RunContext& run, const ExecutionPlan& plan,
         std::span<const Tensor> args)
      : run_(run),
        plan_(plan),
        nodes_(plan.nodes()),
        memory_(plan.memory()),
        args_(args),
        profile_(plan.profile()),
        states_(nodes_.size()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      states_[i].pending.store(nodes_[i].in_edges, std::memory_order_relaxed);
      states_[i].reads_remaining.store(memory_.nodes[i].output_reads,
                                       std::memory_order_relaxed);
    }
  }
  // Pool tasks hold its address.
  DagRun(const DagRun&) = delete;
  DagRun& operator=(const DagRun&) = delete;

  // Runs every node on the calling thread in dependency (FIFO) order.
  void Sequential() {
    // Each node becomes ready exactly once, so a reserved vector with a
    // read cursor is the FIFO and never reallocates.
    std::vector<int> ready;
    ready.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].in_edges == 0) ready.push_back(static_cast<int>(i));
    }
    for (std::size_t head = 0; head < ready.size(); ++head) {
      const int index = ready[head];
      RunNode(index);
      ForEachOutEdge(index, [&](int consumer) {
        // One thread: a plain load and store, no read-modify-write.
        std::atomic<int>& pending =
            states_[static_cast<std::size_t>(consumer)].pending;
        const int left = pending.load(std::memory_order_relaxed) - 1;
        pending.store(left, std::memory_order_relaxed);
        if (left == 0) ready.push_back(consumer);
      });
    }
    if (ready.size() != nodes_.size()) {
      throw InternalError("graph contains a cycle");
    }
  }

  // Runs the plan across the calling thread and `run.pool`. Only plans
  // whose calibration (sequential runs) finished get here, so the plan is
  // acyclic and the countdown reaches zero.
  void FanOut() {
    FanOutState f;
    f.remaining.store(nodes_.size(), std::memory_order_relaxed);
    // Sources (constants and arguments) resolve in nanoseconds and are
    // never worth a handoff: the caller runs them itself, then keeps one of
    // the nodes they ready (or one other root) and hands off the rest.
    int next = -1;
    // An empty plan has no node whose count-off would end the run.
    bool finished = nodes_.empty();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].in_edges != 0) continue;
      const int index = static_cast<int>(i);
      switch (nodes_[i].kind) {
        case OpKind::kConst:
        case OpKind::kArgument:
          // True only for the last node, i.e. a plan of nothing but roots.
          if (Step(f, index, next, /*on_pool=*/false)) finished = true;
          break;
        default:
          Keep(f, index, next);
      }
    }
    if (!finished && !Drain(f, next, /*on_pool=*/false)) {
      // A pool thread counts off the last node and signals.
      std::unique_lock<std::mutex> lock(f.mu);
      f.cv.wait(lock, [&f] { return f.done; });
    }
    if (f.first_error) std::rethrow_exception(f.first_error);
  }

  std::vector<Tensor> Results() const {
    std::vector<Tensor> results;
    results.reserve(plan_.fetch_slots().size());
    for (const ExecutionPlan::Endpoint& fetch : plan_.fetch_slots()) {
      const auto& state = states_[static_cast<std::size_t>(fetch.producer)];
      if (!state.IsLive(fetch.slot)) {
        throw InternalError(
            "fetched output " + std::to_string(fetch.slot) + " of '" +
            nodes_[static_cast<std::size_t>(fetch.producer)].node->name() +
            "' is dead (on an untaken branch)");
      }
      results.push_back(
          state.outputs.at(static_cast<std::size_t>(fetch.slot)));
    }
    return results;
  }

 private:
  // Calls `visit(consumer)` once per out-edge and control edge of `index`.
  template <typename F>
  void ForEachOutEdge(int index, F&& visit) const {
    const PlanNode& entry = nodes_[static_cast<std::size_t>(index)];
    for (const std::vector<ExecutionPlan::Edge>& slot : entry.out_edges) {
      for (const ExecutionPlan::Edge& edge : slot) visit(edge.consumer);
    }
    for (const int consumer : entry.control_edges) visit(consumer);
  }

  // A ready node stays on this thread as `next` if that slot is free;
  // otherwise it goes to the pool.
  void Keep(FanOutState& f, int index, int& next) {
    if (next < 0) {
      next = index;
      return;
    }
    run_.pool->Schedule([this, &f, index] {
      if (Drain(f, index, /*on_pool=*/true)) {
        // Notify under the lock: the caller may destroy the condition
        // variable as soon as it can reacquire the mutex.
        const std::lock_guard<std::mutex> lock(f.mu);
        f.done = true;
        f.cv.notify_one();
      }
    });
  }

  // Runs `index`, then the successor each node keeps, until a node keeps
  // none. Returns true if this call counted off the run's last node.
  bool Drain(FanOutState& f, int index, bool on_pool) {
    while (index >= 0) {
      int next = -1;
      if (Step(f, index, next, on_pool)) return true;
      index = next;
    }
    return false;
  }

  // Runs one node, readies its consumers through Keep, and counts it off.
  // Returns true if it was the run's last node.
  bool Step(FanOutState& f, int index, int& next, bool on_pool) {
    // After the first error nodes are only counted down, not run, so the
    // run drains quickly and the first error is the one rethrown.
    if (!f.failed.load(std::memory_order_relaxed)) {
      try {
        RunNode(index);
      } catch (...) {
        if (!f.failed.exchange(true, std::memory_order_acq_rel)) {
          f.first_error = std::current_exception();
        }
      }
      if (on_pool) {
        run_.offloaded_nodes.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ForEachOutEdge(index, [&](int consumer) {
      // acq_rel: the thread that readies a consumer sees every producer's
      // outputs.
      if (states_[static_cast<std::size_t>(consumer)].pending.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        Keep(f, consumer, next);
      }
    });
    // Counted off last: until here the run cannot complete.
    return f.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  void ReleaseOutputs(NodeState& state) {
    run_.buffers_released.fetch_add(
        static_cast<std::int64_t>(state.outputs.size()),
        std::memory_order_relaxed);
    state.outputs.clear();
  }

  void RunNode(int index) {
    // Sampled per-node wall time while profiling or tracing (disabled
    // path is one relaxed load inside ShouldSampleProfileNode).
    const bool prof_sampled = obs::ShouldSampleProfileNode();
    const ProfRecord prof_record{profile_, index,
                                 prof_sampled ? obs::Trace::NowNs() : 0,
                                 prof_sampled};
    const PlanNode& entry = nodes_[static_cast<std::size_t>(index)];
    const MemoryPlan::NodeInfo& minfo =
        memory_.nodes[static_cast<std::size_t>(index)];
    NodeState& state = states_[static_cast<std::size_t>(index)];
    switch (entry.kind) {
      case OpKind::kConst:
        state.outputs.assign(1, entry.const_value);
        return;
      case OpKind::kArgument:
        state.outputs.assign(
            1, args_[static_cast<std::size_t>(entry.arg_index)]);
        return;
      default:
        break;
    }
    std::vector<Tensor> inputs;
    inputs.reserve(entry.inputs.size());
    int first_live = -1;
    bool any_dead = false;
    for (const ExecutionPlan::Endpoint& input : entry.inputs) {
      const auto& producer = states_[static_cast<std::size_t>(input.producer)];
      if (producer.IsLive(input.slot)) {
        if (first_live < 0) first_live = static_cast<int>(inputs.size());
        inputs.push_back(
            producer.outputs.at(static_cast<std::size_t>(input.slot)));
      } else {
        any_dead = true;
        inputs.emplace_back();  // a placeholder that keeps slots aligned
      }
    }
    // This node's reads are done (copied above): count them off each
    // producer and drop producer-held references when the last counted read
    // completes. The acq_rel countdown orders every consumer's copy before
    // the clearing thread's release, so this is safe under fan-out too.
    for (const ExecutionPlan::Endpoint& input : entry.inputs) {
      auto& producer = states_[static_cast<std::size_t>(input.producer)];
      if (producer.reads_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1 &&
          !memory_.nodes[static_cast<std::size_t>(input.producer)]
               .fetch_protected) {
        ReleaseOutputs(producer);
      }
    }
    switch (entry.kind) {
      case OpKind::kSwitch:
        // Inputs are (data, pred); control-input deadness is ignored.
        if (any_dead) {
          state.live = kNoneLive;
        } else {
          state.live = inputs[1].ScalarBoolValue() ? 1 : 0;
          state.outputs.resize(2);
          state.outputs[static_cast<std::size_t>(state.live)] =
              std::move(inputs[0]);
        }
        break;
      case OpKind::kMerge:
        // Control-input deadness is ignored here too.
        if (first_live < 0) {
          state.live = kNoneLive;
        } else {
          state.outputs = {std::move(inputs[static_cast<std::size_t>(
                               first_live)]),
                           Tensor::ScalarInt(first_live)};
        }
        break;
      default:
        for (const int control : entry.control_producers) {
          if (!states_[static_cast<std::size_t>(control)].IsLive(0)) {
            any_dead = true;
          }
        }
        if (any_dead) {
          state.live = kNoneLive;
        } else if (entry.kind == OpKind::kFusedRegion) {
          ExecuteFusedRegion(run_, *entry.fused, inputs, state.outputs,
                             /*allow_in_place=*/minfo.in_place_capable);
        } else {
          ExecuteKernel(run_, *entry.node, *entry.kernel, inputs,
                        state.outputs,
                        /*allow_in_place=*/minfo.in_place_capable);
        }
    }
    // Outputs nothing reads (control-edge-anchored side effects) die at
    // birth.
    if (minfo.output_reads == 0 && !minfo.fetch_protected &&
        !state.outputs.empty()) {
      ReleaseOutputs(state);
    }
  }

  RunContext& run_;
  const ExecutionPlan& plan_;
  const std::vector<PlanNode>& nodes_;
  const MemoryPlan& memory_;
  const std::span<const Tensor> args_;
  obs::PlanProfile* const profile_;
  std::vector<NodeState> states_;
};

}  // namespace

std::vector<Tensor> ExecuteDag(RunContext& run, const ExecutionPlan& plan,
                               std::span<const Tensor> args, bool parallel) {
  if (args.size() != plan.arguments().size()) {
    throw InvalidArgument("plan takes " +
                          std::to_string(plan.arguments().size()) +
                          " arguments, got " + std::to_string(args.size()));
  }
  DagRun dag(run, plan, args);
  if (!parallel) {
    dag.Sequential();
    return dag.Results();
  }
  JANUS_EXPECTS(run.pool != nullptr);
  PoolDecision& decision = plan.pool_decision();
  switch (decision.Claim()) {
    case PoolDecision::Mode::kSequential:
      dag.Sequential();
      break;
    case PoolDecision::Mode::kFanOut:
      dag.FanOut();
      break;
    case PoolDecision::Mode::kCalibrate: {
      const std::int64_t start_ns = obs::Trace::NowNs();
      try {
        dag.Sequential();
      } catch (...) {
        // A failed run (assumption, kernel error, cycle) measures nothing; a
        // later run calibrates instead.
        decision.Abandon();
        throw;
      }
      decision.Record(obs::Trace::NowNs() - start_ns, plan.nodes().size());
      break;
    }
  }
  return dag.Results();
}

}  // namespace internal
}  // namespace janus
