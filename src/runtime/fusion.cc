// Fusion pass + superop interpreter. See fusion.h for the design contract.
//
// Layout of this file:
//   1. Kill switch (JANUS_FUSION).
//   2. Fusable-op table, region formation and the plan rewrite.
//   3. Runtime specialization (FusedSpec): dtype/shape propagation that
//      mirrors the unfused kernels' checks exactly, block-kernel selection,
//      scratch layout, and the content-addressed FusedKernelCache.
//   4. Execution: block interpreter (fused path) and per-member fallback.
#include "runtime/fusion.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "cache/fused_kernel_cache.h"
#include "common/error.h"
#include "tensor/shape.h"

namespace janus {

namespace fusion {
namespace {

bool InitialEnabled() {
  const char* env = std::getenv("JANUS_FUSION");
  if (env == nullptr) return true;
  const std::string_view v(env);
  return !(v == "0" || v == "false" || v == "off");
}

std::atomic<bool> g_enabled{InitialEnabled()};

}  // namespace

bool GloballyEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetGloballyEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace fusion

namespace {

using Edge = ExecutionPlan::Edge;
using Endpoint = ExecutionPlan::Endpoint;
using OpKind = ExecutionPlan::OpKind;
using PlanNode = ExecutionPlan::PlanNode;

// ---------------------------------------------------------------------------
// Fusable-op table.
// ---------------------------------------------------------------------------

struct OpEntry {
  FusedOp op;
  int arity;
  bool reduction;
};

const std::unordered_map<std::string_view, OpEntry>& FusableOps() {
  static const auto* table = new std::unordered_map<std::string_view, OpEntry>{
      {"Neg", {FusedOp::kNeg, 1, false}},
      {"Abs", {FusedOp::kAbs, 1, false}},
      {"Sign", {FusedOp::kSign, 1, false}},
      {"Exp", {FusedOp::kExp, 1, false}},
      {"Log", {FusedOp::kLog, 1, false}},
      {"Sqrt", {FusedOp::kSqrt, 1, false}},
      {"Square", {FusedOp::kSquare, 1, false}},
      {"Tanh", {FusedOp::kTanh, 1, false}},
      {"Sigmoid", {FusedOp::kSigmoid, 1, false}},
      {"Relu", {FusedOp::kRelu, 1, false}},
      {"LogicalNot", {FusedOp::kLogicalNot, 1, false}},
      {"Add", {FusedOp::kAdd, 2, false}},
      {"Sub", {FusedOp::kSub, 2, false}},
      {"Mul", {FusedOp::kMul, 2, false}},
      {"Div", {FusedOp::kDiv, 2, false}},
      {"FloorDiv", {FusedOp::kFloorDiv, 2, false}},
      {"Mod", {FusedOp::kMod, 2, false}},
      {"Pow", {FusedOp::kPow, 2, false}},
      {"Maximum", {FusedOp::kMaximum, 2, false}},
      {"Minimum", {FusedOp::kMinimum, 2, false}},
      {"ReluGrad", {FusedOp::kReluGrad, 2, false}},
      {"Equal", {FusedOp::kEqual, 2, false}},
      {"NotEqual", {FusedOp::kNotEqual, 2, false}},
      {"Less", {FusedOp::kLess, 2, false}},
      {"LessEqual", {FusedOp::kLessEqual, 2, false}},
      {"Greater", {FusedOp::kGreater, 2, false}},
      {"GreaterEqual", {FusedOp::kGreaterEqual, 2, false}},
      {"LogicalAnd", {FusedOp::kLogicalAnd, 2, false}},
      {"LogicalOr", {FusedOp::kLogicalOr, 2, false}},
      {"ReduceSum", {FusedOp::kReduceSum, 1, true}},
      {"ReduceMean", {FusedOp::kReduceMean, 1, true}},
  };
  return *table;
}

// ---------------------------------------------------------------------------
// Region formation.
// ---------------------------------------------------------------------------

// How one plan node may take part in a region.
struct Candidate {
  FusedOp op = FusedOp::kAdd;
  bool elementwise = false;  // fusable non-reduction; may be member or root
  bool reduction = false;    // fusable reduction; root only
  bool has_control = false;  // any control producer or consumer
  bool is_protected = false; // feeds a fetch slot
};

Candidate ClassifyCandidate(const PlanNode& entry) {
  Candidate cand;
  cand.has_control =
      !entry.control_producers.empty() || !entry.control_edges.empty();
  if (entry.kind != OpKind::kKernel) return cand;
  const Node* node = entry.node;
  const auto it = FusableOps().find(node->op());
  if (it == FusableOps().end()) return cand;
  const OpEntry& op = it->second;
  if (node->num_outputs() != 1 || node->num_inputs() != op.arity) return cand;
  if (op.reduction && (!node->HasAttr("axes") || !node->HasAttr("keep_dims"))) {
    return cand;
  }
  cand.op = op.op;
  if (op.reduction) {
    cand.reduction = true;
  } else {
    cand.elementwise = true;
  }
  return cand;
}

// Greedy maximal-region collection. Roots are claimed in reverse schedule
// order (so the node nearest the sink anchors the longest chain) and regions
// grow producer-ward to a fixpoint: a producer joins only when it is fusable
// elementwise, unclaimed, not fetch-protected, free of control edges, and
// EVERY data consumer is already inside the region — interior values with
// outside consumers (or fetch protection) break regions, because interiors
// are never materialized. Roots are exempt from the consumer/protection
// rules: the region output is materialized exactly like the root's output
// was. Regions of fewer than two members are discarded.
std::vector<std::vector<int>> CollectRegions(
    const std::vector<PlanNode>& nodes, const std::vector<Candidate>& cand) {
  const int n = static_cast<int>(cand.size());
  std::vector<std::vector<int>> regions;
  std::vector<char> claimed(cand.size(), 0);
  std::vector<char> in_region(cand.size(), 0);
  for (int root = n - 1; root >= 0; --root) {
    const auto ur = static_cast<std::size_t>(root);
    if (claimed[ur]) continue;
    if (!cand[ur].elementwise && !cand[ur].reduction) continue;
    std::vector<int> members{root};
    in_region[ur] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t mi = 0; mi < members.size(); ++mi) {
        for (const Endpoint& input :
             nodes[static_cast<std::size_t>(members[mi])].inputs) {
          const auto up = static_cast<std::size_t>(input.producer);
          if (input.slot != 0 || in_region[up]) continue;
          const Candidate& pc = cand[up];
          if (!pc.elementwise || pc.has_control || pc.is_protected ||
              claimed[up]) {
            continue;
          }
          // Elementwise producers have exactly one output slot.
          bool all_inside = true;
          for (const Edge& edge : nodes[up].out_edges[0]) {
            if (!in_region[static_cast<std::size_t>(edge.consumer)]) {
              all_inside = false;
              break;
            }
          }
          if (!all_inside) continue;
          in_region[up] = 1;
          members.push_back(input.producer);
          changed = true;
        }
      }
    }
    for (const int m : members) in_region[static_cast<std::size_t>(m)] = 0;
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    for (const int m : members) claimed[static_cast<std::size_t>(m)] = 1;
    regions.push_back(std::move(members));
  }
  return regions;
}

struct RegionRewrite {
  std::shared_ptr<FusedRegionPlan> plan;
  std::vector<Endpoint> externals;  // old coordinates, in value-id order
  int root = -1;                    // old dense index
};

// Builds the register program: external (producer, slot) pairs dedupe onto
// value ids [0, E) in discovery order, then each member defines E + ordinal.
RegionRewrite BuildRegionRewrite(const std::vector<int>& members,
                                 const std::vector<PlanNode>& nodes,
                                 const std::vector<Candidate>& cand) {
  RegionRewrite rw;
  rw.root = members.back();
  rw.plan = std::make_shared<FusedRegionPlan>();
  FusedRegionPlan& plan = *rw.plan;

  std::unordered_map<int, int> member_ordinal;
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_ordinal[members[i]] = static_cast<int>(i);
  }
  std::map<std::pair<int, int>, int> external_ids;
  for (const int m : members) {
    for (const Endpoint& input : nodes[static_cast<std::size_t>(m)].inputs) {
      if (member_ordinal.find(input.producer) != member_ordinal.end()) continue;
      const auto key = std::make_pair(input.producer, input.slot);
      if (external_ids.find(key) == external_ids.end()) {
        external_ids[key] = static_cast<int>(rw.externals.size());
        rw.externals.push_back(input);
      }
    }
  }
  const int num_externals = static_cast<int>(rw.externals.size());
  plan.num_externals = num_externals;
  plan.num_values = num_externals + static_cast<int>(members.size());

  std::string signature;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const PlanNode& entry = nodes[static_cast<std::size_t>(members[i])];
    const Candidate& c = cand[static_cast<std::size_t>(members[i])];
    FusedRegionPlan::Member member;
    member.node = entry.node;
    member.kernel = entry.kernel;
    member.op = c.op;
    member.value_id = num_externals + static_cast<int>(i);
    int* slots[2] = {&member.a, &member.b};
    int slot_index = 0;
    for (const Endpoint& input : entry.inputs) {
      int id;
      const auto mit = member_ordinal.find(input.producer);
      if (mit != member_ordinal.end()) {
        id = num_externals + mit->second;
      } else {
        id = external_ids.at(std::make_pair(input.producer, input.slot));
      }
      *slots[slot_index++] = id;
    }
    signature += entry.node->op();
    signature += '(';
    signature += std::to_string(member.a);
    if (member.b >= 0) {
      signature += ',';
      signature += std::to_string(member.b);
    }
    signature += ')';
    if (c.reduction) {
      plan.has_reduction = true;
      member.axes = entry.node->GetIntListAttr("axes");
      member.keep_dims = entry.node->GetBoolAttr("keep_dims");
      signature += "[axes=";
      for (const std::int64_t axis : member.axes) {
        signature += std::to_string(axis);
        signature += ',';
      }
      signature += "kd=";
      signature += member.keep_dims ? '1' : '0';
      signature += ']';
    }
    signature += ';';
    plan.members.push_back(std::move(member));
  }
  plan.signature = std::move(signature);
  return rw;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan rewrite.
// ---------------------------------------------------------------------------

int FusePlan(std::vector<PlanNode>& nodes, std::vector<Endpoint>& fetch_slots,
             std::unordered_map<const Node*, int>& index,
             std::vector<std::shared_ptr<const FusedRegionPlan>>& regions) {
  const std::size_t n = nodes.size();
  std::vector<Candidate> cand(n);
  for (std::size_t i = 0; i < n; ++i) cand[i] = ClassifyCandidate(nodes[i]);
  for (const Endpoint& fetch : fetch_slots) {
    cand[static_cast<std::size_t>(fetch.producer)].is_protected = true;
  }

  const std::vector<std::vector<int>> found = CollectRegions(nodes, cand);
  if (found.empty()) return 0;

  std::vector<RegionRewrite> rewrites;
  rewrites.reserve(found.size());
  // Old dense index -> the region it belongs to, and, for interiors, the
  // region root that replaces them.
  std::vector<int> region_of(n, -1);
  std::vector<int> root_of(n, -1);
  for (const std::vector<int>& members : found) {
    rewrites.push_back(BuildRegionRewrite(members, nodes, cand));
    for (const int m : members) {
      region_of[static_cast<std::size_t>(m)] =
          static_cast<int>(rewrites.size()) - 1;
      if (m != rewrites.back().root) {
        root_of[static_cast<std::size_t>(m)] = rewrites.back().root;
      }
    }
  }

  // Rewire on the old array first: each external (producer, slot) loses its
  // edges into region members and gains exactly ONE edge into the region at
  // the external's value-id slot (a value consumed by k members arrives,
  // and counts down, once). The root's node becomes the region node; it
  // keeps the root's out-edges and control edges.
  for (std::size_t r = 0; r < rewrites.size(); ++r) {
    const RegionRewrite& rw = rewrites[r];
    for (std::size_t e = 0; e < rw.externals.size(); ++e) {
      const Endpoint& ext = rw.externals[e];
      auto& edges = nodes[static_cast<std::size_t>(ext.producer)]
                        .out_edges[static_cast<std::size_t>(ext.slot)];
      std::erase_if(edges, [&](const Edge& edge) {
        return region_of[static_cast<std::size_t>(edge.consumer)] ==
               static_cast<int>(r);
      });
      edges.push_back({rw.root, static_cast<int>(e)});
    }
    PlanNode& root = nodes[static_cast<std::size_t>(rw.root)];
    root.kind = OpKind::kFusedRegion;
    root.kernel = nullptr;
    root.fused = rw.plan.get();
    root.inputs = rw.externals;
    root.in_edges =
        static_cast<int>(root.inputs.size() + root.control_producers.size());
  }

  // Drop the interiors. Nothing points at an interior any more except the
  // node -> index map, which resolves it to its region (IndexOf).
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] < 0) remap[i] = next++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] >= 0) {
      remap[i] = remap[static_cast<std::size_t>(root_of[i])];
    }
  }
  const auto remapped = [&remap](int old) {
    return remap[static_cast<std::size_t>(old)];
  };
  std::vector<PlanNode> out;
  out.reserve(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] >= 0) continue;
    PlanNode entry = std::move(nodes[i]);
    for (Endpoint& input : entry.inputs) {
      input.producer = remapped(input.producer);
    }
    for (int& producer : entry.control_producers) {
      producer = remapped(producer);
    }
    for (auto& slot_edges : entry.out_edges) {
      for (Edge& edge : slot_edges) edge.consumer = remapped(edge.consumer);
    }
    for (int& consumer : entry.control_edges) consumer = remapped(consumer);
    out.push_back(std::move(entry));
  }
  for (auto& [node, dense] : index) dense = remapped(dense);
  for (Endpoint& slot : fetch_slots) slot.producer = remapped(slot.producer);
  nodes = std::move(out);
  for (RegionRewrite& rw : rewrites) regions.push_back(std::move(rw.plan));
  return static_cast<int>(rewrites.size());
}

// ---------------------------------------------------------------------------
// Runtime specialization.
// ---------------------------------------------------------------------------

namespace internal {
struct BlockInstr {
  void (*fn)(char* const* vals, const BlockInstr& instr,
             std::int64_t count) = nullptr;
  int out = -1;
  int a = -1;
  int b = -1;
};
}  // namespace internal

// The specialized program: what the block interpreter executes. Shared via
// the FusedKernelCache across every region with the same content key, so it
// carries no Node pointers — only value wiring, block kernels, and layout.
struct FusedSpec {
  bool use_fallback = false;
  struct Ext {
    DType dtype = DType::kFloat32;
    Shape shape;
    std::size_t elem_size = 0;
    bool uniform = false;      // single element, splatted once per run
    std::size_t scratch = 0;   // splat area offset (uniform only)
  };
  std::vector<Ext> externals;
  std::vector<internal::BlockInstr> instrs;
  // Per value id: offset into the thread-local scratch arena, or kNoScratch
  // for values bound per block (full externals, the materialized root).
  std::vector<std::size_t> value_scratch;
  std::size_t scratch_bytes = 0;
  std::int64_t n = 0;  // iteration count (elements of the elementwise root)
  Shape iter_shape;
  int root_value = -1;  // elementwise root value id
  DType root_dtype = DType::kFloat32;
  std::size_t root_elem_size = 0;
  bool has_reduction = false;
  bool reduce_mean = false;
  Shape out_shape;  // == iter_shape unless has_reduction
  // Reduction epilogue replica of ops_linalg.cc ReduceImpl: full-rank output
  // strides (0 on reduced axes) + input dims, linear accumulation order.
  std::vector<std::int64_t> red_out_strides;
  std::vector<std::int64_t> red_in_dims;
  float mean_scale = 1.0f;

  static constexpr std::size_t kNoScratch =
      std::numeric_limits<std::size_t>::max();
};

namespace internal {
namespace {

constexpr std::int64_t kBlockElements = 1024;

// ---- block kernels: exact replicas of the ops_elementwise.cc lambdas ----

template <typename T, typename O, typename F>
void UnaryBlock(char* const* vals, const BlockInstr& instr,
                std::int64_t count) {
  const T* a = reinterpret_cast<const T*>(vals[instr.a]);
  O* o = reinterpret_cast<O*>(vals[instr.out]);
  for (std::int64_t i = 0; i < count; ++i) {
    o[i] = F::Apply(a[i]);
  }
}

template <typename T, typename O, typename F>
void BinaryBlock(char* const* vals, const BlockInstr& instr,
                 std::int64_t count) {
  const T* a = reinterpret_cast<const T*>(vals[instr.a]);
  const T* b = reinterpret_cast<const T*>(vals[instr.b]);
  O* o = reinterpret_cast<O*>(vals[instr.out]);
  for (std::int64_t i = 0; i < count; ++i) {
    o[i] = F::Apply(a[i], b[i]);
  }
}

struct FNeg {
  template <typename T>
  static T Apply(T x) {
    return -x;
  }
};
struct FAbs {
  static float Apply(float x) { return std::fabs(x); }
  static std::int64_t Apply(std::int64_t x) { return x < 0 ? -x : x; }
};
struct FSign {
  static float Apply(float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  }
};
struct FExp {
  static float Apply(float x) { return std::exp(x); }
};
struct FLog {
  static float Apply(float x) { return std::log(x); }
};
struct FSqrt {
  static float Apply(float x) { return std::sqrt(x); }
};
struct FSquare {
  static float Apply(float x) { return x * x; }
};
struct FTanh {
  static float Apply(float x) { return std::tanh(x); }
};
struct FSigmoid {
  static float Apply(float x) { return 1.0f / (1.0f + std::exp(-x)); }
};
struct FRelu {
  static float Apply(float x) { return x > 0.0f ? x : 0.0f; }
};
struct FNot {
  static std::uint8_t Apply(std::uint8_t x) {
    return static_cast<std::uint8_t>(x != 0 ? 0 : 1);
  }
};
struct FAdd {
  template <typename T>
  static T Apply(T x, T y) {
    return x + y;
  }
};
struct FSub {
  template <typename T>
  static T Apply(T x, T y) {
    return x - y;
  }
};
struct FMul {
  template <typename T>
  static T Apply(T x, T y) {
    return x * y;
  }
};
struct FDiv {
  static float Apply(float x, float y) { return x / y; }
};
struct FFloorDiv {
  static float Apply(float x, float y) { return std::floor(x / y); }
};
struct FMod {
  static float Apply(float x, float y) { return x - y * std::floor(x / y); }
};
struct FPow {
  static float Apply(float x, float y) { return std::pow(x, y); }
  static std::int64_t Apply(std::int64_t x, std::int64_t y) {
    std::int64_t result = 1;
    for (std::int64_t i = 0; i < y; ++i) result *= x;
    return result;
  }
};
struct FMax {
  template <typename T>
  static T Apply(T x, T y) {
    return x > y ? x : y;
  }
};
struct FMin {
  template <typename T>
  static T Apply(T x, T y) {
    return x < y ? x : y;
  }
};
struct FReluGrad {
  static float Apply(float g, float x) { return x > 0.0f ? g : 0.0f; }
};
struct CEq {
  template <typename T>
  static bool Test(T x, T y) {
    return x == y;
  }
};
struct CNe {
  template <typename T>
  static bool Test(T x, T y) {
    return x != y;
  }
};
struct CLt {
  template <typename T>
  static bool Test(T x, T y) {
    return x < y;
  }
};
struct CLe {
  template <typename T>
  static bool Test(T x, T y) {
    return x <= y;
  }
};
struct CGt {
  template <typename T>
  static bool Test(T x, T y) {
    return x > y;
  }
};
struct CGe {
  template <typename T>
  static bool Test(T x, T y) {
    return x >= y;
  }
};
template <typename C>
struct FCmp {
  template <typename T>
  static std::uint8_t Apply(T x, T y) {
    return static_cast<std::uint8_t>(C::Test(x, y) ? 1 : 0);
  }
};
// Bool comparisons compare truthiness, as Compare<bool> does.
template <typename C>
struct FBoolCmp {
  static std::uint8_t Apply(std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(C::Test(x != 0, y != 0) ? 1 : 0);
  }
};
struct FAnd {
  static std::uint8_t Apply(std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>((x != 0 && y != 0) ? 1 : 0);
  }
};
struct FOr {
  static std::uint8_t Apply(std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>((x != 0 || y != 0) ? 1 : 0);
  }
};

using BlockFn = void (*)(char* const*, const BlockInstr&, std::int64_t);

template <typename C>
BlockFn CompareFn(DType dtype) {
  switch (dtype) {
    case DType::kFloat32:
      return &BinaryBlock<float, std::uint8_t, FCmp<C>>;
    case DType::kInt64:
      return &BinaryBlock<std::int64_t, std::uint8_t, FCmp<C>>;
    case DType::kBool:
      return &BinaryBlock<std::uint8_t, std::uint8_t, FBoolCmp<C>>;
  }
  return nullptr;
}

// ---- dtype/shape propagation (mirrors the unfused kernels' checks) ----

struct ValueInfo {
  DType dtype = DType::kFloat32;
  Shape shape;
};

bool TryBroadcast(const Shape& a, const Shape& b, Shape* out) {
  try {
    *out = BroadcastShapes(a, b);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// Replicates ops_linalg.cc NormalizeAxes (empty => all axes; negatives
// wrapped; sorted + deduplicated). Returns false on a bad axis, where the
// unfused kernel would throw.
bool NormalizeReduceAxes(const std::vector<std::int64_t>& raw, int rank,
                         std::vector<int>* out) {
  std::vector<int> axes;
  axes.reserve(raw.size());
  for (const std::int64_t v : raw) axes.push_back(static_cast<int>(v));
  if (axes.empty()) {
    axes.resize(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) axes[static_cast<std::size_t>(i)] = i;
    *out = std::move(axes);
    return true;
  }
  for (int& axis : axes) {
    if (axis < 0) axis += rank;
    if (axis < 0 || axis >= rank) return false;
  }
  std::sort(axes.begin(), axes.end());
  axes.erase(std::unique(axes.begin(), axes.end()), axes.end());
  *out = std::move(axes);
  return true;
}

// Fills `spec` for the region against the concrete external dtypes/shapes.
// Returns false when any member's dtype/shape combination cannot be executed
// bit-exactly (or would throw) in the block interpreter; the caller then
// marks the spec fallback-only and the per-member path reproduces the exact
// unfused behaviour, including errors.
bool PopulateSpec(const FusedRegionPlan& region, std::span<const Tensor> inputs,
                  FusedSpec& spec) {
  const int num_externals = region.num_externals;
  spec.externals.resize(static_cast<std::size_t>(num_externals));
  std::vector<ValueInfo> values(static_cast<std::size_t>(region.num_values));
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    ext.dtype = inputs[static_cast<std::size_t>(i)].dtype();
    ext.shape = inputs[static_cast<std::size_t>(i)].shape();
    ext.elem_size = DTypeSize(ext.dtype);
    values[static_cast<std::size_t>(i)] = {ext.dtype, ext.shape};
  }

  for (const FusedRegionPlan::Member& m : region.members) {
    const ValueInfo& a = values[static_cast<std::size_t>(m.a)];
    const ValueInfo* b =
        m.b >= 0 ? &values[static_cast<std::size_t>(m.b)] : nullptr;
    BlockInstr instr;
    instr.out = m.value_id;
    instr.a = m.a;
    instr.b = m.b;
    ValueInfo out;

    const auto float_unary = [&](BlockFn fn) {
      if (a.dtype != DType::kFloat32) return false;
      instr.fn = fn;
      out = {DType::kFloat32, a.shape};
      return true;
    };
    const auto numeric_binary = [&](BlockFn ffn, BlockFn ifn) {
      if (a.dtype != b->dtype || a.dtype == DType::kBool) return false;
      Shape shape;
      if (!TryBroadcast(a.shape, b->shape, &shape)) return false;
      instr.fn = a.dtype == DType::kFloat32 ? ffn : ifn;
      if (instr.fn == nullptr) return false;
      out = {a.dtype, shape};
      return true;
    };
    const auto compare_binary = [&](BlockFn fn) {
      if (a.dtype != b->dtype) return false;
      Shape shape;
      if (!TryBroadcast(a.shape, b->shape, &shape)) return false;
      instr.fn = fn;
      out = {DType::kBool, shape};
      return true;
    };

    bool ok = false;
    switch (m.op) {
      case FusedOp::kNeg:
        if (a.dtype == DType::kInt64) {
          instr.fn = &UnaryBlock<std::int64_t, std::int64_t, FNeg>;
          out = {DType::kInt64, a.shape};
          ok = true;
        } else {
          ok = float_unary(&UnaryBlock<float, float, FNeg>);
        }
        break;
      case FusedOp::kAbs:
        if (a.dtype == DType::kInt64) {
          instr.fn = &UnaryBlock<std::int64_t, std::int64_t, FAbs>;
          out = {DType::kInt64, a.shape};
          ok = true;
        } else {
          ok = float_unary(&UnaryBlock<float, float, FAbs>);
        }
        break;
      case FusedOp::kSign:
        ok = float_unary(&UnaryBlock<float, float, FSign>);
        break;
      case FusedOp::kExp:
        ok = float_unary(&UnaryBlock<float, float, FExp>);
        break;
      case FusedOp::kLog:
        ok = float_unary(&UnaryBlock<float, float, FLog>);
        break;
      case FusedOp::kSqrt:
        ok = float_unary(&UnaryBlock<float, float, FSqrt>);
        break;
      case FusedOp::kSquare:
        ok = float_unary(&UnaryBlock<float, float, FSquare>);
        break;
      case FusedOp::kTanh:
        ok = float_unary(&UnaryBlock<float, float, FTanh>);
        break;
      case FusedOp::kSigmoid:
        ok = float_unary(&UnaryBlock<float, float, FSigmoid>);
        break;
      case FusedOp::kRelu:
        ok = float_unary(&UnaryBlock<float, float, FRelu>);
        break;
      case FusedOp::kLogicalNot:
        if (a.dtype != DType::kBool) break;
        instr.fn = &UnaryBlock<std::uint8_t, std::uint8_t, FNot>;
        out = {DType::kBool, a.shape};
        ok = true;
        break;
      case FusedOp::kAdd:
        ok = numeric_binary(&BinaryBlock<float, float, FAdd>,
                            &BinaryBlock<std::int64_t, std::int64_t, FAdd>);
        break;
      case FusedOp::kSub:
        ok = numeric_binary(&BinaryBlock<float, float, FSub>,
                            &BinaryBlock<std::int64_t, std::int64_t, FSub>);
        break;
      case FusedOp::kMul:
        ok = numeric_binary(&BinaryBlock<float, float, FMul>,
                            &BinaryBlock<std::int64_t, std::int64_t, FMul>);
        break;
      case FusedOp::kDiv:
        // int64 Div promotes to float through Cast in the unfused kernel;
        // fall back so the promotion chain stays bit-identical.
        ok = numeric_binary(&BinaryBlock<float, float, FDiv>, nullptr);
        break;
      case FusedOp::kFloorDiv:
        // Integer FloorDiv/Mod can throw division-by-zero mid-tensor; the
        // fallback keeps error attribution at the exact member node.
        ok = numeric_binary(&BinaryBlock<float, float, FFloorDiv>, nullptr);
        break;
      case FusedOp::kMod:
        ok = numeric_binary(&BinaryBlock<float, float, FMod>, nullptr);
        break;
      case FusedOp::kPow:
        ok = numeric_binary(&BinaryBlock<float, float, FPow>,
                            &BinaryBlock<std::int64_t, std::int64_t, FPow>);
        break;
      case FusedOp::kMaximum:
        ok = numeric_binary(&BinaryBlock<float, float, FMax>,
                            &BinaryBlock<std::int64_t, std::int64_t, FMax>);
        break;
      case FusedOp::kMinimum:
        ok = numeric_binary(&BinaryBlock<float, float, FMin>,
                            &BinaryBlock<std::int64_t, std::int64_t, FMin>);
        break;
      case FusedOp::kReluGrad:
        if (a.dtype != DType::kFloat32 || b->dtype != DType::kFloat32) break;
        if (a.shape != b->shape) break;  // unfused kernel throws
        instr.fn = &BinaryBlock<float, float, FReluGrad>;
        out = {DType::kFloat32, a.shape};
        ok = true;
        break;
      case FusedOp::kEqual:
        ok = compare_binary(CompareFn<CEq>(a.dtype));
        break;
      case FusedOp::kNotEqual:
        ok = compare_binary(CompareFn<CNe>(a.dtype));
        break;
      case FusedOp::kLess:
        ok = compare_binary(CompareFn<CLt>(a.dtype));
        break;
      case FusedOp::kLessEqual:
        ok = compare_binary(CompareFn<CLe>(a.dtype));
        break;
      case FusedOp::kGreater:
        ok = compare_binary(CompareFn<CGt>(a.dtype));
        break;
      case FusedOp::kGreaterEqual:
        ok = compare_binary(CompareFn<CGe>(a.dtype));
        break;
      case FusedOp::kLogicalAnd:
      case FusedOp::kLogicalOr:
        // Non-bool operands hit a dtype-mismatch error in the unfused kernel;
        // reproduce through the fallback.
        if (a.dtype != DType::kBool || b->dtype != DType::kBool) break;
        {
          Shape shape;
          if (!TryBroadcast(a.shape, b->shape, &shape)) break;
          instr.fn = m.op == FusedOp::kLogicalAnd
                         ? &BinaryBlock<std::uint8_t, std::uint8_t, FAnd>
                         : &BinaryBlock<std::uint8_t, std::uint8_t, FOr>;
          out = {DType::kBool, shape};
          ok = true;
        }
        break;
      case FusedOp::kReduceSum:
      case FusedOp::kReduceMean: {
        if (a.dtype != DType::kFloat32) return false;
        std::vector<int> axes;
        if (!NormalizeReduceAxes(m.axes, a.shape.rank(), &axes)) return false;
        spec.has_reduction = true;
        spec.reduce_mean = m.op == FusedOp::kReduceMean;
        spec.iter_shape = a.shape;
        spec.root_value = m.a;
        spec.root_dtype = DType::kFloat32;
        // ReducedShape replica.
        std::vector<std::int64_t> out_dims;
        for (int i = 0; i < a.shape.rank(); ++i) {
          const bool reduced = std::binary_search(axes.begin(), axes.end(), i);
          if (reduced) {
            if (m.keep_dims) out_dims.push_back(1);
          } else {
            out_dims.push_back(a.shape.dim(i));
          }
        }
        spec.out_shape = Shape(std::move(out_dims));
        // Full-rank output strides with 0 on reduced axes (ReduceImpl).
        const int rank = a.shape.rank();
        spec.red_in_dims = a.shape.dims();
        spec.red_out_strides.assign(static_cast<std::size_t>(rank), 0);
        std::int64_t stride = 1;
        for (int i = rank - 1; i >= 0; --i) {
          const auto u = static_cast<std::size_t>(i);
          if (std::binary_search(axes.begin(), axes.end(), i)) {
            spec.red_out_strides[u] = 0;
          } else {
            spec.red_out_strides[u] = stride;
            stride *= spec.red_in_dims[u];
          }
        }
        std::int64_t count = 1;
        for (const int axis : axes) count *= a.shape.dim(axis);
        spec.mean_scale = 1.0f / static_cast<float>(count);
        values[static_cast<std::size_t>(m.value_id)] = {DType::kFloat32,
                                                        spec.out_shape};
        continue;  // epilogue, not a block instruction
      }
    }
    if (!ok || instr.fn == nullptr) return false;
    values[static_cast<std::size_t>(m.value_id)] = out;
    spec.instrs.push_back(instr);
  }

  if (!spec.has_reduction) {
    spec.root_value = region.members.back().value_id;
    const ValueInfo& root = values[static_cast<std::size_t>(spec.root_value)];
    spec.iter_shape = root.shape;
    spec.out_shape = root.shape;
    spec.root_dtype = root.dtype;
  }
  spec.root_elem_size = DTypeSize(spec.root_dtype);
  spec.n = spec.iter_shape.num_elements();

  // External classification: full (element count == iteration count, which
  // with broadcast-compatible shapes implies an identity linear layout) or
  // uniform (single element, splatted). Anything else — a genuine partial
  // broadcast like (8,1) against (8,8) — is not same-index iterable.
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    const std::int64_t count = ext.shape.num_elements();
    if (count == spec.n) {
      ext.uniform = false;
    } else if (count == 1) {
      ext.uniform = true;
    } else {
      return false;
    }
  }
  // Interior values must also be same-index iterable: a partial-broadcast
  // interior (count != n and != 1) cannot live in block scratch. Uniform
  // interiors are simply computed block-wide from splatted operands, which
  // preserves per-element bit-exactness.
  for (const FusedRegionPlan::Member& m : region.members) {
    if (spec.has_reduction && m.value_id == region.members.back().value_id) {
      continue;  // reduction epilogue value is the region output itself
    }
    const std::int64_t count =
        values[static_cast<std::size_t>(m.value_id)].shape.num_elements();
    if (count != spec.n && count != 1) return false;
  }

  // Scratch layout: 64-byte-aligned slabs for uniform-external splats and
  // every interior value; the materialized root (non-reduction) writes the
  // output tensor directly and full externals bind per block.
  spec.value_scratch.assign(static_cast<std::size_t>(region.num_values),
                            FusedSpec::kNoScratch);
  std::size_t offset = 0;
  const auto allocate = [&offset](std::size_t bytes) {
    const std::size_t at = offset;
    offset += (bytes + 63) & ~static_cast<std::size_t>(63);
    return at;
  };
  for (int i = 0; i < num_externals; ++i) {
    auto& ext = spec.externals[static_cast<std::size_t>(i)];
    if (!ext.uniform) continue;
    ext.scratch = allocate(static_cast<std::size_t>(kBlockElements) *
                           ext.elem_size);
    spec.value_scratch[static_cast<std::size_t>(i)] = ext.scratch;
  }
  for (const FusedRegionPlan::Member& m : region.members) {
    if (spec.has_reduction && m.value_id == region.members.back().value_id) {
      continue;
    }
    if (!spec.has_reduction && m.value_id == spec.root_value) continue;
    const DType dtype = values[static_cast<std::size_t>(m.value_id)].dtype;
    spec.value_scratch[static_cast<std::size_t>(m.value_id)] =
        allocate(static_cast<std::size_t>(kBlockElements) * DTypeSize(dtype));
  }
  spec.scratch_bytes = offset;
  return true;
}

// ---- spec cache ----

bool SpecMatches(const FusedSpec& spec, std::span<const Tensor> inputs) {
  if (spec.externals.size() != inputs.size()) return false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (spec.externals[i].dtype != inputs[i].dtype() ||
        spec.externals[i].shape != inputs[i].shape()) {
      return false;
    }
  }
  return true;
}

std::string SpecKey(const FusedRegionPlan& region,
                    std::span<const Tensor> inputs) {
  std::string key = region.signature;
  key += '|';
  for (const Tensor& t : inputs) {
    key += DTypeName(t.dtype());
    key += t.shape().ToString();
    key += ',';
  }
  return key;
}

std::shared_ptr<const FusedSpec> GetSpec(const FusedRegionPlan& region,
                                         std::span<const Tensor> inputs) {
  {
    const MutexLock lock(region.memo_mu);
    if (region.memo != nullptr && SpecMatches(*region.memo, inputs)) {
      return region.memo;
    }
  }
  // Memo miss: the region is running its first shape, or the graph was
  // despecialized and the runtime shapes changed. Share programs through the
  // process-wide content-addressed cache.
  const std::string key = SpecKey(region, inputs);
  auto& cache = cache::FusedKernelCache::Global();
  std::shared_ptr<const FusedSpec> spec =
      std::static_pointer_cast<const FusedSpec>(cache.Find(key));
  if (spec == nullptr) {
    auto built = std::make_shared<FusedSpec>();
    if (!PopulateSpec(region, inputs, *built)) built->use_fallback = true;
    spec = std::move(built);
    cache.Insert(key, spec);
  }
  {
    const MutexLock lock(region.memo_mu);
    region.memo = spec;
  }
  return spec;
}

// ---- execution helpers ----

const char* RawData(const Tensor& t) {
  switch (t.dtype()) {
    case DType::kFloat32:
      return reinterpret_cast<const char*>(t.data<float>().data());
    case DType::kInt64:
      return reinterpret_cast<const char*>(t.data<std::int64_t>().data());
    case DType::kBool:
      return reinterpret_cast<const char*>(t.data<std::uint8_t>().data());
  }
  return nullptr;
}

char* RawMutable(Tensor& t) {
  switch (t.dtype()) {
    case DType::kFloat32:
      return reinterpret_cast<char*>(t.mutable_data<float>().data());
    case DType::kInt64:
      return reinterpret_cast<char*>(t.mutable_data<std::int64_t>().data());
    case DType::kBool:
      return reinterpret_cast<char*>(t.mutable_data<std::uint8_t>().data());
  }
  return nullptr;
}

void SplatUniform(const Tensor& t, char* dst) {
  switch (t.dtype()) {
    case DType::kFloat32:
      std::fill_n(reinterpret_cast<float*>(dst), kBlockElements,
                  t.data<float>()[0]);
      break;
    case DType::kInt64:
      std::fill_n(reinterpret_cast<std::int64_t*>(dst), kBlockElements,
                  t.data<std::int64_t>()[0]);
      break;
    case DType::kBool:
      std::fill_n(reinterpret_cast<std::uint8_t*>(dst), kBlockElements,
                  t.data<std::uint8_t>()[0]);
      break;
  }
}

// ReduceImpl's accumulation, restricted to the linear index window
// [base, base + count): identical combine order, identical index mapping.
void AccumulateReduction(const FusedSpec& spec, float* out, const float* block,
                         std::int64_t base, std::int64_t count) {
  const int rank = static_cast<int>(spec.red_in_dims.size());
  for (std::int64_t k = 0; k < count; ++k) {
    std::int64_t rem = base + k;
    std::int64_t out_idx = 0;
    for (int axis = rank - 1; axis >= 0; --axis) {
      const auto u = static_cast<std::size_t>(axis);
      const std::int64_t coord = rem % spec.red_in_dims[u];
      rem /= spec.red_in_dims[u];
      out_idx += coord * spec.red_out_strides[u];
    }
    float& slot = out[static_cast<std::size_t>(out_idx)];
    slot = slot + block[k];
  }
}

// Per-member fallback: executes every member through its resolved kernel
// over a local value table — identical dispatch, identical error annotation,
// identical precomputed-output (eager tape) semantics as unfused execution.
void RunFallback(RunContext& run, const FusedRegionPlan& region,
                 std::span<const Tensor> inputs, std::vector<Tensor>& outputs,
                 const Precomputed* precomputed) {
  std::vector<Tensor> table(static_cast<std::size_t>(region.num_values));
  for (int i = 0; i < region.num_externals; ++i) {
    table[static_cast<std::size_t>(i)] = inputs[static_cast<std::size_t>(i)];
  }
  for (const FusedRegionPlan::Member& m : region.members) {
    if (precomputed != nullptr) {
      const auto it = precomputed->find(m.node);
      if (it != precomputed->end()) {
        table[static_cast<std::size_t>(m.value_id)] = it->second.at(0);
        continue;
      }
    }
    std::vector<Tensor> operands;
    operands.reserve(2);
    operands.push_back(table[static_cast<std::size_t>(m.a)]);
    if (m.b >= 0) operands.push_back(table[static_cast<std::size_t>(m.b)]);
    std::vector<Tensor> outs;
    ExecuteKernel(run, *m.node, *m.kernel, operands, outs,
                  /*allow_in_place=*/false);
    table[static_cast<std::size_t>(m.value_id)] = std::move(outs.at(0));
  }
  outputs.assign(
      1, std::move(table[static_cast<std::size_t>(
             region.members.back().value_id)]));
}

}  // namespace

void ExecuteFusedRegion(RunContext& run, const FusedRegionPlan& region,
                        std::span<const Tensor> inputs,
                        std::vector<Tensor>& outputs, bool allow_in_place,
                        const Precomputed* precomputed) {
  if (precomputed != nullptr && !precomputed->empty()) {
    for (const FusedRegionPlan::Member& m : region.members) {
      if (precomputed->find(m.node) != precomputed->end()) {
        RunFallback(run, region, inputs, outputs, precomputed);
        return;
      }
    }
  }
  const std::shared_ptr<const FusedSpec> spec = GetSpec(region, inputs);
  if (spec->use_fallback) {
    RunFallback(run, region, inputs, outputs, nullptr);
    return;
  }

  if (run.dispatch_penalty_ns > 0) {
    // One region = one dispatch under the calibrated imperative stand-in.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(run.dispatch_penalty_ns);
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }
  // Region output. Non-reduction regions may steal a dying full external's
  // buffer: block b's writes land only on indices every instruction has
  // already consumed (instructions run whole-block, the root runs last), so
  // the same-index safety argument of per-op in-place reuse carries over.
  Tensor out;
  {
    const InPlaceScope scope(allow_in_place && !spec->has_reduction);
    if (spec->has_reduction) {
      out = Tensor::Full(spec->out_shape, 0.0f);  // ReduceImpl's init
    } else {
      std::vector<const Tensor*> candidates;
      candidates.reserve(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!spec->externals[i].uniform) candidates.push_back(&inputs[i]);
      }
      out = Tensor::OutputBuffer(candidates, spec->root_dtype,
                                 spec->out_shape);
    }
  }

  thread_local std::vector<char> scratch;
  if (scratch.size() < spec->scratch_bytes) scratch.resize(spec->scratch_bytes);
  char* const scratch_base = scratch.data();

  std::vector<char*> vals(static_cast<std::size_t>(region.num_values),
                          nullptr);
  struct FullExt {
    int value;
    const char* base;
    std::size_t elem_size;
  };
  std::vector<FullExt> fulls;
  fulls.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& ext = spec->externals[i];
    if (ext.uniform) {
      char* dst = scratch_base + ext.scratch;
      SplatUniform(inputs[i], dst);
      vals[i] = dst;
    } else {
      fulls.push_back({static_cast<int>(i), RawData(inputs[i]),
                       ext.elem_size});
    }
  }
  for (int v = region.num_externals; v < region.num_values; ++v) {
    const std::size_t at = spec->value_scratch[static_cast<std::size_t>(v)];
    if (at != FusedSpec::kNoScratch) vals[static_cast<std::size_t>(v)] =
        scratch_base + at;
  }

  char* const out_base = RawMutable(out);
  float* const red_out =
      spec->has_reduction ? reinterpret_cast<float*>(out_base) : nullptr;
  const std::int64_t n = spec->n;
  for (std::int64_t base = 0; base < n; base += kBlockElements) {
    const std::int64_t count = std::min<std::int64_t>(kBlockElements, n - base);
    for (const FullExt& full : fulls) {
      vals[static_cast<std::size_t>(full.value)] = const_cast<char*>(
          full.base + static_cast<std::size_t>(base) * full.elem_size);
    }
    if (!spec->has_reduction) {
      vals[static_cast<std::size_t>(spec->root_value)] =
          out_base + static_cast<std::size_t>(base) * spec->root_elem_size;
    }
    for (const BlockInstr& instr : spec->instrs) {
      instr.fn(vals.data(), instr, count);
    }
    if (spec->has_reduction) {
      AccumulateReduction(
          *spec, red_out,
          reinterpret_cast<const float*>(
              vals[static_cast<std::size_t>(spec->root_value)]),
          base, count);
    }
  }
  if (spec->reduce_mean) {
    // ReduceMean = Mul(sum, 1/count): same expression, same rounding.
    const std::int64_t out_n = spec->out_shape.num_elements();
    for (std::int64_t i = 0; i < out_n; ++i) {
      red_out[static_cast<std::size_t>(i)] =
          red_out[static_cast<std::size_t>(i)] * spec->mean_scale;
    }
  }

  outputs.assign(1, std::move(out));
  const auto member_count =
      static_cast<std::int64_t>(region.members.size());
  run.ops_executed.fetch_add(member_count, std::memory_order_relaxed);
  run.fused_regions.fetch_add(1, std::memory_order_relaxed);
  run.fused_ops.fetch_add(member_count, std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace janus
